"""Tests for trust derivation (eq. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.trust import TrustDeriver, derive_trust


def make_matrices(a_rows, e_rows, users=None, categories=None):
    users = users or [f"u{i}" for i in range(len(a_rows))]
    categories = categories or [f"c{j}" for j in range(len(a_rows[0]))]
    A = UserCategoryMatrix(users, categories, np.array(a_rows, dtype=float))
    E = UserCategoryMatrix(users, categories, np.array(e_rows, dtype=float))
    return A, E


class TestEquationFive:
    def test_hand_computed_two_by_two(self):
        # A(u0) = [0.5, 0.25]; E(u1) = [0.8, 0.4]
        # T(u0, u1) = (0.5*0.8 + 0.25*0.4)/(0.75) = 0.5/0.75 = 2/3
        A, E = make_matrices([[0.5, 0.25], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.4]])
        T = derive_trust(A, E)
        assert T.get("u0", "u1") == pytest.approx(2 / 3)

    def test_affinity_weights_matter(self):
        # u0 cares only about c0; u1 is expert only in c1 -> zero trust;
        # u2 is expert only in c0 -> full E value
        A, E = make_matrices(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.9], [0.7, 0.0]],
        )
        T = derive_trust(A, E)
        assert not T.contains("u0", "u1")  # zero -> not stored
        assert T.get("u0", "u2") == pytest.approx(0.7)

    def test_zero_affinity_row_produces_nothing(self):
        A, E = make_matrices([[0.0, 0.0]], [[0.9, 0.9]])
        T = derive_trust(A, E)
        assert T.num_entries() == 0

    def test_diagonal_excluded_by_default(self):
        A, E = make_matrices([[1.0]], [[0.9]])
        T = derive_trust(A, E)
        assert not T.contains("u0", "u0")

    def test_diagonal_included_on_request(self):
        A, E = make_matrices([[1.0]], [[0.9]])
        T = derive_trust(A, E, include_self=True)
        assert T.get("u0", "u0") == pytest.approx(0.9)

    def test_min_value_threshold(self):
        A, E = make_matrices(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.05, 0.0], [0.5, 0.0]],
        )
        T = derive_trust(A, E, min_value=0.1)
        assert not T.contains("u0", "u1")  # 0.05 below threshold
        assert T.get("u0", "u2") == pytest.approx(0.5)

    def test_axis_mismatch_rejected(self):
        A, _ = make_matrices([[1.0]], [[0.5]])
        _, E = make_matrices([[1.0]], [[0.5]], users=["other"])
        with pytest.raises(ValidationError, match="user axis"):
            derive_trust(A, E)

    def test_category_mismatch_rejected(self):
        A, _ = make_matrices([[1.0]], [[0.5]])
        _, E = make_matrices([[1.0]], [[0.5]], categories=["different"])
        with pytest.raises(ValidationError, match="category axis"):
            derive_trust(A, E)


class TestBlockedComputation:
    def test_block_size_does_not_change_result(self):
        rng = np.random.default_rng(7)
        n, c = 23, 4
        a = rng.random((n, c))
        e = rng.random((n, c))
        users = [f"u{i}" for i in range(n)]
        cats = [f"c{j}" for j in range(c)]
        A = UserCategoryMatrix(users, cats, a)
        E = UserCategoryMatrix(users, cats, e)
        small = TrustDeriver(block_size=3).derive(A, E)
        large = TrustDeriver(block_size=1000).derive(A, E)
        assert small == large

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            TrustDeriver(block_size=0)
        with pytest.raises(ValidationError):
            TrustDeriver(min_value=-0.1)


unit_matrix = st.tuples(st.integers(2, 6), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32),
            min_size=shape[1],
            max_size=shape[1],
        ),
        min_size=shape[0],
        max_size=shape[0],
    )
)


class TestDerivationProperties:
    @given(unit_matrix, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_values_bounded_by_target_expertise(self, rows, rnd):
        """T-hat_ij is a weighted mean of E_j*, so it can't exceed max_c E_jc."""
        a = np.array(rows, dtype=float)
        e = np.array(rows, dtype=float).T[: a.shape[1], : a.shape[0]].T
        if e.shape != a.shape:
            e = np.resize(e, a.shape)
        e = np.clip(e, 0, 1)
        users = [f"u{i}" for i in range(a.shape[0])]
        cats = [f"c{j}" for j in range(a.shape[1])]
        T = derive_trust(
            UserCategoryMatrix(users, cats, a), UserCategoryMatrix(users, cats, e)
        )
        for source, target, value in T.entries():
            j = users.index(target)
            assert value <= e[j].max() + 1e-9
            assert 0.0 <= value <= 1.0 + 1e-9


def row_entries_oracle(deriver, a_values, row_sums, e_transposed, rows, block_size):
    """``TrustDeriver._row_entries`` as first written: each block's stored
    entries from a 2-D ``np.nonzero`` and a boolean-indexed gather."""
    n = e_transposed.shape[1]
    key_parts = [np.empty(0, dtype=np.int64)]
    val_parts = [np.empty(0, dtype=np.float64)]
    for start in range(0, rows.size, block_size):
        block_rows = rows[start : start + block_size]
        weights = a_values[block_rows, :] / row_sums[block_rows, None]
        block = np.einsum("mc,cn->mn", weights, e_transposed, optimize=False)
        mask = block > deriver.min_value
        if not deriver.include_self:
            mask[np.arange(block_rows.size), block_rows] = False
        local, cols = np.nonzero(mask)
        key_parts.append(block_rows[local] * n + cols)
        val_parts.append(block[local, cols])
    return np.concatenate(key_parts), np.concatenate(val_parts)


class TestRowEntries:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        c=st.integers(min_value=1, max_value=6),
        min_value=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
        include_self=st.booleans(),
        block_size=st.integers(min_value=1, max_value=45),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_nonzero_formulation_bit_for_bit(
        self, seed, n, c, min_value, include_self, block_size
    ):
        rng = np.random.default_rng(seed)
        a = rng.random((n, c)) * (rng.random((n, c)) < 0.6)
        e = rng.random((n, c)) * (rng.random((n, c)) < 0.6)
        row_sums = a.sum(axis=1)
        active = np.flatnonzero(row_sums > 0.0)
        rows = np.sort(rng.choice(active, size=rng.integers(0, active.size + 1), replace=False))
        deriver = TrustDeriver(min_value=min_value, include_self=include_self)
        keys, vals = deriver._row_entries(a, row_sums, e.T.copy(), rows, block_size)
        want_keys, want_vals = row_entries_oracle(
            deriver, a, row_sums, e.T.copy(), rows, block_size
        )
        assert keys.dtype == want_keys.dtype and vals.dtype == want_vals.dtype
        assert keys.tobytes() == want_keys.tobytes()
        assert vals.tobytes() == want_vals.tobytes()


class TestDeriveRegion:
    """derive_region must store bitwise what a full derive stores there."""

    def _random_matrices(self, seed, n=19, c=3):
        rng = np.random.default_rng(seed)
        a = rng.random((n, c)) * (rng.random((n, c)) < 0.7)
        e = rng.random((n, c)) * (rng.random((n, c)) < 0.7)
        users = [f"u{i}" for i in range(n)]
        cats = [f"c{j}" for j in range(c)]
        return (
            UserCategoryMatrix(users, cats, a),
            UserCategoryMatrix(users, cats, e),
        )

    def _region_support(self, full, A, rows, cols, categories):
        """The full derive's entries in ``(rows x all) | (reached x cols)``,
        reached rows having affinity in one of ``categories``."""
        users = full.users
        reached = (A.values_view()[:, list(categories)] > 0.0).any(axis=1)
        keep = {
            (s, t)
            for s, t in full.support()
            if users.position(s) in rows
            or (users.position(t) in cols and reached[users.position(s)])
        }
        return full.restrict_to(keep)

    @staticmethod
    def _as_matrix(region):
        return UserPairMatrix.from_flat_sorted(region.users, *region.keys_and_values())

    @pytest.mark.parametrize(
        "rows,cols,categories",
        [
            ((2, 7), (4,), (0, 1, 2)),          # single col exercises the padded path
            ((0,), (), (0, 1, 2)),              # rows only
            ((), (3, 8, 11), (0, 1, 2)),        # cols only
            ((1, 2, 3, 4), (1, 2), (0, 1, 2)),  # overlapping rows and cols
            ((2, 7), (4, 5, 9), (1,)),          # a block over one category's rows
            ((), (3, 8), (0, 2)),
            ((5,), (3, 8), ()),                 # no category moved: no block
        ],
    )
    def test_bitwise_equals_full_derive_on_region(self, rows, cols, categories):
        A, E = self._random_matrices(23)
        deriver = TrustDeriver()
        full = deriver.derive(A, E)
        region = self._as_matrix(
            deriver.derive_region(
                A,
                E,
                rows=np.asarray(rows, dtype=np.int64),
                cols=np.asarray(cols, dtype=np.int64),
                categories=np.asarray(categories, dtype=np.int64),
            )
        )
        expected = self._region_support(full, A, set(rows), set(cols), categories)
        assert region.support() == expected.support()
        for s, t, v in region.entries():
            # bitwise: exact float equality, no tolerance
            assert v == full.get(s, t)

    def test_column_block_covers_the_other_active_rows(self):
        A, E = self._random_matrices(23)
        rows = np.array([2, 7], dtype=np.int64)
        cols = np.array([4, 7, 9], dtype=np.int64)
        region = TrustDeriver().derive_region(
            A, E, rows=rows, cols=cols, categories=np.arange(3)
        )
        active = np.flatnonzero(A.values_view().sum(axis=1) > 0.0)
        assert region.rows.tolist() == [2, 7] and region.cols.tolist() == [4, 7, 9]
        assert region.block_rows.tolist() == sorted(set(active.tolist()) - {2, 7})
        assert region.mask.shape == (region.block_rows.size, 3)
        assert region.block_vals.size == np.count_nonzero(region.mask)
        # the diagonal is never stored: a block row that is a changed column
        for k, row in enumerate(region.block_rows.tolist()):
            if row in (4, 9):
                assert not region.mask[k, [4, 7, 9].index(row)]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_rows=st.integers(min_value=0, max_value=5),
        num_cols=st.integers(min_value=0, max_value=6),
        categories=st.sets(st.integers(min_value=0, max_value=3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_rows_are_the_reached_active_rows(self, seed, num_rows, num_cols, categories):
        """``block_rows`` is exactly the active rows outside ``rows`` with
        affinity in one of ``categories`` (none when ``cols`` is empty)."""
        A, E = self._random_matrices(seed % 1000, n=17, c=4)
        rng = np.random.default_rng(seed)
        rows = rng.choice(17, size=num_rows, replace=False)
        cols = rng.choice(17, size=num_cols, replace=False)
        region = TrustDeriver().derive_region(
            A, E, rows=rows, cols=cols, categories=np.array(sorted(categories), dtype=np.int64)
        )
        a = A.values_view()
        expected = [
            i
            for i in range(17)
            if num_cols
            and i not in rows
            and a[i].sum() > 0.0
            and any(a[i, c] > 0.0 for c in categories)
        ]
        assert region.block_rows.tolist() == expected
        assert region.mask.shape == (len(expected), num_cols)

    def test_empty_region_is_empty(self):
        A, E = self._random_matrices(3)
        region = TrustDeriver().derive_region(
            A,
            E,
            rows=np.array([], dtype=np.int64),
            cols=np.array([], dtype=np.int64),
            categories=np.array([], dtype=np.int64),
        )
        assert region.num_entries() == 0

    def test_block_size_does_not_change_region(self):
        A, E = self._random_matrices(9)
        rows = np.array([1, 5, 6], dtype=np.int64)
        cols = np.array([0, 2], dtype=np.int64)
        every = np.arange(3)
        small = TrustDeriver(block_size=2).derive_region(
            A, E, rows=rows, cols=cols, categories=every
        )
        large = TrustDeriver(block_size=1000).derive_region(
            A, E, rows=rows, cols=cols, categories=every
        )
        for name in ("row_keys", "row_vals", "block_rows", "mask", "block_vals"):
            assert np.array_equal(getattr(small, name), getattr(large, name))

    def test_out_of_range_positions_rejected(self):
        A, E = self._random_matrices(1, n=4)
        none = np.array([], dtype=np.int64)
        with pytest.raises(ValidationError, match="rows positions"):
            TrustDeriver().derive_region(A, E, rows=np.array([4]), cols=none, categories=none)
        with pytest.raises(ValidationError, match="cols positions"):
            TrustDeriver().derive_region(A, E, rows=none, cols=np.array([-1]), categories=none)
        with pytest.raises(ValidationError, match="categories positions"):
            TrustDeriver().derive_region(A, E, rows=none, cols=none, categories=np.array([3]))
