"""Tests for the bulk (array-backed) UserPairMatrix APIs."""

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix
from repro.matrix.pair import PairRegion
from repro.obs.recorder import Recorder

NO_POSITIONS = np.empty(0, dtype=np.int64)


def region_from(users, rows, cols, entries=()):
    """A region through the validating constructor, from ``(i, j, value)``."""
    entries = list(entries)
    return PairRegion.from_entries(
        users,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        sources=[i for i, _, _ in entries],
        targets=[j for _, j, _ in entries],
        values=[v for _, _, v in entries],
    )


@pytest.fixture
def users():
    return LabelIndex([f"u{i}" for i in range(5)])


class TestSetBlock:
    """:meth:`from_arrays`: its input checks and its one sort and dedup."""

    def test_bulk_equals_pointwise(self, users):
        rows = np.array([0, 1, 3])
        cols = np.array([2, 0, 4])
        values = np.array([0.5, 0.25, 1.0])
        bulk = UserPairMatrix.from_arrays(users, rows, cols, values)
        labels = users.labels
        pointwise = UserPairMatrix.from_pairs(
            users, [(labels[i], labels[j], float(v)) for i, j, v in zip(rows, cols, values)]
        )
        assert bulk == pointwise

    def test_scalar_broadcast(self, users):
        m = UserPairMatrix.from_arrays(users, [0, 1], [1, 2], 1.0)
        assert m.get("u0", "u1") == 1.0
        assert m.get("u1", "u2") == 1.0

    def test_duplicate_keys_keep_last(self, users):
        m = UserPairMatrix.from_arrays(users, [0, 0], [1, 1], [0.2, 0.9])
        assert m.num_entries() == 1
        assert m.get("u0", "u1") == pytest.approx(0.9)
        # interleaved with other pairs, the last of three still wins
        m = UserPairMatrix.from_arrays(
            users, [0, 4, 0, 2, 0], [1, 0, 1, 2, 1], [0.2, 0.5, 0.9, 0.0, 0.4]
        )
        assert m.num_entries() == 3
        assert m.get("u0", "u1") == 0.4
        assert m.entries_arrays()[2].tolist() == [0.4, 0.0, 0.5]

    def test_explicit_zero_kept(self, users):
        m = UserPairMatrix.from_arrays(users, [2], [3], [0.0])
        assert m.contains("u2", "u3")
        assert m.to_csr().nnz == 1

    def test_out_of_range_rejected(self, users):
        with pytest.raises(ValidationError, match="positions"):
            UserPairMatrix.from_arrays(users, [5], [0], [1.0])
        with pytest.raises(ValidationError, match="positions"):
            UserPairMatrix.from_arrays(users, [0], [-1], [1.0])

    def test_non_finite_rejected(self, users):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="finite"):
                UserPairMatrix.from_arrays(users, [0], [1], [value])
        # also when a later duplicate would replace it
        with pytest.raises(ValidationError, match="finite"):
            UserPairMatrix.from_arrays(users, [0, 0], [1, 1], [np.nan, 0.5])
        with pytest.raises(ValidationError, match="finite"):
            UserPairMatrix.from_arrays(users, [0, 1], [1, 2], np.inf)

    def test_shape_mismatch_rejected(self, users):
        with pytest.raises(ValidationError, match="equal-length"):
            UserPairMatrix.from_arrays(users, [0, 1], [1], [0.5])
        with pytest.raises(ValidationError, match="equal-length"):
            UserPairMatrix.from_arrays(users, [[0, 1]], [[1, 2]], [[0.5, 0.6]])

    def test_values_length_mismatch_rejected(self, users):
        with pytest.raises(ValidationError, match="values shape"):
            UserPairMatrix.from_arrays(users, [0, 1], [1, 2], [0.5, 0.6, 0.7])

    def test_restrict_to_ignores_foreign_labels(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        restricted = m.restrict_to({("u0", "u1"), ("ghost", "u1"), ("u0", "elsewhere")})
        assert restricted.support() == {("u0", "u1")}


class TestEntriesArrays:
    def test_row_major_order(self, users):
        m = UserPairMatrix.from_pairs(
            users, [("u3", "u0", 0.3), ("u0", "u4", 0.4), ("u0", "u2", 0.2)]
        )
        rows, cols, values = m.entries_arrays()
        assert rows.tolist() == [0, 0, 3]
        assert cols.tolist() == [2, 4, 0]
        assert values.tolist() == pytest.approx([0.2, 0.4, 0.3])

    def test_roundtrip(self, users):
        rng = np.random.default_rng(0)
        m = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 12), rng.integers(0, 5, 12), rng.random(12)
        )
        rebuilt = UserPairMatrix.from_arrays(users, *m.entries_arrays())
        assert rebuilt == m


class TestSupportKeys:
    def test_keys_match_label_support(self, users):
        m = UserPairMatrix.from_arrays(users, [1, 4], [2, 0], [0.5, 0.5])
        keys = m.support_keys()
        n = len(users)
        pairs = {(users.label(int(k) // n), users.label(int(k) % n)) for k in keys}
        assert pairs == m.support()

    def test_keys_sorted_unique(self, users):
        m = UserPairMatrix.from_arrays(users, [3, 0, 3], [1, 2, 1], [1.0, 1.0, 2.0])
        keys = m.support_keys()
        assert keys.tolist() == sorted(set(keys.tolist()))
        assert len(keys) == 2

    def test_set_ops_agree_with_label_sets(self, users):
        rng = np.random.default_rng(1)
        a = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 10), rng.integers(0, 5, 10), 1.0
        )
        b = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 10), rng.integers(0, 5, 10), 1.0
        )
        assert a.intersect_support(b) == a.support() & b.support()
        assert a.subtract_support(b) == a.support() - b.support()


class TestCsrCache:
    def test_cached_instance_reused(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        assert m.csr() is m.csr()

    def test_cached_csr_is_read_only(self, users):
        m = UserPairMatrix.from_arrays(users, [0, 1], [1, 2], [0.5, 0.25])
        for array in (m.csr().data, m.csr().indices, m.csr().indptr):
            with pytest.raises(ValueError):
                array[0] = 9
        assert np.all(m.to_csr().data == m.csr().data)

    def test_to_csr_returns_mutable_copy(self, users):
        m = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        copy = m.to_csr()
        copy.data[0] = 99.0
        assert m.get("u0", "u1") == pytest.approx(0.5)
        assert m.csr()[0, 1] == pytest.approx(0.5)

    def test_csr_matches_to_csr(self, users):
        rng = np.random.default_rng(2)
        m = UserPairMatrix.from_arrays(
            users, rng.integers(0, 5, 15), rng.integers(0, 5, 15), rng.random(15)
        )
        assert (m.csr() != m.to_csr()).nnz == 0


class TestBuiltWhole:
    """Every constructor hands back a matrix whose arrays nothing can write."""

    def test_every_constructor_holds_read_only_arrays(self, users):
        base = UserPairMatrix.from_arrays(users, [0, 1, 3], [2, 0, 4], [0.5, 0.25, 1.0])
        region = region_from(users, [1], [0], [(1, 0, 0.75)])
        built = [
            UserPairMatrix(users),
            base,
            UserPairMatrix.from_pairs(users, [("u0", "u1", 0.5)]),
            UserPairMatrix.from_csr(base.to_csr(), users),
            UserPairMatrix.from_flat_sorted(users, np.array([1, 7]), np.array([0.5, 0.0])),
            base.restrict_to({("u0", "u2")}),
            base.patched(users, region)[0],
        ]
        for matrix in built:
            csr = matrix.csr()
            for array in (matrix._keys, matrix._vals, csr.data, csr.indices, csr.indptr):
                assert not array.flags.writeable
            for writer in ("set", "set_block", "accumulate", "discard"):
                assert not hasattr(matrix, writer)

    def test_from_flat_sorted_copies_its_input(self, users):
        keys, values = np.array([1, 7]), np.array([0.5, 0.25])
        m = UserPairMatrix.from_flat_sorted(users, keys, values)
        keys[0], values[0] = 3, 9.0
        assert keys.flags.writeable and values.flags.writeable
        assert m.support_keys().tolist() == [1, 7] and m.values().tolist() == [0.5, 0.25]


class TestFromFlatSorted:
    def test_matches_from_arrays(self, users):
        n = len(users)
        rows = np.array([0, 1, 3])
        cols = np.array([2, 0, 4])
        values = np.array([0.5, 0.25, 1.0])
        keys = np.sort(rows * n + cols)
        order = np.argsort(rows * n + cols, kind="stable")
        fast = UserPairMatrix.from_flat_sorted(users, keys, values[order])
        assert fast == UserPairMatrix.from_arrays(users, rows, cols, values)

    def test_empty_keys_ok(self, users):
        m = UserPairMatrix.from_flat_sorted(
            users, np.array([], dtype=np.int64), np.array([], dtype=np.float64)
        )
        assert m.num_entries() == 0

    def test_unsorted_keys_rejected(self, users):
        with pytest.raises(ValidationError, match="strictly increasing"):
            UserPairMatrix.from_flat_sorted(users, np.array([3, 1]), np.array([0.5, 0.5]))

    def test_duplicate_keys_rejected(self, users):
        with pytest.raises(ValidationError, match="strictly increasing"):
            UserPairMatrix.from_flat_sorted(users, np.array([3, 3]), np.array([0.5, 0.5]))

    def test_out_of_range_keys_rejected(self, users):
        n = len(users)
        with pytest.raises(ValidationError, match="keys must lie"):
            UserPairMatrix.from_flat_sorted(users, np.array([n * n]), np.array([0.5]))
        with pytest.raises(ValidationError, match="keys must lie"):
            UserPairMatrix.from_flat_sorted(users, np.array([-1]), np.array([0.5]))

    def test_shape_mismatch_rejected(self, users):
        with pytest.raises(ValidationError, match="equal-length"):
            UserPairMatrix.from_flat_sorted(users, np.array([1, 2]), np.array([0.5]))

    def test_non_finite_rejected(self, users):
        with pytest.raises(ValidationError, match="finite"):
            UserPairMatrix.from_flat_sorted(users, np.array([1]), np.array([np.inf]))


def _region_of(dense, users, rows, cols):
    """All nonzero entries of ``dense`` whose row or col position changed."""
    n = dense.shape[0]
    in_region = np.zeros((n, n), dtype=bool)
    in_region[sorted(rows), :] = True
    in_region[:, sorted(cols)] = True
    r, c = np.nonzero(in_region & (dense != 0.0))
    return PairRegion.from_entries(
        users,
        rows=np.array(sorted(rows), dtype=np.int64),
        cols=np.array(sorted(cols), dtype=np.int64),
        sources=r,
        targets=c,
        values=dense[r, c],
    )


class TestPairRegion:
    """:meth:`PairRegion.from_entries`, the one validating constructor."""

    def test_splits_entries_into_rows_and_a_column_block(self, users):
        n = len(users)
        region = region_from(
            users, [3, 1], [2], [(1, 4, 0.5), (0, 2, 0.25), (3, 2, 0.75), (4, 2, 1.0)]
        )
        assert region.rows.tolist() == [1, 3] and region.cols.tolist() == [2]
        assert region.row_keys.tolist() == [1 * n + 4, 3 * n + 2]
        assert region.row_vals.tolist() == [0.5, 0.75]
        # the block covers every row outside ``rows``
        assert region.block_rows.tolist() == [0, 2, 4]
        assert region.mask.tolist() == [[True], [False], [True]]
        assert region.block_vals.tolist() == [0.25, 1.0]
        assert region.num_entries() == 4
        keys, vals = region.keys_and_values()
        assert keys.tolist() == [0 * n + 2, 1 * n + 4, 3 * n + 2, 4 * n + 2]
        assert vals.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_a_pair_given_twice_keeps_its_last_value(self, users):
        region = region_from(users, [1], [0], [(1, 2, 0.3), (2, 0, 0.1), (1, 2, 0.7)])
        assert region.row_vals.tolist() == [0.7]
        assert region.block_vals.tolist() == [0.1]

    def test_row_slice_keeps_the_rows_of_a_block(self, users):
        n = len(users)
        region = region_from(
            users, [1, 3], [0, 4], [(1, 2, 0.5), (3, 0, 0.2), (2, 4, 0.25), (4, 0, 1.0)]
        )
        lower, upper = region.row_slice(0, 3), region.row_slice(3, 5)
        assert lower.rows.tolist() == [1] and upper.rows.tolist() == [3]
        assert lower.row_keys.tolist() == [1 * n + 2]
        assert upper.row_keys.tolist() == [3 * n + 0]
        assert lower.block_rows.tolist() == [0, 2] and upper.block_rows.tolist() == [4]
        assert lower.block_vals.tolist() == [0.25] and upper.block_vals.tolist() == [1.0]
        assert lower.mask.tolist() == [[False, False], [False, True]]
        assert upper.mask.tolist() == [[True, False]]
        for part in (lower, upper):
            assert part.cols.tolist() == [0, 4]
        whole = np.concatenate([lower.keys_and_values()[0], upper.keys_and_values()[0]])
        assert whole.tolist() == region.keys_and_values()[0].tolist()

    def test_entries_checked_as_from_arrays_checks_them(self, users):
        with pytest.raises(ValidationError, match="finite"):
            region_from(users, [1], NO_POSITIONS, [(1, 2, np.inf)])
        with pytest.raises(ValidationError, match="equal-length"):
            PairRegion.from_entries(
                users, rows=[1], cols=[], sources=[1, 1], targets=[2], values=[0.5]
            )


class TestPatched:
    def _dense(self, m, n):
        out = np.zeros((n, n))
        for s, t, v in m.entries():
            out[m.users.position(s), m.users.position(t)] = v
        return out

    def test_patch_equals_dense_scatter(self, users):
        n = len(users)
        rng = np.random.default_rng(5)
        old_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.6)).round(3)
        old = UserPairMatrix.from_arrays(users, *np.nonzero(old_dense), old_dense[np.nonzero(old_dense)])
        new_dense = old_dense.copy()
        rows, cols = {1, 3}, {0}
        for i in rows:
            new_dense[i, :] = (rng.random(n) * (rng.random(n) < 0.7)).round(3)
        for j in cols:
            new_dense[:, j] = (rng.random(n) * (rng.random(n) < 0.7)).round(3)
        region = _region_of(new_dense, users, rows, cols)
        patched, kept = old.patched(users, region)
        np.testing.assert_array_equal(self._dense(patched, n), new_dense)
        # kept = old entries outside the changed region
        outside = sum(
            1 for s, t, _ in old.entries()
            if old.users.position(s) not in rows and old.users.position(t) not in cols
        )
        assert kept == outside

    def test_patch_with_user_growth(self, users):
        grown = LabelIndex(list(users.labels) + ["u5"])
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        region = region_from(grown, [5], [5], [(5, 0, 0.75), (0, 5, 0.1)])
        patched, kept = old.patched(grown, region)
        assert kept == 2
        assert patched.users is grown
        assert patched.get("u0", "u1") == 0.5
        assert patched.get("u5", "u0") == 0.75
        assert patched.get("u0", "u5") == 0.1

    def test_region_on_wrong_axis_rejected(self, users):
        other = LabelIndex(["a", "b", "c", "d", "e"])
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = region_from(other, [0], [0])
        with pytest.raises(ValidationError, match="region"):
            old.patched(users, region)

    def test_non_extension_axis_rejected(self, users):
        shrunk = LabelIndex(["u0", "u1"])
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = region_from(shrunk, [0], [0])
        with pytest.raises(ValidationError, match="extend"):
            old.patched(shrunk, region)

    def test_values_only_version_shares_structure_not_values(self, users):
        old = UserPairMatrix.from_arrays(users, [0, 1, 2], [1, 2, 3], [0.5, 0.4, 0.25])
        region = region_from(users, [1], NO_POSITIONS, [(1, 2, 0.9)])
        patched, kept = old.patched(users, region)
        assert kept == 2
        held = patched.csr()
        assert np.shares_memory(held.indptr, old.csr().indptr)
        assert np.shares_memory(held.indices, old.csr().indices)
        assert not np.shares_memory(held.data, old.csr().data)
        # the new values are the new version's alone
        assert patched.get("u1", "u2") == 0.9 and held[1, 2] == 0.9
        assert old.get("u1", "u2") == 0.4 and old.csr()[1, 2] == 0.4

    def test_region_entry_outside_region_rejected(self, users):
        """A region key with neither its row nor its column changed would
        collide with a kept key; the region's constructor rejects it, so no
        patch ever sees one."""
        with pytest.raises(ValidationError, match="changed rows or columns"):
            region_from(users, [1], NO_POSITIONS, [(1, 2, 0.9), (2, 3, 0.8)])
        with pytest.raises(ValidationError, match="changed rows or columns"):
            region_from(users, [1], NO_POSITIONS, [(2, 3, 0.8)])
        with pytest.raises(ValidationError, match="changed rows or columns"):
            region_from(users, [1], [0], [(1, 2, 0.9), (2, 3, 0.8)])

    def test_out_of_range_positions_rejected(self, users):
        """The region's constructor holds its rows and cols to its axis."""
        with pytest.raises(ValidationError, match="rows positions"):
            region_from(users, [9], NO_POSITIONS)
        with pytest.raises(ValidationError, match="cols positions"):
            region_from(users, NO_POSITIONS, [-1])
        with pytest.raises(ValidationError, match="positions must lie"):
            region_from(users, [1], NO_POSITIONS, [(1, 5, 0.5)])


class TestPatchedEdgeCases:
    def _dense(self, m, n):
        out = np.zeros((n, n))
        for s, t, v in m.entries():
            out[m.users.position(s), m.users.position(t)] = v
        return out

    def test_empty_patch_is_identity(self, users):
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        patched, kept = old.patched(users, region_from(users, NO_POSITIONS, NO_POSITIONS))
        assert patched == old
        assert kept == old.num_entries()

    def test_empty_region_with_changed_rows_clears_them(self, users):
        """A region with no entries means the changed rows became zero."""
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        patched, kept = old.patched(users, region_from(users, [0], NO_POSITIONS))
        assert not patched.contains("u0", "u1")
        assert patched.get("u2", "u3") == 0.25
        assert kept == 1

    def test_whole_matrix_region_replaces_everything(self, users):
        n = len(users)
        rng = np.random.default_rng(8)
        old_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.6)).round(3)
        new_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.6)).round(3)
        idx = np.nonzero(old_dense)
        old = UserPairMatrix.from_arrays(users, *idx, old_dense[idx])
        region = _region_of(new_dense, users, set(range(n)), set(range(n)))
        patched, kept = old.patched(users, region)
        np.testing.assert_array_equal(self._dense(patched, n), new_dense)
        assert kept == 0  # nothing survives a whole-matrix patch

    def test_row_outside_rows_and_block_keeps_its_entries_in_the_columns(self, users):
        """The region says nothing about a row outside ``rows`` and
        ``block_rows``: its base entries in a changed column are kept, both
        when the support held (values only) and through the merge."""
        n = len(users)
        old = UserPairMatrix.from_arrays(users, [0, 4, 4], [0, 0, 1], [0.5, 0.25, 0.75])

        def patch(mask, block_vals):
            region = PairRegion(
                users,
                rows=np.array([1]),
                cols=np.array([0]),
                row_keys=NO_POSITIONS,
                row_vals=np.empty(0),
                block_rows=np.array([0, 2, 3]),
                mask=np.array(mask),
                block_vals=np.array(block_vals),
            )
            recorder = Recorder()
            with obs.use_recorder(recorder):
                patched, kept = old.patched(users, region)
            return patched, kept, recorder.counters

        # u0's entry in column 0 takes a new value; u4's two entries stay
        patched, kept, counters = patch([[True], [False], [False]], [0.6])
        assert counters == {"matrix.patch.values_only": 1}
        assert patched.support_keys().tolist() == [0, 4 * n, 4 * n + 1]
        assert patched.values().tolist() == [0.6, 0.25, 0.75]
        assert kept == 2
        # u2 gains an entry in column 0: the merge keeps u4's entries too
        patched, kept, counters = patch([[True], [True], [False]], [0.6, 0.125])
        assert counters == {"matrix.patch.merged": 1}
        assert patched.support_keys().tolist() == [0, 2 * n, 4 * n, 4 * n + 1]
        assert patched.values().tolist() == [0.6, 0.125, 0.25, 0.75]
        assert kept == 2

    def test_region_value_wins_over_old_at_same_key(self, users):
        """A key present in both old and region takes the region's value."""
        old = UserPairMatrix.from_arrays(users, [1, 2], [2, 3], [0.5, 0.25])
        region = region_from(users, [1], NO_POSITIONS, [(1, 2, 0.9)])
        patched, kept = old.patched(users, region)
        assert patched.get("u1", "u2") == 0.9
        assert patched.get("u2", "u3") == 0.25
        assert kept == 1

    def test_overlapping_scatter_keys_within_region_last_write_wins(self, users):
        """A region built from a pair given twice holds the later value,
        and that is the one the patch scatters."""
        old = UserPairMatrix.from_arrays(users, [0], [2], [0.1])
        # the second triple replaces the first
        region = region_from(users, [1], NO_POSITIONS, [(1, 2, 0.3), (1, 2, 0.7)])
        patched, _ = old.patched(users, region)
        assert patched.get("u1", "u2") == 0.7
        assert patched.num_entries() == 2
