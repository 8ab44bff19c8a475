"""Tests for the bulk (array-backed) UserPairMatrix APIs."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix


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
        region = UserPairMatrix.from_arrays(users, [1], [0], [0.75])
        built = [
            UserPairMatrix(users),
            base,
            UserPairMatrix.from_pairs(users, [("u0", "u1", 0.5)]),
            UserPairMatrix.from_csr(base.to_csr(), users),
            UserPairMatrix.from_flat_sorted(users, np.array([1, 7]), np.array([0.5, 0.0])),
            base.restrict_to({("u0", "u2")}),
            base.patched(users, region, rows=np.array([1]), cols=np.array([0]))[0],
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
    return UserPairMatrix.from_arrays(users, r, c, dense[r, c])


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
        patched, kept = old.patched(
            users, region, rows=np.array(sorted(rows)), cols=np.array(sorted(cols))
        )
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
        region = UserPairMatrix.from_pairs(grown, [("u5", "u0", 0.75), ("u0", "u5", 0.1)])
        patched, kept = old.patched(
            grown, region, rows=np.array([5]), cols=np.array([5])
        )
        assert kept == 2
        assert patched.users is grown
        assert patched.get("u0", "u1") == 0.5
        assert patched.get("u5", "u0") == 0.75
        assert patched.get("u0", "u5") == 0.1

    def test_region_on_wrong_axis_rejected(self, users):
        other = LabelIndex(["a", "b", "c", "d", "e"])
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = UserPairMatrix(other)
        with pytest.raises(ValidationError, match="region"):
            old.patched(users, region, rows=np.array([0]), cols=np.array([0]))

    def test_non_extension_axis_rejected(self, users):
        shrunk = LabelIndex(["u0", "u1"])
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = UserPairMatrix(shrunk)
        with pytest.raises(ValidationError, match="extend"):
            old.patched(shrunk, region, rows=np.array([0]), cols=np.array([0]))

    def test_out_of_range_positions_rejected(self, users):
        old = UserPairMatrix.from_arrays(users, [0], [1], [0.5])
        region = UserPairMatrix(users)
        with pytest.raises(ValidationError, match="rows positions"):
            old.patched(users, region, rows=np.array([9]), cols=np.array([], dtype=np.int64))

    def test_values_only_version_shares_structure_not_values(self, users):
        old = UserPairMatrix.from_arrays(users, [0, 1, 2], [1, 2, 3], [0.5, 0.4, 0.25])
        region = UserPairMatrix.from_arrays(users, [1], [2], [0.9])
        patched, kept = old.patched(
            users, region, rows=np.array([1]), cols=np.empty(0, dtype=np.int64)
        )
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
        collide with a kept key and break the sorted-unique keys."""
        old = UserPairMatrix.from_arrays(users, [0, 1, 2], [1, 2, 3], [0.5, 0.4, 0.25])
        no_cols = np.empty(0, dtype=np.int64)
        # one stray entry beside the changed row's: the merge path
        region = UserPairMatrix.from_arrays(users, [1, 2], [2, 3], [0.9, 0.8])
        with pytest.raises(ValidationError, match="changed rows or columns"):
            old.patched(users, region, rows=np.array([1]), cols=no_cols)
        # as many entries as the changed row holds, one of them stray
        region = UserPairMatrix.from_arrays(users, [2], [3], [0.8])
        with pytest.raises(ValidationError, match="changed rows or columns"):
            old.patched(users, region, rows=np.array([1]), cols=no_cols)


class TestPatchedEdgeCases:
    def _dense(self, m, n):
        out = np.zeros((n, n))
        for s, t, v in m.entries():
            out[m.users.position(s), m.users.position(t)] = v
        return out

    def test_empty_patch_is_identity(self, users):
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        empty = np.empty(0, dtype=np.int64)
        patched, kept = old.patched(
            users, UserPairMatrix(users), rows=empty, cols=empty
        )
        assert patched == old
        assert kept == old.num_entries()

    def test_empty_region_with_changed_rows_clears_them(self, users):
        """A region with no entries means the changed rows became zero."""
        old = UserPairMatrix.from_arrays(users, [0, 2], [1, 3], [0.5, 0.25])
        patched, kept = old.patched(
            users,
            UserPairMatrix(users),
            rows=np.array([0]),
            cols=np.empty(0, dtype=np.int64),
        )
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
        all_positions = np.arange(n, dtype=np.int64)
        region = _region_of(new_dense, users, set(range(n)), set(range(n)))
        patched, kept = old.patched(
            users, region, rows=all_positions, cols=all_positions
        )
        np.testing.assert_array_equal(self._dense(patched, n), new_dense)
        assert kept == 0  # nothing survives a whole-matrix patch

    def test_region_value_wins_over_old_at_same_key(self, users):
        """A key present in both old and region takes the region's value."""
        old = UserPairMatrix.from_arrays(users, [1, 2], [2, 3], [0.5, 0.25])
        region = UserPairMatrix.from_pairs(users, [("u1", "u2", 0.9)])
        patched, kept = old.patched(
            users, region, rows=np.array([1]), cols=np.empty(0, dtype=np.int64)
        )
        assert patched.get("u1", "u2") == 0.9
        assert patched.get("u2", "u3") == 0.25
        assert kept == 1

    def test_overlapping_scatter_keys_within_region_last_write_wins(self, users):
        """A region built from a pair given twice holds the later value,
        and that is the one the patch scatters."""
        old = UserPairMatrix.from_arrays(users, [0], [2], [0.1])
        # the second triple replaces the first
        region = UserPairMatrix.from_pairs(
            users, [("u1", "u2", 0.3), ("u1", "u2", 0.7)]
        )
        patched, _ = old.patched(
            users, region, rows=np.array([1]), cols=np.empty(0, dtype=np.int64)
        )
        assert patched.get("u1", "u2") == 0.7
        assert patched.num_entries() == 2
