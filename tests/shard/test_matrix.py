"""Tests for the sharded out-of-core pair matrix."""

import os

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.matrix.labels import LabelIndex
from repro.matrix.pair import PairRegion
from repro.obs.recorder import Recorder
from repro.shard import ShardLayout, ShardStore
from repro.shard.matrix import ENTRY_BYTES, ShardedPairMatrix


@pytest.fixture
def users():
    return LabelIndex([f"u{i}" for i in range(8)])


def region_from(users, rows, cols, sources=(), targets=(), values=()):
    """A region through the validating constructor."""
    return PairRegion.from_entries(
        users, rows=rows, cols=cols, sources=sources, targets=targets, values=values
    )


def random_pair(users, seed=3, density=0.4):
    """A matching (UserPairMatrix, ShardedPairMatrix) pair of random content."""
    n = len(users)
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    rows, cols = np.nonzero(dense)
    flat = UserPairMatrix.from_arrays(users, rows, cols, dense[rows, cols])
    sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3)
    return flat, sharded


class TestWrites:
    def test_matches_user_pair_matrix_semantics(self, users):
        flat, sharded = random_pair(users)
        assert sharded == flat
        np.testing.assert_array_equal(sharded.support_keys(), flat.support_keys())
        np.testing.assert_array_equal(sharded.values(), flat.values())
        for a, b in zip(sharded.entries_arrays(), flat.entries_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_layout_must_match_axis(self, users):
        with pytest.raises(ValidationError, match="layout"):
            ShardedPairMatrix(users, ShardLayout.even(5, 2))


class TestSetShardEntries:
    def test_replaces_shard_content(self, users):
        n = len(users)
        m = ShardedPairMatrix.from_pair_matrix(
            UserPairMatrix.from_arrays(users, [1], [1], [0.9]),
            ShardLayout(n_rows=n, bounds=(0, 4, 8)),
        )
        keys = np.asarray([0 * n + 1, 2 * n + 3], dtype=np.int64)
        m.set_shard_entries(0, keys, np.asarray([0.5, 0.25]))
        assert m.get("u0", "u1") == 0.5
        assert m.get("u2", "u3") == 0.25
        assert not m.contains("u1", "u1")  # the earlier content is replaced

    def test_rejects_keys_outside_shard(self, users):
        n = len(users)
        m = ShardedPairMatrix(users, ShardLayout(n_rows=n, bounds=(0, 4, 8)))
        with pytest.raises(ValidationError, match="keys must lie"):
            m.set_shard_entries(0, np.asarray([5 * n], dtype=np.int64), np.asarray([0.5]))

    def test_rejects_unsorted_keys(self, users):
        n = len(users)
        m = ShardedPairMatrix(users, ShardLayout(n_rows=n, bounds=(0, 4, 8)))
        with pytest.raises(ValidationError, match="strictly increasing"):
            m.set_shard_entries(
                0, np.asarray([5, 2], dtype=np.int64), np.asarray([0.5, 0.6])
            )


class TestShardViews:
    def test_shard_csr_stacks_to_full_matrix(self, users):
        flat, sharded = random_pair(users)
        from scipy import sparse

        stacked = sparse.vstack(
            [sharded.shard_csr(s) for s in range(sharded.num_shards)]
        ).toarray()
        np.testing.assert_array_equal(stacked, flat.csr().toarray())

    def test_shard_entries_cover_key_ranges(self, users):
        _, sharded = random_pair(users)
        n = len(users)
        for s in range(sharded.num_shards):
            keys, vals = sharded.shard_entries(s)
            lo, hi = sharded.layout.key_range(s, n)
            assert keys.shape == vals.shape
            if keys.shape[0]:
                assert lo <= int(keys[0]) and int(keys[-1]) < hi

    def test_density_matches_flat(self, users):
        flat, sharded = random_pair(users)
        assert sharded.density() == flat.density()

    def test_to_pair_matrix_round_trip(self, users):
        flat, sharded = random_pair(users)
        assert sharded.to_pair_matrix() == flat

    def test_equality_is_symmetric_across_backends(self, users):
        flat, sharded = random_pair(users)
        assert sharded == flat
        assert flat == sharded  # UserPairMatrix.__eq__ returns NotImplemented

    def test_equality_requires_the_same_user_axis(self, users):
        flat, sharded = random_pair(users)
        renamed = UserPairMatrix.from_flat_sorted(
            [f"v{i}" for i in range(len(users))], flat.support_keys(), flat.values()
        )
        assert sharded != renamed
        assert sharded != ShardedPairMatrix.from_pair_matrix(renamed, num_shards=3)

    def test_unhashable(self, users):
        _, sharded = random_pair(users)
        with pytest.raises(TypeError, match="unhashable"):
            hash(sharded)


class TestPersistence:
    def test_flush_open_round_trip(self, users, tmp_path):
        flat, _ = random_pair(users)
        store = ShardStore(tmp_path / "m")
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3, store=store)
        manifest = sharded.flush(epoch=7)
        assert manifest["epoch"] == 7
        assert manifest["entries"] == flat.num_entries()
        reopened = ShardedPairMatrix.open(store)
        assert reopened == flat
        assert reopened.users == users

    def test_open_reads_are_memory_mapped(self, users, tmp_path):
        flat, _ = random_pair(users)
        store = ShardStore(tmp_path / "m")
        ShardedPairMatrix.from_pair_matrix(flat, num_shards=2, store=store).flush()
        reopened = ShardedPairMatrix.open(store)
        keys, _vals = reopened.shard_entries(0)
        assert isinstance(keys, np.memmap)

    def test_flush_without_store_rejected(self, users):
        m = ShardedPairMatrix(users, num_shards=2)
        with pytest.raises(ValidationError, match="no store"):
            m.flush()

    def test_flushed_store_verifies(self, users, tmp_path):
        flat, _ = random_pair(users)
        store = ShardStore(tmp_path / "m")
        ShardedPairMatrix.from_pair_matrix(flat, num_shards=2, store=store).flush()
        assert store.verify() == []

    def test_corruption_fails_verification(self, users, tmp_path):
        flat, _ = random_pair(users)
        store = ShardStore(tmp_path / "m")
        ShardedPairMatrix.from_pair_matrix(flat, num_shards=2, store=store).flush()
        with open(store.path("shard_00000.vals.npy"), "r+b") as handle:
            handle.seek(-1, 2)
            handle.write(b"\x13")
        assert store.verify() == ["shard_00000.vals.npy"]

    def test_spill_keeps_result_identical(self, users):
        flat, _ = random_pair(users)
        spilled = ShardedPairMatrix.from_pair_matrix(
            flat, num_shards=3, spill_bytes=ENTRY_BYTES
        )
        assert spilled == flat
        assert spilled.store is not None  # auto temp store

    def test_spill_budget_must_be_positive(self, users):
        with pytest.raises(ValidationError, match="spill_bytes"):
            ShardedPairMatrix(users, num_shards=2, spill_bytes=0)


class TestPatchWith:
    def _dense(self, matrix, n):
        out = np.zeros((n, n))
        rows, cols, vals = matrix.entries_arrays()
        out[rows, cols] = vals
        return out

    def test_patch_matches_user_pair_matrix(self, users):
        n = len(users)
        rng = np.random.default_rng(9)
        old_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.5)).round(3)
        np.fill_diagonal(old_dense, 0.0)
        rows_idx, cols_idx = np.nonzero(old_dense)
        flat = UserPairMatrix.from_arrays(
            users, rows_idx, cols_idx, old_dense[rows_idx, cols_idx]
        )
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3)
        rows, cols = np.asarray([1, 6]), np.asarray([2])
        region = region_from(users, rows, cols, [1, 6, 0, 1], [3, 2, 2, 2], [0.9, 0.8, 0.7, 0.6])

        expected, expected_kept = flat.patched(users, region)
        patched, kept, patched_shards = sharded.patch_with(region)
        assert kept == expected_kept
        assert patched_shards == sharded.num_shards  # cols touch every shard
        assert patched == expected

    def test_rows_only_patch_touches_owning_shards_only(self, users):
        n = len(users)
        layout = ShardLayout(n_rows=n, bounds=(0, 4, 8))
        sharded = ShardedPairMatrix.from_pair_matrix(
            UserPairMatrix.from_arrays(users, [0, 5], [1, 6], [0.5, 0.25]), layout
        )
        region = region_from(users, [1], [], [1], [3], [0.9])
        patched, kept, patched_shards = sharded.patch_with(region)
        assert patched_shards == 1
        assert kept == 2  # both old entries outside the changed row survive
        assert patched.get("u1", "u3") == 0.9

    @pytest.mark.parametrize("spill_bytes", [None, ENTRY_BYTES])
    @pytest.mark.parametrize("keep_support", [True, False])
    def test_both_paths_match_in_memory_and_leave_the_base(
        self, users, tmp_path, spill_bytes, keep_support
    ):
        n = len(users)
        rng = np.random.default_rng(13)
        old_dense = (rng.random((n, n)) * (rng.random((n, n)) < 0.5)).round(3)
        rows_idx, cols_idx = np.nonzero(old_dense)
        old_vals = old_dense[rows_idx, cols_idx]
        flat = UserPairMatrix.from_arrays(users, rows_idx, cols_idx, old_vals)
        sharded = ShardedPairMatrix.from_pair_matrix(
            flat,
            num_shards=3,
            store=ShardStore(tmp_path / "store"),
            spill_bytes=spill_bytes,
        )
        rows, cols = np.asarray([2]), np.asarray([5])
        in_region = np.zeros((n, n), dtype=bool)
        in_region[rows, :] = True
        in_region[:, cols] = True
        new_dense = np.where(in_region, (old_dense * 2.0 + 0.5) * (old_dense > 0), old_dense)
        if not keep_support:
            new_dense[2, 2] = 0.0 if old_dense[2, 2] else 0.75  # one key in or out
        r, c = np.nonzero(new_dense * in_region)
        region = region_from(users, rows, cols, r, c, new_dense[r, c])

        expected, expected_kept = flat.patched(users, region)
        recorder = Recorder()
        with obs.use_recorder(recorder):
            patched, kept, touched = sharded.patch_with(region)
        assert patched is not sharded
        assert patched == expected
        assert kept == expected_kept
        assert sharded == flat  # the base is unchanged
        counters = recorder.counters
        assert counters.get("shard.patch.values_only", 0) == touched - (not keep_support)
        assert counters.get("shard.patch.merged", 0) == (not keep_support)
        # a shard that has a file keeps it: the patch spills nothing
        assert "shard.spill" not in counters

        # the new version owns the store now; the base keeps its bytes
        patched.flush(epoch=1)
        assert patched.store.verify() == []
        assert sharded == flat
        assert ShardedPairMatrix.open(patched.store) == expected
        with pytest.raises(ValidationError, match="superseded"):
            sharded.flush()

    def test_patch_rejects_region_entry_outside_region(self, users):
        """Such a region cannot be built: its constructor rejects the entry."""
        with pytest.raises(ValidationError, match="changed rows or columns"):
            region_from(users, [1], [], [1, 0], [2, 3], [0.9, 0.8])

    def test_patch_rejects_foreign_axis(self, users):
        sharded = ShardedPairMatrix(users, num_shards=2)
        region = region_from(LabelIndex(["a", "b"]), [0], [])
        with pytest.raises(ValidationError, match="user axis"):
            sharded.patch_with(region)

    def test_patch_rejects_out_of_range_positions(self, users):
        """Such a region cannot be built: its constructor rejects the rows."""
        with pytest.raises(ValidationError, match="rows positions"):
            region_from(users, [99], [])


def _same_memory(a, b):
    return a.shape == b.shape and np.shares_memory(a, b)


def patch_row_and_column(sharded, users, *, keep_support):
    """Patch row 2 and column 5 of ``sharded``; returns (patched, expected)."""
    n = len(users)
    flat = sharded.to_pair_matrix()
    dense = np.full((n, n), np.nan)
    rows_idx, cols_idx, vals = flat.entries_arrays()
    dense[rows_idx, cols_idx] = vals
    rows, cols = np.asarray([2]), np.asarray([5])
    in_region = np.zeros((n, n), dtype=bool)
    in_region[rows, :] = True
    in_region[:, cols] = True
    new = np.where(in_region, dense * 0.5 + 0.25, dense)
    if not keep_support:
        new[2, 2] = np.nan if not np.isnan(dense[2, 2]) else 0.75
    r, c = np.nonzero(in_region & ~np.isnan(new))
    region = region_from(users, rows, cols, r, c, new[r, c])
    expected, _ = flat.patched(users, region)
    patched, _, _ = sharded.patch_with(region)
    return patched, expected


class TestCsrStructure:
    """Each shard keeps its CSR structure and keys file until its keys change."""

    _patch = staticmethod(patch_row_and_column)

    @pytest.mark.parametrize("spill_bytes", [None, ENTRY_BYTES])
    def test_values_only_patch_keeps_the_structure(self, users, tmp_path, spill_bytes):
        flat, _ = random_pair(users, density=0.6)
        sharded = ShardedPairMatrix.from_pair_matrix(
            flat, num_shards=3, store=ShardStore(tmp_path / "s"), spill_bytes=spill_bytes
        )
        before = [sharded.shard_csr(s) for s in range(sharded.num_shards)]
        patched, expected = self._patch(sharded, users, keep_support=True)
        assert patched == expected
        for s, base in enumerate(before):
            block = patched.shard_csr(s)
            for name in ("indices", "indptr"):
                array = getattr(block, name)
                assert array.dtype == np.int32
                assert not array.flags.writeable
                assert _same_memory(array, getattr(base, name))
            assert not block.data.flags.writeable
            np.testing.assert_array_equal(block.data, patched.shard_entries(s)[1])

    def test_support_change_rebuilds_the_changed_shard(self, users):
        flat, sharded = random_pair(users, density=0.6)
        layout = sharded.layout
        before = [sharded.shard_csr(s) for s in range(sharded.num_shards)]
        patched, expected = self._patch(sharded, users, keep_support=False)
        assert patched == expected
        changed = layout.shard_of_row(2)
        n = len(users)
        for s, base in enumerate(before):
            block = patched.shard_csr(s)
            lo, hi = layout.row_range(s)
            keys, vals = patched.shard_entries(s)
            keys = np.asarray(keys)
            rebuilt = UserPairMatrix.from_flat_sorted(users, keys, vals).csr()[lo:hi]
            np.testing.assert_array_equal(block.indptr, rebuilt.indptr)
            np.testing.assert_array_equal(block.indices, rebuilt.indices)
            np.testing.assert_array_equal(block.data, rebuilt.data)
            assert _same_memory(block.indices, base.indices) == (s != changed)
            assert block.shape == (hi - lo, n)

    def test_structure_survives_flush_and_reopen_starts_without(self, users, tmp_path):
        flat, _ = random_pair(users, density=0.6)
        store = ShardStore(tmp_path / "s")
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3, store=store)
        before = sharded.shard_csr(1)
        sharded.flush()
        after = sharded.shard_csr(1)
        assert isinstance(sharded.shard_entries(1)[0], np.memmap)
        assert _same_memory(after.indices, before.indices)
        assert _same_memory(after.indptr, before.indptr)
        reopened = ShardedPairMatrix.open(store).shard_csr(1)
        assert not np.shares_memory(reopened.indices, before.indices)
        np.testing.assert_array_equal(reopened.indices, before.indices)

    def _flush_counters(self, matrix, epoch):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            matrix.flush(epoch=epoch)
        return recorder.counters

    @pytest.mark.parametrize("spill_bytes", [None, ENTRY_BYTES])
    def test_a_values_only_checkpoint_writes_only_values(
        self, users, tmp_path, spill_bytes
    ):
        flat, _ = random_pair(users, density=0.6)
        store = ShardStore(tmp_path / "s")
        sharded = ShardedPairMatrix.from_pair_matrix(
            flat, num_shards=3, store=store, spill_bytes=spill_bytes
        )
        first = self._flush_counters(sharded, 0)
        assert first.get("shard.write.files", 0) == (
            0 if spill_bytes else 2 * sharded.num_shards
        )
        keys_files = {
            name: store.path(name).stat().st_ino
            for name in (f"shard_{s:05d}.keys.npy" for s in range(3))
        }

        patched, expected = self._patch(sharded, users, keep_support=True)
        patched, expected = self._patch(patched, users, keep_support=True)
        counters = self._flush_counters(patched, 1)
        # column 5 crosses every shard: one values file each
        assert counters["shard.write.files"] == patched.num_shards
        for name, inode in keys_files.items():
            assert store.path(name).stat().st_ino == inode
        assert store.verify() == []
        reopened = ShardedPairMatrix.open(store)
        assert reopened.support_keys().tobytes() == expected.support_keys().tobytes()
        assert reopened.values().tobytes() == expected.values().tobytes()

        merged, expected = self._patch(reopened, users, keep_support=False)
        counters = self._flush_counters(merged, 2)
        # the changed shard writes both files, the others their values
        assert counters["shard.write.files"] == merged.num_shards + 1
        assert store.verify() == []
        reopened = ShardedPairMatrix.open(store)
        assert reopened.support_keys().tobytes() == expected.support_keys().tobytes()
        assert reopened.values().tobytes() == expected.values().tobytes()
        assert self._flush_counters(reopened, 3).get("shard.write.files", 0) == 0

    def test_only_a_new_matrix_writes_the_user_axis_file(self, users, tmp_path):
        flat, _ = random_pair(users, density=0.6)
        store = ShardStore(tmp_path / "s")
        labels = store.path("users.txt")
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3, store=store)
        sharded.flush(epoch=0)
        inode = labels.stat().st_ino

        # values-only patches keep the user axis: the checkpoint leaves the file
        patched, expected = self._patch(sharded, users, keep_support=True)
        patched.flush(epoch=1)
        assert labels.stat().st_ino == inode
        assert store.verify() == []
        # a reopened matrix carries the file's checksum over, and round-trips
        reopened = ShardedPairMatrix.open(store)
        assert reopened == expected
        merged, expected = self._patch(reopened, users, keep_support=False)
        manifest = merged.flush(epoch=2)
        assert labels.stat().st_ino == inode
        assert store.verify() == []
        assert ShardedPairMatrix.open(store) == expected
        assert manifest["checksums"]["users.txt"] == store.checksum("users.txt")

        # a full re-derive builds a new matrix over the store: it writes the file
        grown = [*users, "zed"]
        rebuilt = ShardedPairMatrix.from_pair_matrix(
            random_pair(grown, seed=5)[0], num_shards=3, store=store
        )
        rebuilt.flush(epoch=3)
        assert labels.stat().st_ino != inode
        assert store.verify() == []
        assert store.read_labels() == tuple(grown)
        assert ShardedPairMatrix.open(store) == rebuilt

    def test_set_shard_entries_drops_the_structure_and_keys_file(self, users, tmp_path):
        flat, _ = random_pair(users, density=0.6)
        store = ShardStore(tmp_path / "s")
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3, store=store)
        sharded.flush()
        before = sharded.shard_csr(0)
        n = len(users)
        sharded.set_shard_entries(0, np.asarray([1, n + 2], dtype=np.int64), np.ones(2))
        block = sharded.shard_csr(0)
        assert not np.shares_memory(block.indices, before.indices)
        np.testing.assert_array_equal(block.indices, [1, 2])
        assert self._flush_counters(sharded, 1)["shard.write.files"] == 2
        assert store.verify() == []
        assert ShardedPairMatrix.open(store) == sharded


def spy_on_reads(store, monkeypatch):
    """Record every ``read_array`` and ``checksum`` call on ``store``."""
    calls = []
    for name in ("read_array", "checksum"):
        original = getattr(store, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args))
            return _original(*args, **kwargs)

        monkeypatch.setattr(store, name, spy)
    return calls


def shard_entry_counts(matrix, layout):
    keys = matrix.support_keys()
    n = len(matrix.users)
    return [int(np.count_nonzero((keys >= lo * n) & (keys < hi * n))) for _, lo, hi in layout]


class TestCheckpoint:
    """A flush hashes what it writes in memory and reads no payload back."""

    @pytest.mark.parametrize("spill_bytes", [None, ENTRY_BYTES], ids=["heap", "spilled"])
    @pytest.mark.parametrize(
        "supports",
        [(True,), (False,), (True, False, True)],
        ids=["values-only", "merged", "values-only-merged-values-only"],
    )
    def test_flush_reads_and_rehashes_nothing(
        self, users, tmp_path, monkeypatch, spill_bytes, supports
    ):
        flat, _ = random_pair(users, density=0.6)
        store = ShardStore(tmp_path / "s")
        calls = spy_on_reads(store, monkeypatch)
        sharded = ShardedPairMatrix.from_pair_matrix(
            flat, num_shards=3, store=store, spill_bytes=spill_bytes
        )
        sharded.flush(epoch=0)
        expected = flat
        for epoch, keep_support in enumerate(supports, start=1):
            sharded, expected = patch_row_and_column(sharded, users, keep_support=keep_support)
            manifest = sharded.flush(epoch=epoch)
            assert manifest["entries"] == expected.num_entries()
            assert [doc["entries"] for doc in manifest["shards"]] == shard_entry_counts(
                expected, sharded.layout
            )
            # what the next arrival reads is mapped already
            for s in range(sharded.num_shards):
                sharded.shard_csr(s)
                sharded.get("u2", f"u{s}")
        assert calls == []
        assert store.verify() == []
        reopened = ShardedPairMatrix.open(store)
        assert reopened.users == expected.users
        assert reopened.support_keys().tobytes() == expected.support_keys().tobytes()
        assert reopened.values().tobytes() == expected.values().tobytes()

    @pytest.mark.parametrize("spill_bytes", [None, ENTRY_BYTES], ids=["heap", "spilled"])
    def test_a_kept_keys_file_keeps_its_inode_keys_and_structure(
        self, users, tmp_path, spill_bytes
    ):
        flat, _ = random_pair(users, density=0.6)
        store = ShardStore(tmp_path / "s")
        sharded = ShardedPairMatrix.from_pair_matrix(
            flat, num_shards=3, store=store, spill_bytes=spill_bytes
        )
        sharded.flush(epoch=0)
        names = [(f"shard_{s:05d}.keys.npy", f"shard_{s:05d}.vals.npy") for s in range(3)]
        inodes = [[store.path(name).stat().st_ino for name in pair] for pair in names]
        patched, expected = patch_row_and_column(sharded, users, keep_support=True)
        keys = [patched.shard_entries(s)[0] for s in range(3)]
        blocks = [patched.shard_csr(s) for s in range(3)]
        patched.flush(epoch=1)
        for s, (keys_name, vals_name) in enumerate(names):
            assert store.path(keys_name).stat().st_ino == inodes[s][0]
            assert patched.shard_entries(s)[0] is keys[s]
            block = patched.shard_csr(s)
            assert _same_memory(block.indices, blocks[s].indices)
            assert _same_memory(block.indptr, blocks[s].indptr)
            # column 5 crosses every shard: each values file was rewritten
            # and is mapped in place of the heap copy
            assert store.path(vals_name).stat().st_ino != inodes[s][1]
            vals = patched.shard_entries(s)[1]
            assert isinstance(vals, np.memmap)
            assert os.path.samefile(vals.filename, store.path(vals_name))
        assert patched == expected
        assert store.verify() == []


class TestPointReads:
    """``get`` and ``contains`` agree with the in-memory matrix everywhere."""

    def _check(self, sharded, flat, pairs):
        for source, target in pairs:
            assert sharded.contains(source, target) == flat.contains(source, target)
            assert sharded.get(source, target) == flat.get(source, target)
            assert sharded.get(source, target, default=-1.0) == flat.get(
                source, target, default=-1.0
            )

    def _pairs(self, matrix, layout, seed=0):
        labels = matrix.users.labels
        n = len(labels)
        rng = np.random.default_rng(seed)
        pairs = [(labels[i], labels[j]) for i, j in rng.integers(0, n, (60, 2))]
        rows, cols, _ = matrix.entries_arrays()
        pairs += [(labels[i], labels[j]) for i, j in zip(rows.tolist(), cols.tolist())]
        for _, lo, hi in layout:
            for row in {lo, hi - 1} if hi > lo else ():
                pairs += [(labels[row], labels[j]) for j in range(n)]
        return pairs

    @pytest.mark.parametrize("bounds", [(0, 8), (0, 3, 5, 8), (0, 0, 4, 4, 8, 8)])
    def test_matches_in_memory(self, users, tmp_path, bounds):
        flat, _ = random_pair(users, seed=5, density=0.35)
        layout = ShardLayout(n_rows=len(users), bounds=bounds)
        store = ShardStore(tmp_path / "s")
        sharded = ShardedPairMatrix.from_pair_matrix(flat, layout, store=store)
        pairs = self._pairs(flat, layout)
        self._check(sharded, flat, pairs)
        sharded.flush()
        self._check(sharded, flat, pairs)  # memory-mapped now
        self._check(ShardedPairMatrix.open(store), flat, pairs)

    def test_explicit_zero_is_contained(self, users):
        flat = UserPairMatrix.from_arrays(users, [0, 7], [1, 6], [0.0, 0.5])
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3)
        assert sharded.contains("u0", "u1")
        assert sharded.get("u0", "u1", default=9.0) == 0.0
        assert not sharded.contains("u1", "u0")
        assert sharded.get("u7", "u6") == 0.5
