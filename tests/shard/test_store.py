"""Tests for the directory-backed shard store."""

import io
import os

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.shard import ShardStore
from repro.shard.matrix import ShardedPairMatrix
from repro.shard.store import FORMAT, MANIFEST_NAME


@pytest.fixture
def store(tmp_path):
    return ShardStore(tmp_path / "store")


class TestArrays:
    def test_write_read_round_trip(self, store):
        values = np.arange(10, dtype=np.int64)
        written = store.write_array("a.npy", values)
        assert written > 0
        loaded = store.read_array("a.npy")
        np.testing.assert_array_equal(np.asarray(loaded), values)

    def test_read_is_memory_mapped_by_default(self, store):
        store.write_array("a.npy", np.arange(4, dtype=np.float64))
        loaded = store.read_array("a.npy")
        assert isinstance(loaded, np.memmap)

    def test_read_heap_copy_on_request(self, store):
        store.write_array("a.npy", np.arange(4, dtype=np.float64))
        loaded = store.read_array("a.npy", mmap=False)
        assert not isinstance(loaded, np.memmap)

    def test_read_missing_payload_rejected(self, store):
        with pytest.raises(ValidationError, match="missing"):
            store.read_array("ghost.npy")

    @pytest.mark.parametrize("name", ["a/b.npy", "..\\up.npy", ".hidden"])
    def test_path_rejects_traversal_and_dotfiles(self, store, name):
        with pytest.raises(ValidationError):
            store.path(name)


class TestWrittenBytes:
    """A write leaves np.save's bytes and knows their digest without a re-read."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_file_is_np_save_output_and_digest_is_the_files(self, store, dtype, size):
        values = (np.arange(size) * 7 - 3).astype(dtype)
        saved = io.BytesIO()
        np.save(saved, values)
        written = store.write_array("a.npy", values)
        assert store.path("a.npy").read_bytes() == saved.getvalue()
        assert written == len(saved.getvalue())
        assert store.written_checksum("a.npy") == store.checksum("a.npy")

    def test_two_dimensional_and_non_contiguous_input(self, store):
        grid = np.arange(12, dtype=np.float64).reshape(3, 4) / 7
        for name, values in (("grid.npy", grid), ("cols.npy", grid[:, ::2])):
            saved = io.BytesIO()
            np.save(saved, np.ascontiguousarray(values))
            store.write_array(name, values)
            assert store.path(name).read_bytes() == saved.getvalue()
            assert store.written_checksum(name) == store.checksum(name)
            np.testing.assert_array_equal(store.map_written(name), values)

    def test_rewrite_over_an_existing_file(self, store):
        store.write_array("a.npy", np.arange(5, dtype=np.int64))
        first = store.written_checksum("a.npy")
        store.write_array("a.npy", np.arange(1, 6, dtype=np.int64))
        assert store.written_checksum("a.npy") != first
        assert store.written_checksum("a.npy") == store.checksum("a.npy")
        assert not list(store.root.glob("*.staging"))

    @pytest.mark.parametrize("size", [0, 9])
    def test_map_written_reads_the_written_values(self, store, size):
        values = np.linspace(0.0, 1.0, size)
        store.write_array("a.npy", values)
        mapped = store.map_written("a.npy")
        assert isinstance(mapped, np.memmap)
        assert not mapped.flags.writeable
        assert mapped.dtype == values.dtype and mapped.shape == values.shape
        np.testing.assert_array_equal(mapped, values)
        np.testing.assert_array_equal(store.read_array("a.npy"), mapped)

    def test_text_digest_is_the_files(self, store):
        store.write_labels(("u1", "é", "zed"))
        assert store.written_checksum("users.txt") == store.checksum("users.txt")
        assert store.read_labels() == ("u1", "é", "zed")

    def test_only_this_stores_own_writes_are_known(self, store):
        store.write_array("a.npy", np.arange(3, dtype=np.int64))
        store.write_labels(("u0",))
        other = ShardStore(store.root)
        with pytest.raises(ValidationError, match="not written through this store"):
            other.written_checksum("a.npy")
        with pytest.raises(ValidationError, match="not written as an array"):
            store.map_written("users.txt")


class TestManifest:
    def test_round_trip(self, store):
        store.write_manifest({"format": FORMAT, "n_users": 3})
        assert store.has_manifest()
        assert store.read_manifest()["n_users"] == 3

    def test_missing_manifest_rejected(self, store):
        assert not store.has_manifest()
        with pytest.raises(ValidationError, match="manifest"):
            store.read_manifest()

    def test_foreign_format_rejected(self, store):
        store.write_manifest({"format": "something/else"})
        with pytest.raises(ValidationError, match="format"):
            store.read_manifest()

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"format": "repro.shard/v1", "n_us', "not valid JSON"),
            ('["repro.shard/v1"]', "not an object"),
            ('{"format": "something/else"}', "format='something/else'"),
        ],
        ids=["truncated", "json-list", "wrong-format"],
    )
    def test_malformed_manifest_rejected_naming_the_file(self, store, text, match):
        store.path(MANIFEST_NAME).write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=match) as info:
            store.read_manifest()
        assert MANIFEST_NAME in str(info.value)


class TestLabels:
    def test_round_trip_preserves_order(self, store):
        store.write_labels(("u1", "u0", "zed"))
        assert store.read_labels() == ("u1", "u0", "zed")

    def test_newlines_in_labels_rejected(self, store):
        with pytest.raises(ValidationError, match="newline"):
            store.write_labels(("ok", "bad\nlabel"))

    def test_missing_labels_file_rejected(self, store):
        with pytest.raises(ValidationError, match="user axis"):
            store.read_labels()


class TestAtomicMetadata:
    """A metadata write that fails leaves the previous file whole."""

    @pytest.fixture
    def flushed(self, store):
        matrix = UserPairMatrix.from_arrays(["u0", "u1", "u2"], [0, 2], [1, 0], [0.5, 0.25])
        ShardedPairMatrix.from_pair_matrix(matrix, num_shards=2, store=store).flush(
            epoch=3
        )
        return store

    def test_failed_manifest_write_keeps_previous(self, flushed):
        before = flushed.read_manifest()
        with pytest.raises(TypeError, match="JSON serializable"):
            flushed.write_manifest({**before, "zz": object()})
        assert flushed.read_manifest() == before
        assert flushed.verify() == []
        assert not list(flushed.root.glob("*.staging"))

    def test_write_interrupted_before_the_rename_keeps_previous(
        self, flushed, monkeypatch
    ):
        before = flushed.path(MANIFEST_NAME).read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            flushed.write_manifest({"format": FORMAT, "n_users": 1})
        monkeypatch.undo()
        assert flushed.path(MANIFEST_NAME).read_bytes() == before
        assert flushed.verify() == []

    def test_failed_label_write_keeps_previous(self, flushed):
        with pytest.raises(ValidationError, match="newline"):
            flushed.write_labels(("u0", "bad\nlabel", "u2"))
        assert flushed.read_labels() == ("u0", "u1", "u2")
        assert flushed.verify() == []
        assert not list(flushed.root.glob("*.staging"))


class TestIntegrity:
    def test_checksum_is_stable(self, store):
        store.write_array("a.npy", np.arange(5, dtype=np.int64))
        assert store.checksum("a.npy") == store.checksum("a.npy")

    def test_checksum_changes_with_content(self, store):
        store.write_array("a.npy", np.arange(5, dtype=np.int64))
        before = store.checksum("a.npy")
        store.write_array("a.npy", np.arange(1, 6, dtype=np.int64))
        assert store.checksum("a.npy") != before

    def test_verify_clean_store(self, store):
        store.write_array("a.npy", np.arange(5, dtype=np.int64))
        store.write_manifest(
            {"format": FORMAT, "checksums": {"a.npy": store.checksum("a.npy")}}
        )
        assert store.verify() == []

    def test_verify_detects_corruption(self, store):
        store.write_array("a.npy", np.arange(5, dtype=np.int64))
        store.write_manifest(
            {"format": FORMAT, "checksums": {"a.npy": store.checksum("a.npy")}}
        )
        with open(store.path("a.npy"), "r+b") as handle:
            handle.seek(-1, 2)
            handle.write(b"\xff")
        assert store.verify() == ["a.npy"]

    def test_verify_detects_missing_payload(self, store):
        store.write_manifest({"format": FORMAT, "checksums": {"gone.npy": "00"}})
        assert store.verify() == ["gone.npy"]


class TestTemporary:
    def test_temporary_store_is_usable(self):
        store = ShardStore.temporary()
        store.write_array("a.npy", np.arange(3, dtype=np.int64))
        assert store.path(MANIFEST_NAME).parent.exists()
