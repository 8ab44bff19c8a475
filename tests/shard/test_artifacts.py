"""Tests for the artifact save/load facade."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.engine import cold_artifacts
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.propagation.scores import PropagationScores
from repro.shard import ArtifactStore, ShardStore
from repro.shard.artifacts import ARTIFACTS_NAME
from repro.shard.matrix import ShardedPairMatrix


@pytest.fixture
def pipeline_artifacts(two_category_community):
    return cold_artifacts(two_category_community)


def save_all(store, artifacts, *, epoch=0, num_shards=2):
    return store.save(
        expertise=artifacts.expertise,
        affiliation=artifacts.affiliation,
        derived=artifacts.derived,
        scores=artifacts.scores,
        epoch=epoch,
        num_shards=num_shards,
    )


class TestSaveLoad:
    def test_round_trip_is_bitwise(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        manifest = save_all(store, pipeline_artifacts, epoch=13)
        assert manifest["epoch"] == 13
        assert manifest["derived"]["entries"] == pipeline_artifacts.derived.num_entries()

        loaded = store.load()
        assert loaded.epoch == 13
        assert loaded.derived == pipeline_artifacts.derived
        np.testing.assert_array_equal(
            loaded.expertise.values_view(),
            pipeline_artifacts.expertise.values_view(),
        )
        np.testing.assert_array_equal(
            loaded.affiliation.values_view(),
            pipeline_artifacts.affiliation.values_view(),
        )
        np.testing.assert_array_equal(
            loaded.scores.scores_array(), pipeline_artifacts.scores.scores_array()
        )
        assert loaded.scores.converged == pipeline_artifacts.scores.converged
        assert loaded.scores.iterations == pipeline_artifacts.scores.iterations

    def test_loaded_derived_is_sharded_and_mmapped(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        save_all(store, pipeline_artifacts)
        loaded = store.load()
        assert isinstance(loaded.derived, ShardedPairMatrix)
        keys, _ = loaded.derived.shard_entries(0)
        assert isinstance(keys, np.memmap)

    def test_sharded_input_from_foreign_store_is_copied(
        self, tmp_path, pipeline_artifacts
    ):
        foreign = ShardStore(tmp_path / "foreign")
        sharded = ShardedPairMatrix.from_pair_matrix(
            pipeline_artifacts.derived, num_shards=2, store=foreign
        )
        store = ArtifactStore(tmp_path / "a")
        store.save(
            expertise=pipeline_artifacts.expertise,
            affiliation=pipeline_artifacts.affiliation,
            derived=sharded,
            scores=pipeline_artifacts.scores,
        )
        assert store.load().derived == pipeline_artifacts.derived

    def test_mismatched_axes_rejected(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        foreign = UserCategoryMatrix(["x", "y"], ["c"])
        with pytest.raises(ValidationError, match="user axis"):
            store.save(
                expertise=foreign,
                affiliation=pipeline_artifacts.affiliation,
                derived=pipeline_artifacts.derived,
                scores=pipeline_artifacts.scores,
            )

    def test_mismatched_scores_rejected(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        foreign = PropagationScores(["x"], np.asarray([1.0]))
        with pytest.raises(ValidationError, match="scores"):
            store.save(
                expertise=pipeline_artifacts.expertise,
                affiliation=pipeline_artifacts.affiliation,
                derived=pipeline_artifacts.derived,
                scores=foreign,
            )

    def test_load_without_manifest_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            ArtifactStore(tmp_path / "empty").load()

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"format": "repro.artifacts/v1", "ep', "not valid JSON"),
            ('["repro.artifacts/v1"]', "not an object"),
            ('{"format": "repro.shard/v1"}', "format='repro.shard/v1'"),
        ],
        ids=["truncated", "json-list", "wrong-format"],
    )
    def test_malformed_manifest_rejected_naming_the_file(self, tmp_path, text, match):
        store = ArtifactStore(tmp_path / "a")
        (tmp_path / "a" / ARTIFACTS_NAME).write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=match) as info:
            store.read_manifest()
        assert ARTIFACTS_NAME in str(info.value)


class TestFailedSave:
    """A save that fails mid-way leaves the previous metadata files whole."""

    @pytest.mark.parametrize("failure", ["categories", "manifest"])
    def test_previous_store_stays_readable(self, tmp_path, pipeline_artifacts, failure):
        store = ArtifactStore(tmp_path / "a")
        save_all(store, pipeline_artifacts, epoch=4)
        expertise = pipeline_artifacts.expertise
        scores = pipeline_artifacts.scores
        if failure == "categories":
            labels = [*expertise.categories.labels[:-1], "bad\nlabel"]
            expertise = UserCategoryMatrix(
                expertise.users, labels, expertise.values_view()
            )
            expected: type[Exception] = ValidationError
        else:
            # a numpy float32 is not JSON serialisable
            scores = PropagationScores(
                scores.users,
                scores.scores_array(),
                converged=scores.converged,
                iterations=scores.iterations,
                residual=np.float32(1e-9),
            )
            expected = TypeError
        with pytest.raises(expected):
            store.save(
                expertise=expertise,
                affiliation=pipeline_artifacts.affiliation,
                derived=pipeline_artifacts.derived,
                scores=scores,
                epoch=4,
                num_shards=2,
            )
        assert store.verify() == []
        loaded = store.load()
        assert loaded.epoch == 4
        assert loaded.expertise.categories == pipeline_artifacts.expertise.categories
        assert loaded.derived == pipeline_artifacts.derived
        assert not list((tmp_path / "a").glob("*.staging"))


class TestVerify:
    def test_clean_store_verifies(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        save_all(store, pipeline_artifacts)
        assert store.verify() == []

    def test_flat_payload_corruption_detected(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        save_all(store, pipeline_artifacts)
        with open(tmp_path / "a" / "expertise.npy", "r+b") as handle:
            handle.seek(-1, 2)
            handle.write(b"\x42")
        assert store.verify() == ["expertise.npy"]

    def test_derived_shard_corruption_detected(self, tmp_path, pipeline_artifacts):
        store = ArtifactStore(tmp_path / "a")
        save_all(store, pipeline_artifacts)
        with open(tmp_path / "a" / "derived" / "shard_00000.vals.npy", "r+b") as handle:
            handle.seek(-1, 2)
            handle.write(b"\x42")
        assert store.verify() == ["derived/shard_00000.vals.npy"]

    def test_save_records_digests_without_reading_back(
        self, tmp_path, pipeline_artifacts, monkeypatch
    ):
        """Both manifests' checksums are taken as the bytes are written; a
        save over an existing store replaces every file and still verifies."""
        calls = []
        for name in ("read_array", "checksum"):
            original = getattr(ShardStore, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ShardStore, name, spy)
        store = ArtifactStore(tmp_path / "a")
        save_all(store, pipeline_artifacts, epoch=1)
        first = {p.name: p.stat().st_ino for p in (tmp_path / "a").rglob("*") if p.is_file()}
        manifest = save_all(store, pipeline_artifacts, epoch=2, num_shards=3)
        assert calls == []
        monkeypatch.undo()
        rewritten = {p.name: p.stat().st_ino for p in (tmp_path / "a").rglob("*") if p.is_file()}
        assert all(rewritten[name] != inode for name, inode in first.items())
        assert store.verify() == []
        for name, digest in manifest["checksums"].items():
            assert ShardStore(tmp_path / "a").checksum(name) == digest


class TestInMemoryShardingEquivalence:
    def test_sharded_save_of_flat_matrix_preserves_entries(
        self, tmp_path, pipeline_artifacts
    ):
        derived = pipeline_artifacts.derived
        assert isinstance(derived, UserPairMatrix)
        for shards in (1, 2, 3):
            store = ArtifactStore(tmp_path / f"s{shards}")
            save_all(store, pipeline_artifacts, num_shards=shards)
            assert store.load().derived == derived
