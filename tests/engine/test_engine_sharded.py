"""Tests for the engine's sharded backend (``Engine(shard_config=...)``)."""

import pytest

from repro import obs
from repro.community import TrustStatement
from repro.datasets import CommunityProfile, generate_community
from repro.engine import Engine, clone_community, cold_artifacts, split_rating_stream
from repro.obs.recorder import Recorder
from repro.shard import ShardConfig
from repro.shard.matrix import ENTRY_BYTES, ShardedPairMatrix


@pytest.fixture(scope="module")
def generated_community():
    return generate_community(CommunityProfile(num_users=60), seed=11).community


def assert_matches_cold(engine, community):
    reference = cold_artifacts(clone_community(community))
    diffs = engine.artifacts.differences(reference)
    assert not diffs, f"sharded artifacts diverged from cold run: {diffs}"


class TestColdBuild:
    def test_cold_build_is_sharded_and_bitwise(self, two_category_community):
        engine = Engine(two_category_community, shard_config=ShardConfig(num_shards=2))
        engine.update()
        assert isinstance(engine.artifacts.derived, ShardedPairMatrix)
        assert engine.artifacts.derived.num_shards == 2
        assert_matches_cold(engine, two_category_community)

    def test_cold_build_stats(self, two_category_community):
        engine = Engine(two_category_community, shard_config=ShardConfig(num_shards=2))
        artifacts = engine.update()
        stats = engine.last_stats
        assert stats.pairs_rederived == artifacts.derived.num_entries() > 0
        assert stats.pairs_reused == 0
        assert stats.propagation_rerun

    def test_store_root_receives_spilled_shards(self, tmp_path, two_category_community):
        config = ShardConfig(num_shards=2, spill_bytes=ENTRY_BYTES, root=tmp_path / "s")
        engine = Engine(two_category_community, shard_config=config)
        engine.update()
        assert any((tmp_path / "s").iterdir())
        assert_matches_cold(engine, two_category_community)


class TestIncrementalUpdates:
    def test_rating_stream_stays_bitwise_equal(self, generated_community):
        base, stream = split_rating_stream(generated_community, 6)
        engine = Engine(base, shard_config=ShardConfig(num_shards=3))
        engine.update()
        for rating in stream:
            base.add_rating(rating)
            engine.update()
            assert_matches_cold(engine, base)

    def test_patch_touches_only_owning_shards(self, generated_community):
        base, stream = split_rating_stream(generated_community, 4)
        engine = Engine(base, shard_config=ShardConfig(num_shards=4))
        engine.update()
        recorder = Recorder()
        with obs.use_recorder(recorder):
            for rating in stream:
                base.add_rating(rating)
                engine.update()
        patched = recorder.counters["engine.shard.shards_patched"]
        untouched = recorder.counters.get("engine.shard.shards_untouched", 0)
        assert patched >= 1
        assert patched + untouched == 4 * len(stream)

    def test_new_user_falls_back_to_full_rederive(self, two_category_community):
        """The in-place patch cannot grow the user axis -- a grown
        community must still come out bitwise equal via the rebuild."""
        engine = Engine(two_category_community, shard_config=ShardConfig(num_shards=2))
        engine.update()
        two_category_community.add_user("frank")
        two_category_community.add_trust(TrustStatement("frank", "alice"))
        engine.update()
        assert isinstance(engine.artifacts.derived, ShardedPairMatrix)
        assert_matches_cold(engine, two_category_community)

    def test_noop_update_reuses_everything(self, two_category_community):
        engine = Engine(two_category_community, shard_config=ShardConfig(num_shards=2))
        engine.update()
        before = engine.artifacts.derived
        engine.update()
        assert engine.artifacts.derived is before
        assert engine.last_stats.pairs_rederived == 0
