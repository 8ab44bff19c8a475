"""Tests for the staged incremental engine and its replay helpers."""

import inspect

import pytest

from repro import obs
from repro.common.errors import ValidationError
from repro.community import (
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.datasets import CommunityProfile, generate_community
from repro.engine import (
    Engine,
    clone_community,
    cold_artifacts,
    extract_records,
    split_rating_stream,
)
from repro.obs.recorder import Recorder
from repro.shard import ShardConfig

#: the engine's two configurations: in memory and on three shards
BACKENDS = pytest.mark.parametrize(
    "shard_config", [None, ShardConfig(num_shards=3)], ids=["memory", "sharded"]
)


@pytest.fixture(scope="module")
def generated_community():
    return generate_community(CommunityProfile(num_users=60), seed=11).community


def assert_matches_cold(engine, community):
    """The engine's artifacts are bitwise equal to a cold run on a replica."""
    artifacts = engine.artifacts
    reference = cold_artifacts(clone_community(community))
    diffs = artifacts.differences(reference)
    assert not diffs, f"artifacts diverged from cold run: {diffs}"


class TestColdBuild:
    def test_first_update_equals_cold_run(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        assert_matches_cold(engine, two_category_community)

    def test_cold_build_stats(self, two_category_community):
        engine = Engine(two_category_community)
        artifacts = engine.update()
        stats = engine.last_stats
        assert stats.pairs_rederived == artifacts.derived.num_entries()
        assert stats.pairs_reused == 0
        assert stats.propagation_rerun

    def test_cold_build_counts_only_logged_deltas(self, two_category_community):
        # built whole: the log starts at the record count with no delta
        engine = Engine(two_category_community)
        engine.update()
        assert engine.last_stats.deltas_applied == 0
        two_category_community.add_user("zed")
        replayed = Community("replayed")
        replayed.add_user("u")
        replayed.add_user("v")
        engine, other = Engine(two_category_community), Engine(replayed)
        engine.update()
        other.update()
        assert engine.last_stats.deltas_applied == 1
        assert other.last_stats.deltas_applied == 2

    def test_artifacts_none_before_first_update(self, two_category_community):
        engine = Engine(two_category_community)
        assert engine.artifacts is None
        assert engine.last_stats is None


class TestEngineSurface:
    def test_engine_takes_only_a_shard_config(self):
        parameters = inspect.signature(Engine).parameters
        assert list(parameters) == ["community", "shard_config"]
        assert parameters["shard_config"].kind is inspect.Parameter.KEYWORD_ONLY
        assert parameters["shard_config"].default is None

    def test_cold_artifacts_takes_only_the_community(self):
        assert list(inspect.signature(cold_artifacts).parameters) == ["community"]


class TestIncrementalUpdates:
    def test_rating_stream_stays_bitwise_equal(self, generated_community):
        base, stream = split_rating_stream(generated_community, 6)
        engine = Engine(base)
        engine.update()
        for rating in stream:
            base.add_rating(rating)
            engine.update()
            assert_matches_cold(engine, base)

    def test_new_user_and_trust(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_user("frank")
        two_category_community.add_trust(TrustStatement("frank", "alice"))
        engine.update()
        assert_matches_cold(engine, two_category_community)

    def test_new_category_with_activity(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_category("music")
        two_category_community.add_object(ReviewedObject("s1", "music"))
        two_category_community.add_review(Review("re1", "eve", "s1"))
        two_category_community.add_rating(ReviewRating("dave", "re1", 0.8))
        engine.update()
        assert_matches_cold(engine, two_category_community)

    def test_noop_update_reuses_everything(self, two_category_community):
        engine = Engine(two_category_community)
        first = engine.update()
        second = engine.update()
        stats = engine.last_stats
        assert stats.deltas_applied == 0
        assert stats.pairs_rederived == 0
        assert stats.pairs_reused == first.derived.num_entries()
        assert not stats.propagation_rerun
        assert second.derived is first.derived
        assert second.scores is first.scores

    def test_trust_only_delta_keeps_derived(self, two_category_community):
        # trust statements feed propagation's pretrust interpretation in no
        # way here: T-hat depends only on A and E, so a trust add must not
        # disturb the derived matrix or the scores
        engine = Engine(two_category_community)
        first = engine.update()
        two_category_community.add_trust(TrustStatement("carol", "dave"))
        second = engine.update()
        assert engine.last_stats.deltas_applied == 1
        assert second.derived is first.derived
        assert second.scores is first.scores
        assert_matches_cold(engine, two_category_community)

    def test_localised_rating_reuses_pairs(self, generated_community):
        base, stream = split_rating_stream(generated_community, 1)
        engine = Engine(base)
        engine.update()
        base.add_rating(stream[0])
        engine.update()
        stats = engine.last_stats
        assert stats.deltas_applied == 1
        # only one category went stale; most categories are skipped and
        # (for a localised change) some derived pairs survive the patch
        assert stats.categories_resolved >= 1
        assert stats.categories_skipped >= 1
        assert_matches_cold(engine, base)

    def test_object_only_delta_keeps_derived(self, two_category_community):
        # an object with no review enters neither E nor A: the cached
        # T-hat is proven still valid without being recomputed
        engine = Engine(two_category_community)
        first = engine.update()
        two_category_community.add_object(ReviewedObject("m7", "movies"))
        second = engine.update()
        stats = engine.last_stats
        assert stats.deltas_applied == 1
        assert stats.categories_resolved == 0
        assert stats.pairs_rederived == 0
        assert not stats.propagation_rerun
        assert second.derived is first.derived
        assert_matches_cold(engine, two_category_community)

    def test_new_user_rating_patches_the_grown_axis(self, generated_community):
        # in memory a grown user axis still takes the patch path: the
        # newcomer's A row and one category's E rows are the whole region
        base = clone_community(generated_community)
        engine = Engine(base)
        first = engine.update()
        base.add_user("newcomer")
        review = next(iter(base.reviews_in_category(base.category_ids()[0])))
        base.add_rating(ReviewRating("newcomer", review.review_id, 0.8))
        second = engine.update()
        stats = engine.last_stats
        assert len(second.derived.users) == len(first.derived.users) + 1
        assert stats.pairs_reused > 0
        assert stats.pairs_rederived > 0
        assert_matches_cold(engine, base)


@BACKENDS
class TestRederivePaths:
    """Which of reuse, patch and full re-derive an update takes."""

    def test_inert_deltas_keep_every_artifact(self, shard_config, two_category_community):
        # objects and trust statements enter neither E nor A
        engine = Engine(two_category_community, shard_config=shard_config)
        first = engine.update()
        two_category_community.add_object(ReviewedObject("m7", "movies"))
        two_category_community.add_trust(TrustStatement("carol", "dave"))
        second = engine.update()
        stats = engine.last_stats
        assert stats.deltas_applied == 2
        assert stats.categories_resolved == 0
        assert not stats.propagation_rerun
        assert second.derived is first.derived
        assert second.scores is first.scores
        assert_matches_cold(engine, two_category_community)

    def test_localised_rating_patches(self, shard_config, generated_community):
        base, stream = split_rating_stream(generated_community, 1)
        engine = Engine(base, shard_config=shard_config)
        first = engine.update()
        base.add_rating(stream[0])
        second = engine.update()
        stats = engine.last_stats
        assert stats.pairs_reused > 0
        assert stats.pairs_rederived > 0
        assert stats.propagation_rerun
        assert second.derived is not first.derived
        assert_matches_cold(engine, base)

    def test_wide_change_rederives_in_full(self, shard_config, two_category_community):
        # one rating in a five-user community moves at least half of the
        # rows of A and E, so a full derive replaces the patch
        engine = Engine(two_category_community, shard_config=shard_config)
        first = engine.update()
        recorder = Recorder()
        with obs.use_recorder(recorder):
            two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
            second = engine.update()
        assert not [name for name in recorder.counters if ".patch." in name]
        stats = engine.last_stats
        assert stats.pairs_reused == 0
        assert stats.pairs_rederived == second.derived.num_entries()
        assert_matches_cold(engine, two_category_community)
        if shard_config is not None:
            with pytest.raises(ValidationError, match="superseded"):
                first.derived.flush()

    def test_category_growth_rederives_in_full(self, shard_config, two_category_community):
        engine = Engine(two_category_community, shard_config=shard_config)
        engine.update()
        two_category_community.add_category("music")
        two_category_community.add_object(ReviewedObject("s1", "music"))
        two_category_community.add_review(Review("re1", "eve", "s1"))
        two_category_community.add_rating(ReviewRating("dave", "re1", 0.8))
        second = engine.update()
        stats = engine.last_stats
        assert list(second.expertise.categories) == ["movies", "books", "music"]
        assert (stats.categories_resolved, stats.categories_skipped) == (1, 2)
        assert stats.pairs_reused == 0
        assert_matches_cold(engine, two_category_community)


class TestReplayHelpers:
    def test_clone_preserves_records_and_shares_nothing(self, two_category_community):
        replica = clone_community(two_category_community)
        assert extract_records(replica) == extract_records(two_category_community)
        assert replica.change_log is not two_category_community.change_log
        replica.add_user("zed")
        assert "zed" not in two_category_community.user_ids()

    def test_split_rating_stream_roundtrip(self, two_category_community):
        base, stream = split_rating_stream(two_category_community, 2)
        assert base.num_ratings() == two_category_community.num_ratings() - 2
        for rating in stream:
            base.add_rating(rating)
        assert extract_records(base).ratings == extract_records(
            two_category_community
        ).ratings

    def test_split_by_category(self, two_category_community):
        base, stream = split_rating_stream(two_category_community, 2, category_id="movies")
        assert len(stream) == 2
        for rating in stream:
            assert two_category_community.review_category(rating.review_id) == "movies"

    def test_split_validates_arguments(self, two_category_community):
        with pytest.raises(ValidationError):
            split_rating_stream(two_category_community, -1)
        with pytest.raises(ValidationError):
            split_rating_stream(two_category_community, 999)
        with pytest.raises(ValidationError):
            split_rating_stream(two_category_community, 1, category_id="ghost")


class TestLogCompaction:
    def test_update_compacts_consumed_deltas(self, generated_community):
        """The retained log stays bounded over a long rating stream."""
        base, stream = split_rating_stream(generated_community, 12)
        engine = Engine(base)
        engine.update()
        log = base.change_log
        assert len(log) == 0  # cold build consumed and compacted everything
        for rating in stream:
            base.add_rating(rating)
            engine.update()
            assert len(log) == 0
        assert log.epoch >= len(stream)  # epochs keep advancing
        assert log.floor == log.epoch

    @BACKENDS
    def test_second_engine_resyncs_after_compaction(self, shard_config, generated_community):
        """Each update compacts the log it consumed, so a second engine on
        the same community finds its deltas gone and re-solves every
        category: slower, still bitwise."""
        base, stream = split_rating_stream(generated_community, 4)
        first = Engine(base, shard_config=shard_config)
        second = Engine(base, shard_config=shard_config)
        first.update()
        second.update()
        for rating in stream:
            base.add_rating(rating)
            first.update()
        assert len(base.change_log) == 0
        second.update()
        stats = second.last_stats
        assert stats.deltas_applied == len(stream)
        assert stats.categories_skipped == 0
        assert_matches_cold(first, base)
        assert_matches_cold(second, base)

    def test_compacted_engine_stays_bitwise_equal(self, generated_community):
        base, stream = split_rating_stream(generated_community, 5)
        engine = Engine(base)
        engine.update()
        for rating in stream:
            base.add_rating(rating)
            engine.update()
        assert_matches_cold(engine, base)
