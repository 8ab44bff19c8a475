"""Tests for the staged incremental engine and its replay helpers."""

import numpy as np
import pytest

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
        epoch = two_category_community.change_log.epoch
        assert artifacts.stamps.columns == epoch
        assert artifacts.stamps.propagation == epoch

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
        assert second.stamps.derived == first.stamps.derived
        assert second.stamps.columns == two_category_community.change_log.epoch
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

    def test_stamps_track_reuse(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_object(ReviewedObject("m7", "movies"))
        artifacts = engine.update()
        stamps = artifacts.stamps
        epoch = two_category_community.change_log.epoch
        assert stamps.columns == epoch
        assert stamps.derived < epoch  # cached T-hat proven valid, untouched


class TestExactVsApproximate:
    def test_approximate_mode_agrees_to_tolerance(self, generated_community):
        base, stream = split_rating_stream(generated_community, 4)
        exact = Engine(clone_community(base))
        approx = Engine(base, exact=False)
        exact.update()
        approx.update()
        for rating in stream:
            base.add_rating(rating)
            exact.community.add_rating(rating)
            a = approx.update()
            e = exact.update()
            np.testing.assert_allclose(
                a.scores.scores_array(), e.scores.scores_array(), atol=1e-6
            )


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

    def test_compaction_can_be_disabled(self, generated_community):
        base, stream = split_rating_stream(generated_community, 5)
        engine = Engine(base, compact_log=False)
        engine.update()
        log = base.change_log
        floor = log.floor
        # a base built whole holds no delta: its log starts at its records
        assert len(log) == 0
        assert floor == base.version == sum(base.summary().values())
        for rating in stream:
            base.add_rating(rating)
            engine.update()
        assert len(log) == len(stream)
        assert log.floor == floor

    def test_compacted_engine_stays_bitwise_equal(self, generated_community):
        base, stream = split_rating_stream(generated_community, 5)
        engine = Engine(base)
        engine.update()
        for rating in stream:
            base.add_rating(rating)
            engine.update()
        assert_matches_cold(engine, base)
