"""Engine updates make new ``T-hat`` versions and never rewrite an old one.

Both backends: artifacts an earlier :meth:`Engine.update` returned stay
bitwise equal to a cold build of the community as it was then, through
spills, checkpoint flushes and axis growth; and an update patches
``T-hat``'s values when the support held, merging only when it changed.
"""

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ValidationError
from repro.community import ReviewRating, TrustStatement
from repro.datasets import CommunityProfile, generate_community
from repro.engine import Engine, clone_community, cold_artifacts, split_rating_stream
from repro.obs.recorder import Recorder
from repro.shard import ShardConfig

BACKENDS = ["memory", "sharded"]


@pytest.fixture(scope="module")
def community_300():
    return generate_community(CommunityProfile(num_users=300), seed=11).community


@pytest.fixture(scope="module")
def community_60():
    return generate_community(CommunityProfile(num_users=60), seed=11).community


def make_engine(community, backend, tmp_path, spill_bytes=None):
    config = None
    if backend == "sharded":
        config = ShardConfig(num_shards=4, spill_bytes=spill_bytes, root=tmp_path / "store")
    return Engine(community, shard_config=config)


def assert_matches_cold(artifacts, community):
    diffs = artifacts.differences(cold_artifacts(clone_community(community)))
    assert diffs == [], f"artifacts diverged from a cold build: {diffs}"


def new_category_rating(community):
    """A rater's first rating in a category they neither rated nor wrote in.

    The rater's affinity to that category turns positive, so their
    ``T-hat`` row gains an entry for every expert writer there that it did
    not reach before: the patch cannot keep the support.
    """
    for user in community.user_ids():
        rated = {community.review_category(r) for r, _ in community.ratings_by_rater(user)}
        if not rated:
            continue
        written = {community.review_category(r) for r in community.reviews_by_writer(user)}
        for category in community.category_ids():
            if category in rated or category in written:
                continue
            for review in community.reviews_in_category(category):
                if review.writer_id != user and community.ratings_of_review(review.review_id):
                    return ReviewRating(user, review.review_id, 0.8)
    raise AssertionError("no rater has a category left to enter")


@pytest.mark.parametrize("backend", BACKENDS)
class TestReturnedArtifactsNeverChange:
    def test_earlier_updates_survive_later_ones(self, backend, community_300, tmp_path):
        base, stream = split_rating_stream(community_300, 10)
        # 32 kB per shard: the cold build and every full re-derive spill
        engine = make_engine(base, backend, tmp_path, spill_bytes=32 * 1024)
        held = [(engine.update(), clone_community(base))]
        for i, rating in enumerate(stream):
            base.add_rating(rating)
            artifacts = engine.update()
            if backend == "sharded" and i % 3 == 2:
                # a checkpoint, also right before the axis grows: the
                # re-derive then replaces the files a flushed version reads
                artifacts.derived.flush(epoch=base.change_log.epoch)
            held.append((artifacts, clone_community(base)))
            if i == 5:
                base.add_user("newcomer")
                base.add_trust(TrustStatement("newcomer", base.user_ids()[0]))
                # axis growth: a full re-derive into the same store
                held.append((engine.update(), clone_community(base)))
        assert len(held[-1][0].derived.users) == len(held[0][0].derived.users) + 1
        for k, (artifacts, clone) in enumerate(held):
            diffs = artifacts.differences(cold_artifacts(clone))
            assert diffs == [], f"update {k}'s artifacts changed: {diffs}"


class TestSupersededShardedVersion:
    def test_superseded_version_is_read_only(self, community_60, tmp_path):
        base, stream = split_rating_stream(community_60, 2)
        engine = make_engine(base, "sharded", tmp_path, spill_bytes=1024)
        first = engine.update()
        base.add_rating(stream[0])
        second = engine.update()
        assert second.derived is not first.derived
        for write in (
            lambda m: m.flush(),
            lambda m: m.set_shard_entries(0, *m.shard_entries(0)),
        ):
            with pytest.raises(ValidationError, match="superseded"):
                write(first.derived)
        second.derived.flush(epoch=base.change_log.epoch)
        assert second.derived.store.verify() == []
        assert first.derived.num_entries() > 0  # still readable
        # a full re-derive into the same store supersedes its base too
        base.add_user("newcomer")
        third = engine.update()
        assert len(third.derived.users) == len(second.derived.users) + 1
        with pytest.raises(ValidationError, match="superseded"):
            second.derived.flush()
        third.derived.flush(epoch=base.change_log.epoch)
        assert third.derived.store.verify() == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestPatchPaths:
    def test_support_change_takes_the_merge_path(self, backend, community_60, tmp_path):
        base, stream = split_rating_stream(community_60, 3)
        engine = make_engine(base, backend, tmp_path, spill_bytes=1024)
        engine.update()
        prefix = "shard" if backend == "sharded" else "matrix"
        recorder = Recorder()
        with obs.use_recorder(recorder):
            base.add_rating(stream[0])
            engine.update()
        values_only = recorder.counters.get(f"{prefix}.patch.values_only", 0)
        assert values_only >= 1
        assert recorder.counters.get(f"{prefix}.patch.merged", 0) == 0
        assert_matches_cold(engine.artifacts, base)

        before = engine.artifacts
        recorder = Recorder()
        with obs.use_recorder(recorder):
            base.add_rating(new_category_rating(base))
            after = engine.update()
        assert recorder.counters.get(f"{prefix}.patch.merged", 0) >= 1
        assert after.derived.num_entries() > before.derived.num_entries()
        assert_matches_cold(after, base)

        for rating in stream[1:]:
            base.add_rating(rating)
            engine.update()
            assert_matches_cold(engine.artifacts, base)


class TestReturnedDerivedIsAValue:
    """The in-memory ``T-hat`` an update returns cannot be written by its
    holder, so the engine's next update still equals a cold build."""

    def test_holder_cannot_write_derived(self):
        community = generate_community(CommunityProfile(num_users=120), seed=3).community
        base, stream = split_rating_stream(community, 1)
        engine = Engine(base)
        derived = engine.update().derived
        for writer in ("set", "set_block", "accumulate", "discard"):
            assert not hasattr(derived, writer)
        csr = derived.csr()
        for array in (derived._keys, derived._vals, csr.data, csr.indices, csr.indptr):
            assert array.size and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        held = derived.support_keys(), derived.values(), csr.toarray()
        for copy in (derived.support_keys(), derived.values(), *derived.entries_arrays()):
            copy[...] = 7
        for got, want in zip((derived.support_keys(), derived.values(), csr.toarray()), held):
            assert np.array_equal(got, want)

        base.add_rating(stream[0])
        assert_matches_cold(engine.update(), base)
