"""Property test: any mutation stream keeps Engine.update() bitwise-cold.

This is the engine's headline contract: after an arbitrary interleaving
of mutations and updates, the staged artifacts are bitwise equal to one
cold, cache-free pipeline pass over a fresh replica of the same records.
hypothesis drives a random but self-consistent stream of add_user /
add_category / add_object / add_review / add_rating / add_trust
operations, with updates interspersed at random points so reuse paths
(no-op, trust-only, localised patch, full re-derive after user or
category growth) all get exercised.  The stream runs on both backends:
in memory, and on three shards with a 16-byte spill budget, so every
non-empty shard a full build writes spills to a temporary store.

Those streams build communities of a few users, where almost any rating
moves half the rows of ``A`` and ``E`` and so takes the full re-derive.
A second test replays withheld ratings into a generated 60-user
community, in a random order and random batches, so that most updates
take the region patch instead.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import (
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.affinity import AffinityEstimator
from repro.datasets import CommunityProfile, generate_community
from repro.engine import Engine, clone_community, cold_artifacts, split_rating_stream
from repro.shard import ShardConfig

OPS = ("user", "category", "object", "review", "rating", "trust", "update")

#: values on the paper's helpfulness scale
SCALE = (0.2, 0.4, 0.6, 0.8, 1.0)

#: the two backends: in memory, and three shards that all spill
BACKENDS = pytest.mark.parametrize(
    "shard_config",
    [None, ShardConfig(num_shards=3, spill_bytes=16)],
    ids=["memory", "sharded"],
)

#: ratings withheld from the generated community and replayed
WITHHELD = 8


@functools.cache
def generated_community():
    return generate_community(CommunityProfile(num_users=60), seed=11).community


class StreamDriver:
    """Applies ops from a random stream, keeping referential integrity."""

    def __init__(self, shard_config):
        self.community = Community("prop_engine")
        self.engine = Engine(self.community, shard_config=shard_config)
        self.users = []
        self.categories = []
        self.objects = []  # (object_id, category_id)
        self.reviews = []  # (review_id, writer_id)
        self.serial = 0

    def _next(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial}"

    def _pick(self, items, index):
        return items[index % len(items)]

    def apply(self, op, index, value):
        if op == "update":
            artifacts = self.engine.update()
            # the engine refits only the rows of A whose counts moved; A
            # must still be what a cold fit gives, bit for bit
            cold = AffinityEstimator().fit(clone_community(self.community))
            assert artifacts.affiliation.values_view().tobytes() == cold.values_view().tobytes()
            return
        if op == "user":
            user_id = self._next("u")
            self.community.add_user(user_id)
            self.users.append(user_id)
            return
        if op == "category":
            category_id = self._next("c")
            self.community.add_category(category_id)
            self.categories.append(category_id)
            return
        # the remaining ops need prerequisites; create them on demand so
        # every generated stream is applicable
        if not self.users:
            self.apply("user", index, value)
        if not self.categories:
            self.apply("category", index, value)
        if op == "object":
            object_id = self._next("o")
            self.community.add_object(
                ReviewedObject(object_id, self._pick(self.categories, index))
            )
            self.objects.append(object_id)
            return
        if not self.objects:
            self.apply("object", index, value)
        if op == "review":
            review_id = self._next("r")
            writer = self._pick(self.users, index)
            try:
                self.community.add_review(
                    Review(review_id, writer, self._pick(self.objects, index))
                )
            except Exception:
                return  # one review per (writer, object); duplicates rejected
            self.reviews.append((review_id, writer))
            return
        if op == "rating":
            if not self.reviews:
                self.apply("review", index, value)
            review_id, writer = self._pick(self.reviews, index)
            raters = [u for u in self.users if u != writer]
            if not raters:
                self.apply("user", index, value)
                raters = [self.users[-1]]
            rater = self._pick(raters, index)
            try:
                self.community.add_rating(ReviewRating(rater, review_id, value))
            except Exception:
                pass  # duplicate (rater, review) pairs are rejected; fine
            return
        if op == "trust":
            if len(self.users) < 2:
                self.apply("user", index, value)
                self.apply("user", index, value)
            truster = self._pick(self.users, index)
            trustee = self._pick([u for u in self.users if u != truster], index + 1)
            try:
                self.community.add_trust(TrustStatement(truster, trustee))
            except Exception:
                pass  # duplicate statements are rejected; fine
            return
        raise AssertionError(op)


@BACKENDS
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(SCALE),
        ),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=30, deadline=None)
def test_random_mutation_stream_is_bitwise_cold(shard_config, ops):
    driver = StreamDriver(shard_config)
    for op, index, value in ops:
        driver.apply(op, index, value)
    artifacts = driver.engine.update()
    reference = cold_artifacts(clone_community(driver.community))
    diffs = artifacts.differences(reference)
    assert not diffs, f"stream {ops!r} diverged: {diffs}"


@BACKENDS
@given(
    order=st.permutations(range(WITHHELD)),
    updates=st.lists(st.booleans(), min_size=WITHHELD - 1, max_size=WITHHELD - 1),
)
@settings(max_examples=30, deadline=None)
def test_random_rating_arrivals_are_bitwise_cold(shard_config, order, updates):
    base, stream = split_rating_stream(generated_community(), WITHHELD)
    engine = Engine(base, shard_config=shard_config)
    engine.update()
    # the last arrival is always followed by an update
    for position, update in zip(order, [*updates, True]):
        base.add_rating(stream[position])
        if update:
            artifacts = engine.update()
            cold = cold_artifacts(clone_community(base))
            diffs = artifacts.differences(cold)
            assert not diffs, f"arrivals {order!r} diverged: {diffs}"
            affinity = artifacts.affiliation.values_view()
            assert affinity.tobytes() == cold.affiliation.values_view().tobytes()
