"""Tests for incremental expertise maintenance."""

import functools
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IntegrityError, ValidationError
from repro.community import Community, Review, ReviewRating, ReviewedObject, TrustStatement
from repro.datasets import CommunityProfile, generate_community
from repro.engine import clone_community, extract_records, split_rating_stream
from repro.reputation import ExpertiseEstimator, IncrementalExpertise, LazyFixedPoints


def results_equal(a, b):
    """Bitwise equality of both Step-1 matrices: every refresh starts cold."""
    return a.expertise == b.expertise and a.rater_reputation == b.rater_reputation


class TestIncrementalExpertise:
    def test_initial_fit_matches_estimator(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        full = ExpertiseEstimator().fit(two_category_community)
        assert results_equal(tracker.fit(), full)

    def test_refresh_after_new_rating_exact(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()

        # no manual flagging: the mutator's delta reaches the tracker
        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
        incremental = tracker.refresh()
        full = ExpertiseEstimator().fit(two_category_community)
        assert results_equal(incremental, full)

    def test_only_dirty_categories_resolved(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()
        before_books = tracker.last_iterations("books")

        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
        assert tracker.dirty_categories == {"movies"}
        tracker.refresh()
        # books was not recomputed: same fixed-point object statistics
        assert tracker.last_iterations("books") == before_books
        assert tracker.last_resolved == ("movies",)
        assert tracker.dirty_categories == set()

    def test_earlier_results_never_change(self, two_category_community):
        community = two_category_community
        tracker = IncrementalExpertise(community)
        tracker.fit()
        community.add_rating(ReviewRating("carol", "ra1", 0.6))
        kept = tracker.refresh()  # re-solves movies
        cold = ExpertiseEstimator().fit(community)

        # re-solve the same category; `kept` must not notice
        community.add_rating(ReviewRating("carol", "ra2", 0.2))
        later = tracker.refresh()
        assert tracker.last_resolved == ("movies",)
        assert later.expertise != kept.expertise

        assert kept.expertise == cold.expertise
        assert kept.rater_reputation == cold.rater_reputation
        # first access of kept's fixed points happens only now
        for category_id in ("movies", "books"):
            assert kept.fixed_points[category_id] == cold.fixed_points[category_id]

    def test_fixed_points_are_a_lazy_view_in_axis_order(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()
        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
        result = tracker.refresh()
        assert isinstance(result.fixed_points, LazyFixedPoints)
        assert list(result.fixed_points) == ["movies", "books"]
        assert tracker.last_iterations("movies") == result.fixed_points["movies"].iterations

    def test_new_review_refresh(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()
        two_category_community.add_object(ReviewedObject("m5", "movies"))
        two_category_community.add_review(Review("rb9", "bob", "m5"))
        two_category_community.add_rating(ReviewRating("dave", "rb9", 1.0))
        assert results_equal(
            tracker.refresh(), ExpertiseEstimator().fit(two_category_community)
        )

    def test_new_user_grows_axis(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        n_before = tracker.fit().expertise.shape[0]
        two_category_community.add_user("frank")
        result = tracker.refresh()
        assert result.expertise.shape[0] == n_before + 1
        assert results_equal(result, ExpertiseEstimator().fit(two_category_community))

    def test_last_iterations_before_solve(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        with pytest.raises(ValidationError):
            tracker.last_iterations("movies")

    def test_refresh_does_not_depend_on_refresh_history(self):
        # every refresh starts cold: refreshing after each rating and once
        # at the end agree bitwise, down to the solver's sweep counts
        community = generate_community(CommunityProfile(num_users=60), seed=11).community
        base, stream = split_rating_stream(community, 6)
        stepwise, once = IncrementalExpertise(base), IncrementalExpertise(base)
        stepwise.fit()
        once.fit()
        for rating in stream:
            base.add_rating(rating)
            stepwise.refresh()
        assert len(stepwise.last_resolved) < len(base.category_ids())
        assert results_equal(stepwise.refresh(), once.refresh())
        for category_id in base.category_ids():
            assert stepwise.last_iterations(category_id) == once.last_iterations(category_id)

    def test_takes_only_the_community(self):
        assert list(inspect.signature(IncrementalExpertise).parameters) == ["community"]

    def test_shims_are_gone(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        assert not hasattr(tracker, "mark_dirty")
        assert not hasattr(tracker, "mark_all_dirty")

    def test_two_trackers_follow_one_community(self):
        # a refresh consumes nothing the community holds: a tracker that
        # sat out a rating stream re-solves only what the stream touched
        community = generate_community(CommunityProfile(num_users=60), seed=11).community
        base, stream = split_rating_stream(community, 4)
        touched = {base.review_category(rating.review_id) for rating in stream}
        first, second = IncrementalExpertise(base), IncrementalExpertise(base)
        first.fit()
        second.fit()
        for rating in stream:
            base.add_rating(rating)
            first.refresh()
        assert second.dirty_categories == touched
        result = second.refresh()
        assert second.last_resolved == tuple(sorted(touched))
        assert len(touched) < len(base.category_ids())
        cold = ExpertiseEstimator().fit(clone_community(base))
        assert results_equal(result, cold)
        assert results_equal(first.refresh(), cold)


def fitted(community):
    tracker = IncrementalExpertise(community)
    tracker.fit()
    return tracker


#: adds that touch no category's reviews or ratings, each with a fresh id
INERT_ADDS = {
    "object": lambda c: c.add_object(ReviewedObject("m9", "movies")),
    "trust": lambda c: c.add_trust(TrustStatement("carol", "dave")),
    "user": lambda c: c.add_user("frank"),
}

#: adds the fixture community rejects
REJECTED_ADDS = {
    "unknown_object": lambda c: c.add_review(Review("rx", "bob", "ghost")),
    "second_review": lambda c: c.add_review(Review("rx", "alice", "m1")),
    "duplicate_rating": lambda c: c.add_rating(ReviewRating("bob", "ra1", 0.2)),
    "own_review": lambda c: c.add_rating(ReviewRating("alice", "ra1", 0.2)),
    "duplicate_category": lambda c: c.add_category("books"),
    "duplicate_user": lambda c: c.add_user("eve"),
}


class TestDirtyCategories:
    """What the record columns tell the tracker went stale."""

    def test_review_dirties_its_objects_category(self, two_category_community):
        tracker = fitted(two_category_community)
        two_category_community.add_review(Review("rb7", "bob", "m2"))
        assert tracker.dirty_categories == {"movies"}

    def test_rating_dirties_its_reviews_category(self, two_category_community):
        tracker = fitted(two_category_community)
        two_category_community.add_rating(ReviewRating("eve", "rc1", 0.2))
        assert tracker.dirty_categories == {"books"}

    def test_adds_in_two_categories_dirty_both(self, two_category_community):
        community = two_category_community
        tracker = fitted(community)
        community.add_review(Review("rb7", "bob", "m2"))
        community.add_rating(ReviewRating("eve", "rc1", 0.2))
        assert tracker.dirty_categories == {"movies", "books"}
        result = tracker.refresh()
        assert tracker.last_resolved == ("books", "movies")
        assert results_equal(result, ExpertiseEstimator().fit(community))

    def test_unfitted_tracker_finds_every_category_dirty(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        assert tracker.dirty_categories == {"movies", "books"}
        result = tracker.refresh()
        assert tracker.last_resolved == ("books", "movies")
        assert results_equal(result, ExpertiseEstimator().fit(two_category_community))

    def test_reading_the_dirty_set_consumes_nothing(self, two_category_community):
        tracker = fitted(two_category_community)
        two_category_community.add_rating(ReviewRating("eve", "rc1", 0.2))
        dirty = tracker.dirty_categories
        dirty.add("movies")  # a copy: the tracker does not see this
        assert tracker.dirty_categories == {"books"}
        tracker.refresh()
        assert tracker.last_resolved == ("books",)
        assert tracker.dirty_categories == set()

    def test_new_category_without_records_is_dirty(self, two_category_community):
        tracker = fitted(two_category_community)
        two_category_community.add_category("music")
        assert tracker.dirty_categories == {"music"}
        result = tracker.refresh()
        assert tracker.last_resolved == ("music",)
        assert list(result.expertise.categories) == ["movies", "books", "music"]
        assert results_equal(result, ExpertiseEstimator().fit(two_category_community))

    def test_grown_category_is_counted_after_its_first_solve(self, two_category_community):
        community = two_category_community
        tracker = fitted(community)
        community.add_category("music")
        community.add_object(ReviewedObject("s1", "music"))
        community.add_review(Review("re1", "eve", "s1"))
        assert tracker.dirty_categories == {"music"}
        tracker.refresh()
        assert tracker.dirty_categories == set()
        # the new category now sits inside the absorbed axis
        community.add_rating(ReviewRating("dave", "re1", 0.8))
        assert tracker.dirty_categories == {"music"}
        result = tracker.refresh()
        assert tracker.last_resolved == ("music",)
        assert results_equal(result, ExpertiseEstimator().fit(community))

    def test_newcomers_rating_dirties_only_its_category(self, two_category_community):
        community = two_category_community
        tracker = fitted(community)
        community.add_user("frank")
        community.add_rating(ReviewRating("frank", "rc1", 0.4))
        assert tracker.dirty_categories == {"books"}
        result = tracker.refresh()
        assert result.expertise.shape == (6, 2)
        assert results_equal(result, ExpertiseEstimator().fit(community))

    @pytest.mark.parametrize("add", INERT_ADDS.values(), ids=INERT_ADDS.keys())
    def test_inert_add_dirties_nothing(self, two_category_community, add):
        community = two_category_community
        tracker = fitted(community)
        version = community.version
        add(community)
        assert community.version == version + 1
        assert tracker.dirty_categories == set()
        result = tracker.refresh()
        assert tracker.last_resolved == ()
        # a user add grows the axis and re-solves nothing
        assert result.expertise.shape == (community.num_users(), 2)
        assert results_equal(result, ExpertiseEstimator().fit(community))

    @pytest.mark.parametrize("add", REJECTED_ADDS.values(), ids=REJECTED_ADDS.keys())
    def test_rejected_add_changes_nothing(self, two_category_community, add):
        community = two_category_community
        tracker = fitted(community)
        community.add_rating(ReviewRating("carol", "ra1", 0.6))
        version, dirty = community.version, tracker.dirty_categories
        assert dirty == {"movies"}
        with pytest.raises(IntegrityError):
            add(community)
        assert community.version == version
        assert tracker.dirty_categories == dirty


# ----------------------------------------------------------------- property test

#: values on the paper's helpfulness scale
SCALE = (0.2, 0.4, 0.6, 0.8, 1.0)

OPS = ("user", "category", "object", "review", "rating", "rating", "trust", "refresh")


@functools.cache
def small_community():
    return generate_community(CommunityProfile(num_users=30), seed=11).community


def replayed(community):
    """A community holding the records of ``community``, built by ``add_*``."""
    records = extract_records(community)
    out = Community("replayed")
    for add, kind in (
        (out.add_user, records.users),
        (out.add_category, records.categories),
        (out.add_object, records.objects),
        (out.add_review, records.reviews),
        (out.add_rating, records.ratings),
        (out.add_trust, records.trust),
    ):
        for record in kind:
            add(record)
    return out


def record_counts(community):
    """Reviews plus ratings of each category, by category id."""
    return {
        category_id: community.num_reviews(category_id) + community.num_ratings(category_id)
        for category_id in community.category_ids()
    }


def apply(community, op, pick):
    """One ``add_*`` of kind ``op`` on records chosen by ``pick``.

    New ids carry the version, so they are fresh; references pick among
    the records present, so some adds are rejected.
    """
    users, serial = community.user_ids(), community.version
    if op == "user":
        community.add_user(f"u{serial}")
    elif op == "category":
        community.add_category(f"c{serial}")
    elif op == "object":
        categories = community.category_ids()
        community.add_object(ReviewedObject(f"o{serial}", categories[pick % len(categories)]))
    elif op == "review":
        objects = community.object_ids()
        writer = users[pick % len(users)]
        community.add_review(Review(f"r{serial}", writer, objects[pick * 7 % len(objects)]))
    elif op == "rating":
        reviews = [review.review_id for review in community.iter_reviews()]
        rater = users[pick % len(users)]
        review_id = reviews[pick * 7 % len(reviews)]
        community.add_rating(ReviewRating(rater, review_id, SCALE[pick % len(SCALE)]))
    else:
        community.add_trust(TrustStatement(users[pick % len(users)], users[pick * 7 % len(users)]))


@pytest.mark.parametrize("build", [clone_community, replayed], ids=["whole", "replayed"])
@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 999)), max_size=16))
def test_dirty_set_is_the_categories_whose_records_moved(build, ops):
    """After any add, the stale categories are exactly those whose review
    plus rating count moved since the last refresh, or that are new."""
    community = build(small_community())
    tracker = fitted(community)
    absorbed = record_counts(community)
    for op, pick in ops:
        if op == "refresh":
            expected = tracker.dirty_categories
            tracker.refresh()
            assert tracker.last_resolved == tuple(sorted(expected))
            absorbed = record_counts(community)
            continue
        version = community.version
        try:
            apply(community, op, pick)
        except (IntegrityError, ValidationError):
            # a rejected add (or a self-trust statement) changes nothing
            assert community.version == version
        moved = {c for c, n in record_counts(community).items() if absorbed.get(c) != n}
        assert tracker.dirty_categories == moved
    cold = ExpertiseEstimator().fit(clone_community(community))
    assert results_equal(tracker.refresh(), cold)
