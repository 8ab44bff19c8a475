"""Tests for incremental expertise maintenance."""

import inspect

import pytest

from repro.common.errors import ValidationError
from repro.community import Review, ReviewRating, ReviewedObject
from repro.datasets import CommunityProfile, generate_community
from repro.engine import split_rating_stream
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

    def test_resyncs_after_log_compaction(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()
        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
        # the tracker never saw this delta before the log forgot it
        two_category_community.change_log.compact()
        assert tracker.dirty_categories == {"movies", "books"}
        assert results_equal(
            tracker.refresh(), ExpertiseEstimator().fit(two_category_community)
        )
