"""Tests for incremental expertise maintenance."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.community import Review, ReviewRating, ReviewedObject
from repro.perf.reference import solve_category
from repro.reputation import ExpertiseEstimator, IncrementalExpertise, LazyFixedPoints


def results_equal(a, b, tol=1e-9):
    return np.allclose(a.expertise.to_array(), b.expertise.to_array(), atol=tol) and (
        np.allclose(a.rater_reputation.to_array(), b.rater_reputation.to_array(), atol=tol)
    )


class TestWarmStart:
    def test_warm_start_reaches_same_fixed_point(self):
        triples = [
            ("u1", "r1", 1.0), ("u2", "r1", 0.8), ("u1", "r2", 0.6),
            ("u3", "r2", 0.2), ("u2", "r2", 0.6),
        ]
        cold = solve_category(triples)
        warm = solve_category(triples, warm_start=cold.rater_reputation)
        for rater, rep in cold.rater_reputation.items():
            assert warm.rater_reputation[rater] == pytest.approx(rep, abs=1e-7)

    def test_warm_start_converges_faster(self):
        triples = [
            (f"u{i}", f"r{j}", [0.2, 0.6, 1.0][(i + j) % 3])
            for i in range(6)
            for j in range(5)
        ]
        cold = solve_category(triples)
        warm = solve_category(triples, warm_start=cold.rater_reputation)
        assert warm.iterations <= cold.iterations

    def test_warm_start_values_clipped(self):
        result = solve_category([("u1", "r1", 0.8)], warm_start={"u1": 5.0})
        assert result.rater_reputation["u1"] == pytest.approx(0.5)

    def test_unknown_raters_in_warm_start_ignored(self):
        result = solve_category([("u1", "r1", 0.8)], warm_start={"ghost": 0.1})
        assert result.rater_reputation["u1"] == pytest.approx(0.5)


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
        tracker = IncrementalExpertise(community, warm_start=False)
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

    def test_warm_refresh_starts_from_the_previous_fixed_point(
        self, two_category_community
    ):
        # movies' raters start from their previous reputation there and
        # carol, new to movies, from initial_reputation -- which is what the
        # oracle does with the previous fixed point as its warm start
        tracker = IncrementalExpertise(two_category_community, warm_start=True)
        previous = tracker.fit().fixed_points["movies"]
        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
        result = tracker.refresh()
        oracle = solve_category(
            two_category_community.rating_triples("movies"),
            warm_start=previous.rater_reputation,
        )
        assert result.fixed_points["movies"] == oracle

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

    def test_touch_marks_one_category_dirty(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()
        two_category_community.touch("movies")
        assert tracker.dirty_categories == {"movies"}

    def test_touch_unknown_category(self, two_category_community):
        with pytest.raises(ValidationError):
            two_category_community.touch("ghost")

    def test_last_iterations_before_solve(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        with pytest.raises(ValidationError):
            tracker.last_iterations("movies")

    def test_touch_all_marks_every_category_dirty(self, two_category_community):
        tracker = IncrementalExpertise(two_category_community)
        tracker.fit()
        two_category_community.touch()
        assert tracker.dirty_categories == {"movies", "books"}

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
