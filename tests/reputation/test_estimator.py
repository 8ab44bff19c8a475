"""Tests for ExpertiseEstimator over a whole community."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.reputation import (
    ExpertiseEstimator,
    RiggsConfig,
    solve_all_categories,
)
from repro.reputation.estimator import scatter_fixed_points


@pytest.fixture
def result(two_category_community):
    return ExpertiseEstimator().fit(two_category_community)


class TestMatrixShapes:
    def test_axes_cover_all_users_and_categories(self, result, two_category_community):
        assert list(result.expertise.users) == two_category_community.user_ids()
        assert list(result.expertise.categories) == ["movies", "books"]
        assert result.rater_reputation.users == result.expertise.users

    def test_fixed_point_per_category(self, result):
        assert set(result.fixed_points) == {"movies", "books"}

    def test_iterations_reported(self, result):
        iterations = result.iterations()
        assert all(n >= 1 for n in iterations.values())


class TestExpertiseEntries:
    def test_inactive_user_has_zero_everywhere(self, result):
        assert result.expertise.get("eve", "movies") == 0.0
        assert result.expertise.get("eve", "books") == 0.0
        assert result.rater_reputation.get("eve", "movies") == 0.0

    def test_writer_only_expert_in_their_category(self, result):
        assert result.expertise.get("alice", "movies") > 0.0
        assert result.expertise.get("alice", "books") == 0.0
        assert result.expertise.get("carol", "books") > 0.0
        assert result.expertise.get("carol", "movies") == 0.0

    def test_pure_rater_has_no_expertise(self, result):
        assert result.expertise.get("dave", "movies") == 0.0
        assert result.expertise.get("dave", "books") == 0.0

    def test_alice_outranks_bob_in_movies(self, result):
        # alice's reviews were rated 1.0/0.8 twice; bob's single review got 0.4
        assert result.expertise.get("alice", "movies") > result.expertise.get(
            "bob", "movies"
        )

    def test_rater_reputation_only_where_active(self, result):
        assert result.rater_reputation.get("bob", "movies") > 0.0
        assert result.rater_reputation.get("bob", "books") == 0.0
        assert result.rater_reputation.get("alice", "books") > 0.0
        assert result.rater_reputation.get("alice", "movies") == 0.0

    def test_review_quality_accessor(self, result):
        movies_quality = result.review_quality("movies")
        assert set(movies_quality) == {"ra1", "ra2", "rb1"}
        books_quality = result.review_quality("books")
        assert books_quality["rc1"] == pytest.approx(0.6)

    def test_review_quality_returns_copy(self, result):
        first = result.review_quality("books")
        first["rc1"] = 0.0
        assert result.review_quality("books")["rc1"] == pytest.approx(0.6)


class TestEstimatorConfig:
    def test_config_propagates(self, two_category_community):
        # with the discount disabled everywhere, carol's single 0.6-quality
        # review yields expertise exactly 0.6
        cfg = RiggsConfig(experience_discount_enabled=False)
        result = ExpertiseEstimator(cfg).fit(two_category_community)
        assert result.expertise.get("carol", "books") == pytest.approx(0.6)

    def test_default_discount_halves_single_review_writer(self, result):
        # carol: one review of quality 0.6 -> 0.5 * 0.6 = 0.3
        assert result.expertise.get("carol", "books") == pytest.approx(0.3)

    def test_unrated_reviews_policy_zero(self, two_category_community):
        from repro.community import Review, ReviewedObject

        # give bob an unrated second review; "zero" policy must lower his expertise
        two_category_community.add_object(ReviewedObject("m3", "movies"))
        two_category_community.add_review(Review("rb2", "bob", "m3"))
        exclude = ExpertiseEstimator(unrated_policy="exclude").fit(two_category_community)
        zero = ExpertiseEstimator(unrated_policy="zero").fit(two_category_community)
        assert zero.expertise.get("bob", "movies") < exclude.expertise.get("bob", "movies")


class TestScatterFixedPoints:
    def test_overwrites_exactly_the_solved_columns(self, two_category_community):
        columns = two_category_community.columns()
        cold = ExpertiseEstimator().fit(two_category_community)
        movies = columns.categories.position("movies")
        books = columns.categories.position("books")
        batch = solve_all_categories(columns, categories=[movies])
        expertise = np.full((len(columns.users), len(columns.categories)), 0.5)
        rater_reputation = expertise.copy()
        scatter_fixed_points(
            columns,
            batch,
            expertise,
            rater_reputation,
            experience_discount_enabled=True,
            unrated_policy="exclude",
        )
        assert np.array_equal(expertise[:, movies], cold.expertise.category_column("movies"))
        assert np.array_equal(
            rater_reputation[:, movies], cold.rater_reputation.category_column("movies")
        )
        assert (expertise[:, books] == 0.5).all()
        assert (rater_reputation[:, books] == 0.5).all()


class TestConstructorValidation:
    """Bad Step-1 settings fail where they are given, not at the first fit."""

    def test_unknown_unrated_policy_rejected(self):
        with pytest.raises(ValidationError, match="unrated_policy"):
            ExpertiseEstimator(unrated_policy="bogus")
