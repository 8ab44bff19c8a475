"""Tests for the review-quality / rater-reputation fixed point (eqs. 1-2).

Most cases run the dict-based reference oracle; the property tests also
drive the batched kernel and require it to match the oracle bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConvergenceError, ValidationError
from repro.community import Community, Review, ReviewedObject, ReviewRating
from repro.perf.reference import solve_category
from repro.reputation import RiggsConfig, experience_discount, solve_all_categories

SCALE = (0.2, 0.4, 0.6, 0.8, 1.0)

CONFIGS = {
    "default": RiggsConfig(),
    "unweighted": RiggsConfig(weight_by_rater_reputation=False),
    "no_discount": RiggsConfig(experience_discount_enabled=False),
    "damped": RiggsConfig(damping=0.3),
}


class TestExperienceDiscount:
    def test_paper_values(self):
        assert experience_discount(1) == pytest.approx(0.5)
        assert experience_discount(9) == pytest.approx(0.9)

    def test_monotone_increasing(self):
        values = experience_discount(np.arange(1, 100))
        assert np.all(np.diff(values) > 0)

    def test_approaches_one(self):
        assert experience_discount(10**6) == pytest.approx(1.0, abs=1e-5)


class TestRiggsConfig:
    def test_defaults_valid(self):
        cfg = RiggsConfig()
        assert cfg.tolerance == 1e-9
        assert cfg.weight_by_rater_reputation

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
            {"max_iterations": 0},
            {"damping": 1.5},
            {"damping": -0.1},
            {"initial_reputation": 2.0},
            {"max_iterations": 2.5},
            {"max_iterations": 3.0},
            {"max_iterations": True},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RiggsConfig(**kwargs)


class TestDegenerateInputs:
    def test_empty_input(self):
        result = solve_category([])
        assert result.review_quality == {}
        assert result.rater_reputation == {}
        assert result.iterations == 0

    def test_single_rating(self):
        # One rater, one review: quality = the rating; deviation = 0;
        # reputation = (1 - 1/2) * (1 - 0) = 0.5.
        result = solve_category([("u1", "r1", 0.8)])
        assert result.review_quality == {"r1": pytest.approx(0.8)}
        assert result.rater_reputation == {"u1": pytest.approx(0.5)}

    def test_unanimous_raters(self):
        # Everyone rates everything 0.6: zero deviation, reputation equals
        # the pure experience discount.
        triples = [(f"u{i}", f"r{j}", 0.6) for i in range(3) for j in range(4)]
        result = solve_category(triples)
        for quality in result.review_quality.values():
            assert quality == pytest.approx(0.6)
        for rep in result.rater_reputation.values():
            assert rep == pytest.approx(float(experience_discount(4)))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            solve_category([("u1", "r1", 0.8), ("u1", "r1", 0.6)])

    @pytest.mark.parametrize("value", [-0.1, 1.1, "high", None, True])
    def test_bad_values_rejected(self, value):
        with pytest.raises(ValidationError):
            solve_category([("u1", "r1", value)])


class TestFixedPointBehaviour:
    @pytest.fixture
    def consensus_vs_deviant(self):
        """Three raters agree (1.0) on r1..r4; one always rates 0.2."""
        triples = []
        for j in range(4):
            for i in range(3):
                triples.append((f"agree{i}", f"r{j}", 1.0))
            triples.append(("deviant", f"r{j}", 0.2))
        return triples

    def test_deviant_rater_gets_lower_reputation(self, consensus_vs_deviant):
        result = solve_category(consensus_vs_deviant)
        deviant = result.rater_reputation["deviant"]
        for i in range(3):
            assert result.rater_reputation[f"agree{i}"] > deviant

    def test_quality_pulled_toward_consensus(self, consensus_vs_deviant):
        # plain mean would be (3*1.0 + 0.2)/4 = 0.8; reputation weighting
        # must pull the final quality above that
        result = solve_category(consensus_vs_deviant)
        for quality in result.review_quality.values():
            assert quality > 0.8

    def test_unweighted_ablation_gives_plain_mean(self, consensus_vs_deviant):
        cfg = RiggsConfig(weight_by_rater_reputation=False)
        result = solve_category(consensus_vs_deviant, cfg)
        for quality in result.review_quality.values():
            assert quality == pytest.approx(0.8)

    def test_experience_discount_ablation(self):
        # single-rating rater: with the discount off, reputation = 1 - dev = 1.0
        cfg = RiggsConfig(experience_discount_enabled=False)
        result = solve_category([("u1", "r1", 0.8)], cfg)
        assert result.rater_reputation["u1"] == pytest.approx(1.0)

    def test_active_rater_outranks_casual_rater_at_same_accuracy(self):
        # Same zero deviation, different activity: more ratings, more reputation.
        triples = [("casual", "r0", 0.6)]
        triples += [("active", f"r{j}", 0.6) for j in range(10)]
        triples += [("peer", f"r{j}", 0.6) for j in range(10)]  # keep consensus
        result = solve_category(triples)
        assert result.rater_reputation["active"] > result.rater_reputation["casual"]

    def test_damping_converges_to_same_fixed_point(self, consensus_vs_deviant):
        plain = solve_category(consensus_vs_deviant)
        damped = solve_category(consensus_vs_deviant, RiggsConfig(damping=0.5))
        for review_id, quality in plain.review_quality.items():
            assert damped.review_quality[review_id] == pytest.approx(quality, abs=1e-6)
        for rater_id, rep in plain.rater_reputation.items():
            assert damped.rater_reputation[rater_id] == pytest.approx(rep, abs=1e-6)

    def test_convergence_error_when_budget_too_small(self, consensus_vs_deviant):
        cfg = RiggsConfig(max_iterations=1, tolerance=1e-12)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_category(consensus_vs_deviant, cfg)
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual > excinfo.value.tolerance

    def test_reports_iterations_and_residual(self, consensus_vs_deviant):
        result = solve_category(consensus_vs_deviant)
        assert result.iterations >= 2
        assert result.residual < 1e-9

    def test_rating_counts_recorded(self, consensus_vs_deviant):
        result = solve_category(consensus_vs_deviant)
        assert result.rating_counts["deviant"] == 4
        assert result.rating_counts["agree0"] == 4


@st.composite
def rating_datasets(draw):
    """Random small categories: up to 8 raters, 6 reviews, scale ratings."""
    num_raters = draw(st.integers(1, 8))
    num_reviews = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(num_raters) for j in range(num_reviews)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    return [
        (f"u{i}", f"r{j}", draw(st.sampled_from(SCALE)))
        for i, j in chosen
    ]


def one_category_community(triples):
    """The triples as the ratings of a one-category community.

    A separate writer ``w`` writes every review (nobody may rate their own),
    each about its own object; ratings keep the triples' order.
    """
    raters = list(dict.fromkeys(rater for rater, _, _ in triples))
    reviews = list(dict.fromkeys(review for _, review, _ in triples))
    return Community.from_records(
        users=["w", *raters],
        categories=["c"],
        objects=[ReviewedObject(f"o_{review}", "c") for review in reviews],
        reviews=[Review(review, "w", f"o_{review}") for review in reviews],
        ratings=[ReviewRating(rater, review, value) for rater, review, value in triples],
    )


class TestFixedPointProperties:
    @given(rating_datasets(), st.sampled_from(sorted(CONFIGS)))
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_oracle_bitwise(self, triples, config_name):
        config = CONFIGS[config_name]
        batch = solve_all_categories(one_category_community(triples).columns(), config)
        oracle = solve_category(triples, config)
        result = batch.fixed_point("c")
        assert result.review_quality == oracle.review_quality
        assert result.rater_reputation == oracle.rater_reputation
        assert result.rating_counts == oracle.rating_counts
        assert result.iterations == oracle.iterations
        assert result.residual == oracle.residual

    @given(rating_datasets())
    @settings(max_examples=60, deadline=None)
    def test_converges_and_stays_in_unit_interval(self, triples):
        result = solve_category(triples)
        for quality in result.review_quality.values():
            assert 0.0 <= quality <= 1.0
        for rep in result.rater_reputation.values():
            assert 0.0 <= rep <= 1.0

    @given(rating_datasets())
    @settings(max_examples=30, deadline=None)
    def test_order_invariance(self, triples):
        forward = solve_category(triples)
        backward = solve_category(list(reversed(triples)))
        for review_id, quality in forward.review_quality.items():
            assert backward.review_quality[review_id] == pytest.approx(quality, abs=1e-7)

    @given(rating_datasets())
    @settings(max_examples=30, deadline=None)
    def test_result_is_a_fixed_point(self, triples):
        """Re-applying eqs. 1-2 to the solution must not move it."""
        result = solve_category(triples)
        rep = result.rater_reputation
        quality = result.review_quality
        # eq. 1 check
        by_review: dict[str, list[tuple[str, float]]] = {}
        by_rater: dict[str, list[tuple[str, float]]] = {}
        for rater, review, value in triples:
            by_review.setdefault(review, []).append((rater, value))
            by_rater.setdefault(rater, []).append((review, value))
        for review_id, entries in by_review.items():
            weight = sum(rep[r] for r, _ in entries)
            if weight > 0:
                expected = sum(rep[r] * v for r, v in entries) / weight
                assert quality[review_id] == pytest.approx(expected, abs=1e-6)
        # eq. 2 check
        for rater_id, entries in by_rater.items():
            n = len(entries)
            mad = sum(abs(quality[rv] - v) for rv, v in entries) / n
            expected = (1 - 1 / (n + 1)) * (1 - mad)
            assert rep[rater_id] == pytest.approx(max(0.0, expected), abs=1e-6)

    @given(rating_datasets(), st.sampled_from(SCALE))
    @settings(max_examples=30, deadline=None)
    def test_unanimous_value_is_recovered(self, triples, value):
        unanimous = [(rater, review, value) for rater, review, _ in triples]
        result = solve_category(unanimous)
        for quality in result.review_quality.values():
            assert quality == pytest.approx(value)
