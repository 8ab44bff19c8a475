"""Tests for writer reputation (eq. 3)."""

import pytest

from repro.common.errors import ValidationError
from repro.perf.reference import writer_reputations


class TestWriterReputation:
    def test_single_review(self):
        # one review of quality 0.8: rep = (1 - 1/2) * 0.8 = 0.4
        reps = writer_reputations({"r1": "u1"}, {"r1": 0.8})
        assert reps == {"u1": pytest.approx(0.4)}

    def test_mean_of_qualities_with_discount(self):
        # two reviews 0.6 and 1.0: mean 0.8, discount 1 - 1/3 = 2/3
        reps = writer_reputations({"r1": "u1", "r2": "u1"}, {"r1": 0.6, "r2": 1.0})
        assert reps["u1"] == pytest.approx(2 / 3 * 0.8)

    def test_discount_disabled(self):
        reps = writer_reputations(
            {"r1": "u1"}, {"r1": 0.8}, experience_discount_enabled=False
        )
        assert reps["u1"] == pytest.approx(0.8)

    def test_multiple_writers_independent(self):
        reps = writer_reputations(
            {"r1": "u1", "r2": "u2"}, {"r1": 1.0, "r2": 0.2}
        )
        assert reps["u1"] == pytest.approx(0.5)
        assert reps["u2"] == pytest.approx(0.1)

    def test_prolific_high_quality_writer_outranks_casual(self):
        # same mean quality, more reviews -> higher reputation (the paper:
        # "review writers who write high quality reviews more than others
        # have higher reputation")
        many = {f"r{i}": "prolific" for i in range(10)}
        many["s1"] = "casual"
        qualities = {rid: 0.9 for rid in many}
        reps = writer_reputations(many, qualities)
        assert reps["prolific"] > reps["casual"]

    def test_empty_input(self):
        assert writer_reputations({}, {}) == {}


class TestUnratedPolicies:
    def test_exclude_ignores_unrated_reviews(self):
        reps = writer_reputations(
            {"r1": "u1", "r2": "u1"}, {"r1": 0.8}, unrated_policy="exclude"
        )
        # only r1 counts: (1 - 1/2) * 0.8
        assert reps["u1"] == pytest.approx(0.4)

    def test_exclude_gives_zero_when_nothing_rated(self):
        reps = writer_reputations({"r1": "u1"}, {}, unrated_policy="exclude")
        assert reps["u1"] == 0.0

    def test_zero_counts_unrated_as_zero_quality(self):
        reps = writer_reputations(
            {"r1": "u1", "r2": "u1"}, {"r1": 0.8}, unrated_policy="zero"
        )
        # both count: mean = 0.4, discount 2/3
        assert reps["u1"] == pytest.approx(2 / 3 * 0.4)

    def test_strict_raises_on_unrated(self):
        with pytest.raises(ValidationError, match="unrated"):
            writer_reputations({"r1": "u1"}, {}, unrated_policy="strict")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="unrated_policy"):
            writer_reputations({}, {}, unrated_policy="ignore")

    def test_zero_policy_penalises_vs_exclude(self):
        writers = {"r1": "u1", "r2": "u1", "r3": "u1"}
        qualities = {"r1": 0.9}
        excl = writer_reputations(writers, qualities, unrated_policy="exclude")
        zero = writer_reputations(writers, qualities, unrated_policy="zero")
        assert zero["u1"] < excl["u1"]
