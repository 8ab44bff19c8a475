"""Tests for the Table-4 metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.metrics import TrustValidationMetrics, validate_trust

USERS = ["a", "b", "c", "d", "e"]


def matrix(pairs):
    return UserPairMatrix.from_pairs(USERS, [(source, target, 1.0) for source, target in pairs])


@pytest.fixture
def relations():
    """R = 4 pairs; T = 3 pairs, 2 inside R; predictions vary per test."""
    R = matrix([("a", "b"), ("a", "c"), ("b", "c"), ("b", "d")])
    T = matrix([("a", "b"), ("b", "c"), ("c", "d")])  # (c,d) outside R
    return R, T


class TestValidateTrust:
    def test_perfect_predictor(self, relations):
        R, T = relations
        predicted = matrix([("a", "b"), ("b", "c")])
        m = validate_trust(predicted, R, T)
        assert m.recall == 1.0
        assert m.precision_in_r == 1.0
        assert m.nontrust_as_trust_rate == 0.0
        assert m.trust_in_r == 2
        assert m.nontrust_in_r == 2

    def test_all_predicted(self, relations):
        R, T = relations
        predicted = matrix(R.support())
        m = validate_trust(predicted, R, T)
        assert m.recall == 1.0
        assert m.precision_in_r == pytest.approx(0.5)
        assert m.nontrust_as_trust_rate == 1.0

    def test_nothing_predicted(self, relations):
        R, T = relations
        m = validate_trust(matrix([]), R, T)
        assert m.recall == 0.0
        assert m.precision_in_r == 0.0  # empty denominator -> 0
        assert m.nontrust_as_trust_rate == 0.0

    def test_partial_predictor(self, relations):
        R, T = relations
        predicted = matrix([("a", "b"), ("a", "c")])  # one TP, one FP
        m = validate_trust(predicted, R, T)
        assert m.recall == pytest.approx(0.5)
        assert m.precision_in_r == pytest.approx(0.5)
        assert m.nontrust_as_trust_rate == pytest.approx(0.5)
        assert m.true_positives == 1
        assert m.false_positives_in_r == 1

    def test_predictions_outside_r_ignored(self, relations):
        R, T = relations
        predicted = matrix([("a", "b"), ("c", "d"), ("d", "e")])  # only (a,b) in R
        m = validate_trust(predicted, R, T)
        assert m.predicted_in_r == 1
        assert m.recall == pytest.approx(0.5)
        assert m.precision_in_r == 1.0

    def test_trust_outside_r_not_in_recall_denominator(self, relations):
        R, T = relations
        # (c, d) is trusted but not in R: recall denominator must be 2, not 3
        predicted = matrix([("a", "b"), ("b", "c")])
        assert validate_trust(predicted, R, T).recall == 1.0

    def test_axis_mismatch(self, relations):
        R, T = relations
        with pytest.raises(ValidationError):
            validate_trust(UserPairMatrix(["a", "b"]), R, T)


def validate_trust_by_pair_scan(predicted, connections, ground_truth):
    """The per-pair ``contains`` loop ``validate_trust`` replaced, as its oracle."""
    trust_in_r = connections.intersect_support(ground_truth)
    nontrust_in_r = connections.subtract_support(ground_truth)
    true_positives = sum(1 for pair in trust_in_r if predicted.contains(*pair))
    false_positives = sum(1 for pair in nontrust_in_r if predicted.contains(*pair))
    predicted_in_r = true_positives + false_positives

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    return TrustValidationMetrics(
        recall=ratio(true_positives, len(trust_in_r)),
        precision_in_r=ratio(true_positives, predicted_in_r),
        nontrust_as_trust_rate=ratio(false_positives, len(nontrust_in_r)),
        true_positives=true_positives,
        predicted_in_r=predicted_in_r,
        false_positives_in_r=false_positives,
        trust_in_r=len(trust_in_r),
        nontrust_in_r=len(nontrust_in_r),
    )


pair_lists = st.lists(st.tuples(st.sampled_from(USERS), st.sampled_from(USERS)), max_size=20)


class TestValidateTrustAgainstPairScan:
    @given(pair_lists, pair_lists, pair_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_scan_exactly(self, predicted, r_pairs, t_pairs):
        args = (matrix(predicted), matrix(r_pairs), matrix(t_pairs))
        assert validate_trust(*args) == validate_trust_by_pair_scan(*args)
