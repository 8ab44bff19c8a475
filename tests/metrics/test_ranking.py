"""Tests for ranking metrics (AUC, precision@k)."""

import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.metrics import precision_at_k, ranking_auc

USERS = ["a", "b", "c", "d", "e"]


def scores(entries):
    return UserPairMatrix.from_pairs(USERS, entries)


def binary(pairs):
    return UserPairMatrix.from_pairs(USERS, [(source, target, 1.0) for source, target in pairs])


class TestRankingAuc:
    def test_perfect_separation(self):
        s = scores([("a", "b", 0.9), ("a", "c", 0.8), ("a", "d", 0.1), ("a", "e", 0.2)])
        R = binary([("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")])
        T = binary([("a", "b"), ("a", "c")])
        assert ranking_auc(s, R, T) == pytest.approx(1.0)

    def test_inverted_separation(self):
        s = scores([("a", "b", 0.1), ("a", "c", 0.9)])
        R = binary([("a", "b"), ("a", "c")])
        T = binary([("a", "b")])
        assert ranking_auc(s, R, T) == pytest.approx(0.0)

    def test_ties_give_half_credit(self):
        s = scores([("a", "b", 0.5), ("a", "c", 0.5)])
        R = binary([("a", "b"), ("a", "c")])
        T = binary([("a", "b")])
        assert ranking_auc(s, R, T) == pytest.approx(0.5)

    def test_missing_scores_count_as_zero(self):
        s = scores([("a", "b", 0.3)])
        R = binary([("a", "b"), ("a", "c")])
        T = binary([("a", "b")])
        assert ranking_auc(s, R, T) == pytest.approx(1.0)

    def test_empty_class_returns_half(self):
        s = scores([("a", "b", 0.3)])
        R = binary([("a", "b")])
        assert ranking_auc(s, R, binary([])) == 0.5
        assert ranking_auc(s, R, binary([("a", "b")])) == 0.5

    def test_axis_mismatch(self):
        with pytest.raises(ValidationError):
            ranking_auc(UserPairMatrix(["x"]), binary([]), binary([]))


class TestPrecisionAtK:
    def test_top1_hit(self):
        s = scores([("a", "b", 0.9), ("a", "c", 0.2)])
        R = binary([("a", "b"), ("a", "c")])
        T = binary([("a", "b")])
        assert precision_at_k(s, R, T, k=1) == 1.0

    def test_top1_miss(self):
        s = scores([("a", "b", 0.2), ("a", "c", 0.9)])
        R = binary([("a", "b"), ("a", "c")])
        T = binary([("a", "b")])
        assert precision_at_k(s, R, T, k=1) == 0.0

    def test_averaged_over_users(self):
        s = scores([("a", "b", 0.9), ("b", "c", 0.1)])
        R = binary([("a", "b"), ("b", "c")])
        T = binary([("a", "b")])  # a hits, b misses
        assert precision_at_k(s, R, T, k=1) == pytest.approx(0.5)

    def test_k_larger_than_row(self):
        s = scores([("a", "b", 0.9)])
        R = binary([("a", "b")])
        T = binary([("a", "b")])
        assert precision_at_k(s, R, T, k=10) == 1.0

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            precision_at_k(scores([]), binary([]), binary([]), k=0)

    def test_no_connections(self):
        assert precision_at_k(scores([]), binary([]), binary([]), k=1) == 0.0
