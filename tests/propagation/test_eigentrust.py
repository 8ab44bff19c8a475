"""Tests for EigenTrust."""

import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.propagation import eigen_trust


def graph(edges, isolated=()):
    """A web over the users of ``edges`` in first-seen order, then ``isolated``."""
    ends = [user for source, target, _ in edges for user in (source, target)]
    web = UserPairMatrix(dict.fromkeys([*ends, *isolated]))
    for source, target, weight in edges:
        web.set(source, target, weight)
    return web


class TestEigenTrust:
    def test_scores_sum_to_one(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        scores = eigen_trust(g)
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_symmetric_cycle_is_uniform(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        scores = eigen_trust(g)
        for value in scores.values():
            assert value == pytest.approx(1 / 3, abs=1e-6)

    def test_popular_node_scores_higher(self):
        g = graph(
            [
                ("a", "hub", 1.0),
                ("b", "hub", 1.0),
                ("c", "hub", 1.0),
                ("hub", "a", 1.0),
            ]
        )
        scores = eigen_trust(g)
        assert scores["hub"] == max(scores.values())

    def test_empty_graph(self):
        assert eigen_trust(UserPairMatrix([])) == {}

    def test_isolated_nodes_handled(self):
        g = graph([("a", "b", 1.0)], isolated=["loner"])
        scores = eigen_trust(g)
        assert "loner" in scores
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_pretrust_biases_scores(self):
        g = graph([("a", "b", 1.0), ("b", "a", 1.0), ("a", "c", 1.0), ("c", "a", 1.0)])
        neutral = eigen_trust(g)
        biased = eigen_trust(g, pretrust={"b": 1.0}, alpha=0.5)
        assert biased["b"] > neutral["b"]

    def test_edge_weights_matter(self):
        g = graph([("a", "b", 1.0), ("a", "c", 0.1), ("b", "a", 1.0), ("c", "a", 1.0)])
        scores = eigen_trust(g)
        assert scores["b"] > scores["c"]

    def test_negative_weight_rejected(self):
        g = graph([("a", "b", -0.5)])
        with pytest.raises(ValidationError):
            eigen_trust(g)

    def test_pretrust_validation(self):
        g = graph([("a", "b", 1.0)])
        with pytest.raises(ValidationError, match="unknown node"):
            eigen_trust(g, pretrust={"ghost": 1.0})
        with pytest.raises(ValidationError, match="non-negative"):
            eigen_trust(g, pretrust={"a": -1.0})
        with pytest.raises(ValidationError, match="positive total"):
            eigen_trust(g, pretrust={"a": 0.0})

    def test_deterministic(self):
        g = graph([("a", "b", 0.8), ("b", "c", 0.4), ("c", "a", 1.0)])
        assert eigen_trust(g) == eigen_trust(g)
