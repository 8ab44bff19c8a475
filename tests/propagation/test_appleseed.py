"""Tests for Appleseed spreading activation."""

import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.propagation import appleseed


def graph(edges):
    """A web over the users of ``edges``, in first-seen order."""
    web = UserPairMatrix(dict.fromkeys(u for s, t, _ in edges for u in (s, t)))
    for source, target, weight in edges:
        web.set(source, target, weight)
    return web


class TestAppleseed:
    def test_source_keeps_no_rank(self):
        g = graph([("a", "b", 1.0)])
        ranks = appleseed(g, "a")
        assert ranks["a"] == 0.0

    def test_direct_successor_gains_rank(self):
        g = graph([("a", "b", 1.0)])
        ranks = appleseed(g, "a")
        assert ranks["b"] > 0.0

    def test_energy_conservation_bound(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "b", 0.5)])
        ranks = appleseed(g, "a", energy=100.0)
        assert sum(v for node, v in ranks.items() if node != "a") <= 100.0 + 1e-6

    def test_closer_nodes_rank_higher_on_chain(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "b", 1.0)])
        ranks = appleseed(g, "a")
        assert ranks["b"] > ranks["c"] > ranks["d"]

    def test_weights_split_energy(self):
        g = graph([("a", "strong", 1.0), ("a", "weak", 0.25)])
        ranks = appleseed(g, "a")
        assert ranks["strong"] == pytest.approx(4 * ranks["weak"])

    def test_unreachable_nodes_absent(self):
        g = graph([("a", "b", 1.0), ("c", "d", 1.0)])
        ranks = appleseed(g, "a")
        assert "c" not in ranks
        assert "d" not in ranks

    def test_cycle_converges(self):
        g = graph([("a", "b", 1.0), ("b", "a", 1.0)])
        ranks = appleseed(g, "a")
        assert ranks["b"] > 0.0

    def test_higher_spreading_factor_reaches_deeper(self):
        g = graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)])
        shallow = appleseed(g, "a", spreading_factor=0.3)
        deep = appleseed(g, "a", spreading_factor=0.9)
        assert deep["d"] / deep["b"] > shallow["d"] / shallow["b"]

    def test_validation(self):
        g = graph([("a", "b", 1.0)])
        with pytest.raises(ValidationError):
            appleseed(g, "ghost")
        with pytest.raises(ValidationError):
            appleseed(g, "a", energy=0.0)
        with pytest.raises(ValidationError):
            appleseed(g, "a", spreading_factor=1.0)

    def test_deterministic(self):
        g = graph([("a", "b", 0.8), ("b", "c", 0.6), ("c", "a", 1.0)])
        assert appleseed(g, "a") == appleseed(g, "a")
