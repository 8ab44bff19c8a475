"""Tests for TidalTrust."""

import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.propagation import tidal_trust


def graph(edges):
    """A web over the users of ``edges``, in first-seen order."""
    web = UserPairMatrix(dict.fromkeys(u for s, t, _ in edges for u in (s, t)))
    for source, target, weight in edges:
        web.set(source, target, weight)
    return web


class TestBaseCases:
    def test_self_trust_is_one(self):
        g = graph([("a", "b", 0.5)])
        assert tidal_trust(g, "a", "a") == 1.0

    def test_direct_edge_returned(self):
        g = graph([("a", "b", 0.7)])
        assert tidal_trust(g, "a", "b") == pytest.approx(0.7)

    def test_no_path_returns_none(self):
        g = graph([("a", "b", 0.7), ("c", "d", 0.9)])
        assert tidal_trust(g, "a", "d") is None

    def test_reverse_direction_not_used(self):
        g = graph([("b", "a", 0.7)])
        assert tidal_trust(g, "a", "b") is None

    def test_unknown_nodes_rejected(self):
        g = graph([("a", "b", 0.7)])
        with pytest.raises(ValidationError):
            tidal_trust(g, "a", "ghost")


class TestTwoHopInference:
    def test_single_chain(self):
        # a -0.8-> b -0.6-> c : t(a,c) = (0.8 * 0.6) / 0.8 = 0.6
        g = graph([("a", "b", 0.8), ("b", "c", 0.6)])
        assert tidal_trust(g, "a", "c") == pytest.approx(0.6)

    def test_weighted_average_over_neighbours(self):
        # both b1 (0.8) and b2 (0.4) connect a to c; threshold is the max
        # path strength 0.8, so only b1 qualifies
        g = graph(
            [
                ("a", "b1", 0.8),
                ("a", "b2", 0.4),
                ("b1", "c", 0.5),
                ("b2", "c", 1.0),
            ]
        )
        assert tidal_trust(g, "a", "c") == pytest.approx(0.5)

    def test_equal_strength_paths_average(self):
        g = graph(
            [
                ("a", "b1", 0.8),
                ("a", "b2", 0.8),
                ("b1", "c", 0.6),
                ("b2", "c", 1.0),
            ]
        )
        # both qualify: (0.8*0.6 + 0.8*1.0) / 1.6 = 0.8
        assert tidal_trust(g, "a", "c") == pytest.approx(0.8)

    def test_only_shortest_paths_used(self):
        # direct 2-hop path exists; the 3-hop path through d must be ignored
        g = graph(
            [
                ("a", "b", 0.9),
                ("b", "c", 0.4),
                ("a", "d", 1.0),
                ("d", "e", 1.0),
                ("e", "c", 1.0),
            ]
        )
        assert tidal_trust(g, "a", "c") == pytest.approx(0.4)


class TestDeeperChains:
    def test_three_hops(self):
        g = graph([("a", "b", 1.0), ("b", "c", 0.8), ("c", "d", 0.5)])
        # back-propagation: t(c,d)=0.5 (direct), t(b,d)=0.5, t(a,d)=0.5
        assert tidal_trust(g, "a", "d") == pytest.approx(0.5)

    def test_trust_in_unit_interval(self):
        import itertools

        import numpy as np

        rng = np.random.default_rng(3)
        nodes = [f"n{i}" for i in range(12)]
        g = UserPairMatrix(nodes)
        for source, target in itertools.permutations(nodes, 2):
            if rng.random() < 0.2:
                g.set(source, target, float(rng.choice([0.2, 0.5, 0.8, 1.0])))
        checked = 0
        for source, target in itertools.permutations(nodes, 2):
            value = tidal_trust(g, source, target)
            if value is not None:
                assert 0.0 <= value <= 1.0
                checked += 1
        assert checked > 10
