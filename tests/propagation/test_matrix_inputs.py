"""The propagation models on UserPairMatrix inputs (cached-CSR path)."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.propagation import appleseed, eigen_trust, tidal_trust


@pytest.fixture
def web():
    rng = np.random.default_rng(5)
    users = [f"u{i}" for i in range(30)]
    matrix = UserPairMatrix(users)
    for _ in range(150):
        i, j = rng.integers(30, size=2)
        if i != j:
            matrix.set(users[int(i)], users[int(j)], float(rng.random()))
    return matrix


class TestEigenTrust:
    def test_pretrust_on_matrix_input(self, web):
        scores = eigen_trust(web, pretrust={"u0": 1.0})
        assert sum(scores.values()) == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            eigen_trust(web, pretrust={"ghost": 1.0})

    def test_negative_weight_rejected(self):
        matrix = UserPairMatrix(["a", "b"])
        matrix.set("a", "b", -0.5)
        with pytest.raises(ValidationError):
            eigen_trust(matrix)

    def test_empty_matrix(self):
        assert eigen_trust(UserPairMatrix([])) == {}


class TestAppleseed:
    def test_unknown_source_rejected(self, web):
        with pytest.raises(ValidationError):
            appleseed(web, "ghost")

    def test_unreachable_nodes_absent_on_matrix_input(self):
        matrix = UserPairMatrix(["a", "b", "c", "d"])
        matrix.set("a", "b", 1.0)
        matrix.set("c", "d", 1.0)
        ranks = appleseed(matrix, "a")
        assert "c" not in ranks and "d" not in ranks
        assert ranks["a"] == 0.0


class TestTidalTrust:
    def test_direct_edge_and_self_trust(self):
        matrix = UserPairMatrix(["a", "b"])
        matrix.set("a", "b", 0.4)
        assert tidal_trust(matrix, "a", "b") == pytest.approx(0.4)
        assert tidal_trust(matrix, "a", "a") == 1.0

    def test_no_path_returns_none(self):
        matrix = UserPairMatrix(["a", "b", "c"])
        matrix.set("a", "b", 1.0)
        assert tidal_trust(matrix, "b", "c") is None

    def test_unknown_nodes_rejected(self):
        matrix = UserPairMatrix(["a"])
        with pytest.raises(ValidationError):
            tidal_trust(matrix, "a", "ghost")
