"""Tests for the vector-native PropagationScores result type."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix
from repro.propagation import PropagationScores, appleseed, eigen_trust


@pytest.fixture
def full_scores():
    return PropagationScores(LabelIndex(["a", "b", "c"]), np.array([0.5, 0.2, 0.3]))


@pytest.fixture
def partial_scores():
    return PropagationScores(
        LabelIndex(["a", "b", "c"]),
        np.array([0.5, 0.9, 0.3]),
        present=np.array([True, False, True]),
    )


class TestMappingView:
    def test_behaves_as_a_dict(self, full_scores):
        assert len(full_scores) == 3
        assert list(full_scores) == ["a", "b", "c"]
        assert full_scores["b"] == 0.2
        assert full_scores.get("b") == 0.2
        assert dict(full_scores.items()) == {"a": 0.5, "b": 0.2, "c": 0.3}
        assert sum(full_scores.values()) == pytest.approx(1.0)

    def test_equals_plain_dict_both_ways(self, full_scores):
        as_dict = {"a": 0.5, "b": 0.2, "c": 0.3}
        assert full_scores == as_dict
        assert as_dict == full_scores
        assert full_scores != {"a": 0.5}

    def test_absent_nodes_are_hidden(self, partial_scores):
        assert len(partial_scores) == 2
        assert list(partial_scores) == ["a", "c"]
        assert "b" not in partial_scores
        assert partial_scores.get("b", -1.0) == -1.0
        with pytest.raises(KeyError):
            partial_scores["b"]
        assert partial_scores == {"a": 0.5, "c": 0.3}

    def test_unknown_label(self, full_scores):
        assert "zzz" not in full_scores
        assert 42 not in full_scores
        assert full_scores.to_dict() == {"a": 0.5, "b": 0.2, "c": 0.3}


class TestVectorView:
    def test_scores_array_covers_the_axis(self, full_scores):
        assert full_scores.scores_array().tolist() == [0.5, 0.2, 0.3]
        assert full_scores.present_mask().all()

    def test_absent_positions_read_zero(self, partial_scores):
        assert partial_scores.scores_array().tolist() == [0.5, 0.0, 0.3]
        assert partial_scores.present_mask().tolist() == [True, False, True]

    def test_array_is_a_copy(self, full_scores):
        full_scores.scores_array()[0] = 99.0
        assert full_scores["a"] == 0.5

    def test_shape_validation(self):
        users = LabelIndex(["a", "b"])
        with pytest.raises(ValidationError):
            PropagationScores(users, np.array([1.0]))
        with pytest.raises(ValidationError):
            PropagationScores(users, np.array([1.0, 2.0]), present=np.array([True]))


class TestAlgorithmsReturnScores:
    @pytest.fixture
    def web(self):
        return UserPairMatrix.from_pairs(
            ["a", "b", "c", "loner"], [("a", "b", 1.0), ("b", "c", 0.5), ("c", "a", 0.5)]
        )

    def test_eigen_trust_vector_matches_mapping(self, web):
        scores = eigen_trust(web)
        assert isinstance(scores, PropagationScores)
        vector = scores.scores_array()
        for position, label in enumerate(scores.users.labels):
            assert vector[position] == scores[label]
        assert vector.sum() == pytest.approx(1.0)

    def test_appleseed_masks_unreached_nodes(self, web):
        ranks = appleseed(web, "a")
        assert isinstance(ranks, PropagationScores)
        assert "loner" not in ranks
        assert ranks.scores_array()[ranks.users.position("loner")] == 0.0
        assert ranks["b"] > 0.0

    def test_empty_graph_equals_empty_dict(self):
        assert eigen_trust(UserPairMatrix([])) == {}
        assert len(eigen_trust(UserPairMatrix([])).scores_array()) == 0
