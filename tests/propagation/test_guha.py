"""Tests for Guha et al.'s atomic propagations."""

import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.propagation import GuhaWeights, guha_propagation

USERS = ["a", "b", "c", "d"]


def trust(pairs):
    return UserPairMatrix.from_pairs(USERS, [(source, target, 1.0) for source, target in pairs])


class TestAtomicPropagations:
    def test_direct_propagation_two_hops(self):
        # a->b->c: direct-only propagation with 2 steps reaches c
        result = guha_propagation(
            trust([("a", "b"), ("b", "c")]),
            weights=GuhaWeights(direct=1.0, co_citation=0, transpose=0, coupling=0),
            steps=2,
        )
        assert result.get("a", "c") > 0.0

    def test_one_step_does_not_reach_two_hops(self):
        result = guha_propagation(
            trust([("a", "b"), ("b", "c")]),
            weights=GuhaWeights(direct=1.0, co_citation=0, transpose=0, coupling=0),
            steps=1,
        )
        assert not result.contains("a", "c")

    def test_co_citation(self):
        # a trusts both b and c: (T^T T) links the co-cited trustees b and c
        # in both directions ("trusted by the same people")
        matrix = trust([("a", "b"), ("a", "c"), ("d", "c")])
        result = guha_propagation(
            matrix,
            weights=GuhaWeights(direct=0, co_citation=1.0, transpose=0, coupling=0),
            steps=1,
        )
        assert result.get("b", "c") > 0.0
        assert result.get("c", "b") > 0.0
        # d and a share no trustee with anyone... they do: both trust c, so
        # coupling (T T^T) would link d and a -- but co-citation must not
        assert not result.contains("d", "a")

    def test_coupling(self):
        # a and d both trust c: trust coupling (T T^T) links a and d
        matrix = trust([("a", "c"), ("d", "c")])
        result = guha_propagation(
            matrix,
            weights=GuhaWeights(direct=0, co_citation=0, transpose=0, coupling=1.0),
            steps=1,
        )
        assert result.get("a", "d") > 0.0
        assert result.get("d", "a") > 0.0

    def test_transpose(self):
        result = guha_propagation(
            trust([("a", "b")]),
            weights=GuhaWeights(direct=0, co_citation=0, transpose=1.0, coupling=0),
            steps=1,
        )
        assert result.get("b", "a") > 0.0

    def test_diagonal_removed(self):
        result = guha_propagation(trust([("a", "b"), ("b", "a")]), steps=2)
        assert not result.contains("a", "a")
        assert not result.contains("b", "b")

    def test_decay_reduces_later_steps(self):
        matrix = trust([("a", "b"), ("b", "c"), ("c", "d")])
        weights = GuhaWeights(direct=1.0, co_citation=0, transpose=0, coupling=0)
        shallow = guha_propagation(matrix, weights=weights, steps=3, decay=0.1)
        deep = guha_propagation(matrix, weights=weights, steps=3, decay=0.9)
        # 3-hop value (a -> d) relatively stronger with slower decay
        assert deep.get("a", "d") > shallow.get("a", "d")

    def test_top_k_limits_row_size(self):
        pairs = [("a", t) for t in ("b", "c", "d")]
        pairs += [("b", "c"), ("b", "d"), ("c", "d")]
        result = guha_propagation(trust(pairs), steps=3, top_k=2)
        for source in result.source_ids():
            assert result.row_size(source) <= 2

    def test_axis_preserved(self):
        result = guha_propagation(trust([("a", "b")]), steps=1)
        assert list(result.users) == USERS


class TestValidation:
    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            GuhaWeights(direct=-0.1)
        with pytest.raises(ValidationError):
            GuhaWeights(direct=0, co_citation=0, transpose=0, coupling=0)

    def test_parameter_validation(self):
        matrix = trust([("a", "b")])
        with pytest.raises(ValidationError):
            guha_propagation(matrix, steps=0)
        with pytest.raises(ValidationError):
            guha_propagation(matrix, decay=0.0)
        with pytest.raises(ValidationError):
            guha_propagation(matrix, top_k=0)
