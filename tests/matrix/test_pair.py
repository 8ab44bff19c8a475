"""Tests for UserPairMatrix."""

import numpy as np
import pytest
from scipy import sparse

from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix


USERS = ["u1", "u2", "u3"]
TRIPLES = [("u1", "u2", 0.8), ("u1", "u3", 0.3), ("u2", "u1", 0.5)]


@pytest.fixture
def matrix():
    return UserPairMatrix.from_pairs(USERS, TRIPLES)


class TestWrites:
    """The values a matrix is built from (:meth:`from_pairs`) read back."""

    def test_set_get(self, matrix):
        assert matrix.get("u1", "u2") == pytest.approx(0.8)

    def test_get_default_for_absent(self, matrix):
        assert matrix.get("u3", "u1") == 0.0
        assert matrix.get("u3", "u1", default=-1.0) == -1.0

    def test_overwrite_does_not_double_count(self):
        m = UserPairMatrix.from_pairs(USERS, TRIPLES + [("u1", "u2", 0.9)])
        assert m.num_entries() == 3
        assert m.get("u1", "u2") == pytest.approx(0.9)

    def test_explicit_zero_is_stored(self):
        m = UserPairMatrix.from_pairs(USERS, TRIPLES + [("u3", "u1", 0.0)])
        assert m.contains("u3", "u1")
        assert m.num_entries() == 4

    def test_non_finite_rejected(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match="finite"):
                UserPairMatrix.from_pairs(USERS, TRIPLES + [("u1", "u2", value)])

    def test_bool_rejected(self):
        with pytest.raises(ValidationError, match="number"):
            UserPairMatrix.from_pairs(USERS, [("u1", "u2", True)])

    def test_non_number_rejected(self):
        for value in ("0.5", None, [0.5]):
            with pytest.raises(ValidationError, match="number"):
                UserPairMatrix.from_pairs(USERS, {("u1", "u2"): value})

    def test_unknown_user_rejected(self):
        with pytest.raises(KeyError):
            UserPairMatrix.from_pairs(USERS, [("ghost", "u1", 0.5)])


class TestReads:
    def test_row(self, matrix):
        assert matrix.row("u1") == {"u2": 0.8, "u3": 0.3}
        assert matrix.row("u3") == {}

    def test_row_size(self, matrix):
        assert matrix.row_size("u1") == 2
        assert matrix.row_size("u3") == 0

    def test_source_ids(self, matrix):
        assert set(matrix.source_ids()) == {"u1", "u2"}

    def test_entries(self, matrix):
        triples = set(matrix.entries())
        assert ("u1", "u2", 0.8) in triples
        assert len(triples) == 3

    def test_support(self, matrix):
        assert matrix.support() == {("u1", "u2"), ("u1", "u3"), ("u2", "u1")}

    def test_density(self, matrix):
        # 3 entries out of 3*2 ordered pairs
        assert matrix.density() == pytest.approx(0.5)

    def test_density_empty_axis(self):
        assert UserPairMatrix([]).density() == 0.0

    def test_values(self, matrix):
        assert sorted(matrix.values()) == pytest.approx([0.3, 0.5, 0.8])


class TestCsrRoundtrip:
    def test_to_csr_shape_and_values(self, matrix):
        csr = matrix.to_csr()
        assert csr.shape == (3, 3)
        assert csr[0, 1] == pytest.approx(0.8)
        assert csr[1, 0] == pytest.approx(0.5)

    def test_from_csr_roundtrip(self, matrix):
        rebuilt = UserPairMatrix.from_csr(matrix.to_csr(), matrix.users)
        assert rebuilt == matrix

    def test_from_csr_drops_zeros_by_default(self):
        users = LabelIndex(["a", "b"])
        csr = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        m = UserPairMatrix.from_csr(csr, users)
        assert m.num_entries() == 1

    def test_from_csr_shape_mismatch(self):
        with pytest.raises(ValidationError):
            UserPairMatrix.from_csr(sparse.csr_matrix((2, 2)), LabelIndex(["a"]))


class TestSetOperations:
    def test_intersect_support(self, matrix):
        other = UserPairMatrix.from_pairs(matrix.users, [("u1", "u2", 1.0), ("u3", "u1", 1.0)])
        assert matrix.intersect_support(other) == {("u1", "u2")}

    def test_subtract_support(self, matrix):
        other = UserPairMatrix.from_pairs(matrix.users, [("u1", "u2", 1.0)])
        assert matrix.subtract_support(other) == {("u1", "u3"), ("u2", "u1")}

    def test_restrict_to(self, matrix):
        restricted = matrix.restrict_to({("u1", "u3"), ("u2", "u1")})
        assert restricted.support() == {("u1", "u3"), ("u2", "u1")}
        assert restricted.get("u1", "u3") == pytest.approx(0.3)

    def test_axis_mismatch_rejected(self, matrix):
        other = UserPairMatrix(["u1", "u2"])
        with pytest.raises(ValidationError, match="axes differ"):
            matrix.intersect_support(other)

    def test_from_pairs_mapping(self):
        m = UserPairMatrix.from_pairs(["a", "b"], {("a", "b"): 0.5})
        assert m.get("a", "b") == 0.5

    def test_from_pairs_triples(self):
        m = UserPairMatrix.from_pairs(["a", "b"], [("b", "a", 0.25)])
        assert m.get("b", "a") == 0.25
