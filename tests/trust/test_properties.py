"""Property tests for Step 3: derivation and binarisation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.trust import binarize_top_k, derive_trust


@st.composite
def paired_matrices(draw):
    num_users = draw(st.integers(2, 7))
    num_categories = draw(st.integers(1, 4))
    def unit_matrix():
        return np.array(
            [
                [draw(st.floats(0, 1, allow_nan=False, width=32)) for _ in range(num_categories)]
                for _ in range(num_users)
            ]
        )
    users = [f"u{i}" for i in range(num_users)]
    categories = [f"c{j}" for j in range(num_categories)]
    A = UserCategoryMatrix(users, categories, unit_matrix())
    E = UserCategoryMatrix(users, categories, unit_matrix())
    return A, E


class TestDerivationProperties:
    @given(paired_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_equation_five(self, matrices):
        """The blocked sparse product must equal a literal eq.-5 loop."""
        A, E = matrices
        derived = derive_trust(A, E)
        users = list(A.users)
        categories = list(A.categories)
        for i, source in enumerate(users):
            denominator = sum(A.get(source, c) for c in categories)
            for j, target in enumerate(users):
                if i == j:
                    assert not derived.contains(source, target)
                    continue
                if denominator == 0.0:
                    assert not derived.contains(source, target)
                    continue
                expected = (
                    sum(A.get(source, c) * E.get(target, c) for c in categories)
                    / denominator
                )
                if expected > 0.0:
                    assert derived.get(source, target) == pytest.approx(expected)
                else:
                    assert not derived.contains(source, target)

    @given(paired_matrices())
    @settings(max_examples=40, deadline=None)
    def test_values_in_unit_interval(self, matrices):
        A, E = matrices
        for _, _, value in derive_trust(A, E).entries():
            assert 0.0 <= value <= 1.0 + 1e-9


@st.composite
def scored_rows(draw):
    num_users = draw(st.integers(2, 8))
    users = [f"u{i}" for i in range(num_users)]
    entries = [
        (source, target, draw(st.floats(0, 1, allow_nan=False, width=32)))
        for i, source in enumerate(users)
        for j, target in enumerate(users)
        if i != j and draw(st.booleans())
    ]
    matrix = UserPairMatrix.from_pairs(users, entries)
    k_values = {user: draw(st.floats(0, 1, allow_nan=False, width=16)) for user in users}
    return matrix, k_values


class TestBinarizeProperties:
    @given(scored_rows())
    @settings(max_examples=80, deadline=None)
    def test_row_sizes_and_support(self, data):
        matrix, k_values = data
        binary = binarize_top_k(matrix, k_values)
        # support subset of input support
        assert binary.support() <= matrix.support()
        for source in matrix.source_ids():
            n = matrix.row_size(source)
            expected = int(k_values[source] * n + 0.5 + 1e-9)
            assert binary.row_size(source) == min(expected, n)

    @given(scored_rows())
    @settings(max_examples=60, deadline=None)
    def test_selected_entries_dominate_unselected(self, data):
        """Every selected entry's score >= every unselected entry's score
        within the same row (top-k property)."""
        matrix, k_values = data
        binary = binarize_top_k(matrix, k_values)
        for source in matrix.source_ids():
            row = matrix.row(source)
            selected = {t for t in row if binary.contains(source, t)}
            unselected = set(row) - selected
            if selected and unselected:
                assert min(row[t] for t in selected) >= max(row[t] for t in unselected) - 1e-12
