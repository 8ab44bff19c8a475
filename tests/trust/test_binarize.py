"""Tests for generousness and per-row top-k binarisation (§IV.C)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.trust import (
    binarize_top_k,
    direct_connection_matrix,
    generousness,
    ground_truth_matrix,
)


class TestGenerousness:
    def test_fixture_values(self, two_category_community):
        R = direct_connection_matrix(two_category_community)
        T = ground_truth_matrix(two_category_community)
        k = generousness(R, T)
        # bob: 1 connection (alice), trusts alice -> 1.0
        assert k["bob"] == pytest.approx(1.0)
        # dave: 3 connections (alice, bob, carol), trusts alice -> 1/3
        assert k["dave"] == pytest.approx(1 / 3)
        # alice: 1 connection (carol), trusts carol -> 1.0
        assert k["alice"] == pytest.approx(1.0)

    def test_users_without_connections_absent(self, two_category_community):
        R = direct_connection_matrix(two_category_community)
        T = ground_truth_matrix(two_category_community)
        k = generousness(R, T)
        assert "eve" not in k
        assert "carol" not in k

    def test_axis_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            generousness(UserPairMatrix(["a"]), UserPairMatrix(["b"]))

    def test_trust_outside_connections_ignored(self):
        R = UserPairMatrix(["a", "b", "c"])
        T = UserPairMatrix(["a", "b", "c"])
        R.set("a", "b", 1.0)
        T.set("a", "c", 1.0)  # trusted but never rated
        assert generousness(R, T)["a"] == 0.0


def generousness_by_row_scan(connections, ground_truth):
    """The per-row ``contains`` loop ``generousness`` replaced, as its oracle."""
    result = {}
    for source in connections.source_ids():
        row = connections.row(source)
        if not row:
            continue
        trusted = sum(1 for target in row if ground_truth.contains(source, target))
        result[source] = trusted / len(row)
    return result


#: u8 and u9 only ever trust (empty rows in R, T pairs outside R); u10 and
#: u11 are on the axis but absent from both matrices.
AXIS = [f"u{i}" for i in range(12)]

connection_entries = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 9), st.sampled_from([0.0, 0.5, 1.0])),
    max_size=40,
)
trust_entries = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40)


class TestGenerousnessAgainstRowScan:
    @given(connection_entries, trust_entries)
    @settings(max_examples=200, deadline=None)
    def test_matches_row_scan_exactly(self, r_entries, t_entries):
        R = UserPairMatrix(AXIS)
        for i, j, value in r_entries:
            R.set(AXIS[i], AXIS[j], value)  # 0.0 stores an explicit zero
        T = UserPairMatrix(AXIS)
        for i, j in t_entries:
            T.set(AXIS[i], AXIS[j], 1.0)

        expected = generousness_by_row_scan(R, T)
        actual = generousness(R, T)

        assert list(actual.items()) == list(expected.items())
        assert all(type(k) is float for k in actual.values())
        assert not {"u8", "u9", "u10", "u11"} & set(actual)


class TestBinarizeTopK:
    @pytest.fixture
    def scores(self):
        m = UserPairMatrix(["a", "b", "c", "d", "e"])
        m.set("a", "b", 0.9)
        m.set("a", "c", 0.7)
        m.set("a", "d", 0.5)
        m.set("a", "e", 0.3)
        m.set("b", "a", 0.6)
        return m

    def test_top_half(self, scores):
        binary = binarize_top_k(scores, {"a": 0.5, "b": 0.0})
        assert binary.row("a") == {"b": 1.0, "c": 1.0}
        assert binary.row("b") == {}

    def test_k_one_keeps_all(self, scores):
        binary = binarize_top_k(scores, {"a": 1.0, "b": 1.0})
        assert binary.row_size("a") == 4
        assert binary.row_size("b") == 1

    def test_k_zero_keeps_none(self, scores):
        binary = binarize_top_k(scores, {"a": 0.0, "b": 0.0})
        assert binary.num_entries() == 0

    def test_missing_user_uses_default(self, scores):
        binary = binarize_top_k(scores, {}, default_k=1.0)
        assert binary.num_entries() == 5

    def test_round_half_up(self, scores):
        # 0.375 * 4 = 1.5 -> rounds to 2 entries for row a
        binary = binarize_top_k(scores, {"a": 0.375, "b": 0.0})
        assert binary.row_size("a") == 2

    def test_exact_fraction_recovers_integer(self, scores):
        # k = 1/4 over 4 entries must keep exactly 1 even with float noise
        binary = binarize_top_k(scores, {"a": 1 / 4, "b": 0.0})
        assert binary.row("a") == {"b": 1.0}

    def test_ties_resolved_stably(self):
        m = UserPairMatrix(["a", "x", "y", "z"])
        m.set("a", "x", 0.5)
        m.set("a", "y", 0.5)
        m.set("a", "z", 0.5)
        binary = binarize_top_k(m, {"a": 1 / 3})
        assert binary.row("a") == {"x": 1.0}

    def test_output_is_binary(self, scores):
        binary = binarize_top_k(scores, {"a": 0.6, "b": 1.0})
        assert set(v for _, _, v in binary.entries()) == {1.0}

    def test_invalid_k_rejected(self, scores):
        with pytest.raises(ValidationError):
            binarize_top_k(scores, {"a": 1.5})
        with pytest.raises(ValidationError):
            binarize_top_k(scores, {}, default_k=-0.1)


class TestPaperPipelineShape:
    def test_baseline_binarisation_recall_equals_precision_count(
        self, two_category_community
    ):
        """Per §IV.C: applying k_i to a matrix with R's support selects
        exactly |R_i ∩ T_i| entries per row, so the number of selected
        pairs equals the number of true pairs."""
        from repro.trust import baseline_matrix

        R = direct_connection_matrix(two_category_community)
        T = ground_truth_matrix(two_category_community)
        B = baseline_matrix(two_category_community)
        k = generousness(R, T)
        binary = binarize_top_k(B, k)
        selected = binary.num_entries()
        truth_in_r = len(T.intersect_support(R))
        assert selected == truth_in_r
