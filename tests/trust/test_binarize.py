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
        R = UserPairMatrix.from_pairs(["a", "b", "c"], [("a", "b", 1.0)])
        T = UserPairMatrix.from_pairs(["a", "b", "c"], [("a", "c", 1.0)])  # never rated
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
        # 0.0 stores an explicit zero
        R = UserPairMatrix.from_pairs(AXIS, [(AXIS[i], AXIS[j], v) for i, j, v in r_entries])
        T = UserPairMatrix.from_pairs(AXIS, [(AXIS[i], AXIS[j], 1.0) for i, j in t_entries])

        expected = generousness_by_row_scan(R, T)
        actual = generousness(R, T)

        assert list(actual.items()) == list(expected.items())
        assert all(type(k) is float for k in actual.values())
        assert not {"u8", "u9", "u10", "u11"} & set(actual)


class TestBinarizeTopK:
    @pytest.fixture
    def scores(self):
        return UserPairMatrix.from_pairs(
            ["a", "b", "c", "d", "e"],
            [("a", "b", 0.9), ("a", "c", 0.7), ("a", "d", 0.5), ("a", "e", 0.3), ("b", "a", 0.6)],
        )

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
        # stored out of axis order: the tie still goes to the earliest position
        m = UserPairMatrix.from_pairs(
            ["a", "x", "y", "z"], [("a", "z", 0.5), ("a", "y", 0.5), ("a", "x", 0.5)]
        )
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


def binarize_by_row_loop(matrix, k_by_user, default_k=0.0):
    """The per-row loop ``binarize_top_k`` replaced, as its oracle."""
    kept = []
    for source in matrix.source_ids():
        row = matrix.row(source)
        keep = int(k_by_user.get(source, default_k) * len(row) + 0.5 + 1e-9)
        # stable: value descending, axis order on ties
        ranked = sorted(row.items(), key=lambda item: -item[1])
        kept.extend((source, target, 1.0) for target, _ in ranked[:keep])
    return UserPairMatrix.from_pairs(matrix.users, kept)


#: fractions whose product with a row size of 2-10 lands on .5 (1/4 * 2,
#: 3/8 * 4, 1/6 * 3, 0.1 * 5, 5/6 * 3, ...) or on an integer (1/3 * 3),
#: plus the ends
K_VALUES = [0.0, 0.1, 1 / 8, 1 / 6, 1 / 4, 0.3, 1 / 3, 3 / 8, 0.5, 2 / 3, 5 / 6, 1.0]
k_fractions = st.one_of(st.sampled_from(K_VALUES), st.floats(0, 1))

#: few distinct values, so rows tie at the cut; 0.0 is an explicit zero
score_entries = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, 9),
        st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(-1, 1)),
    ),
    max_size=60,
)


class TestBinarizeAgainstRowLoop:
    @given(
        score_entries,
        # u10 and u11 are on the axis but never rated; ghost is off it
        st.dictionaries(st.sampled_from(AXIS + ["ghost"]), k_fractions),
        k_fractions,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop_exactly(self, entries, k_by_user, default_k):
        matrix = UserPairMatrix.from_pairs(
            AXIS, [(AXIS[i], AXIS[j], v) for i, j, v in entries]
        )
        expected = binarize_by_row_loop(matrix, k_by_user, default_k)
        assert binarize_top_k(matrix, k_by_user, default_k=default_k) == expected

    def test_float_noise_below_half_still_rounds_up(self):
        # 0.7 * 45 is 31.499999999999996 in floats, 31.5 exactly
        users = [f"u{i}" for i in range(46)]
        matrix = UserPairMatrix.from_pairs(
            users, [("u0", target, 1.0 / (j + 1)) for j, target in enumerate(users[1:])]
        )
        binary = binarize_top_k(matrix, {"u0": 0.7})
        assert binary.row_size("u0") == 32
        assert binary == binarize_by_row_loop(matrix, {"u0": 0.7})


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
