"""Tests for the Fig.-3 density report."""

import pytest

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.metrics import density_report

USERS = ["a", "b", "c", "d"]


def matrix(pairs):
    return UserPairMatrix.from_pairs(USERS, [(source, target, 1.0) for source, target in pairs])


class TestDensityReport:
    @pytest.fixture
    def report(self):
        derived = matrix([("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "a")])
        R = matrix([("a", "b"), ("b", "c"), ("c", "d")])
        T = matrix([("a", "b"), ("c", "a")])
        return density_report(derived, R, T)

    def test_entry_counts(self, report):
        assert report.derived_entries == 5
        assert report.connection_entries == 3
        assert report.trust_entries == 2

    def test_overlap_regions(self, report):
        assert report.trust_in_connections == 1  # (a, b)
        assert report.trust_outside_connections == 1  # (c, a)
        assert report.nontrust_in_connections == 2  # (b, c), (c, d)

    def test_densities_over_ordered_pairs(self, report):
        assert report.derived_density == pytest.approx(5 / 12)
        assert report.connection_density == pytest.approx(3 / 12)
        assert report.trust_density == pytest.approx(2 / 12)

    def test_densification_ratios(self, report):
        assert report.densification_vs_trust == pytest.approx(2.5)
        assert report.densification_vs_connections == pytest.approx(5 / 3)

    def test_zero_trust_edges(self):
        derived = matrix([("a", "b")])
        report = density_report(derived, matrix([]), matrix([]))
        assert report.densification_vs_trust == 0.0
        assert report.densification_vs_connections == 0.0

    def test_axis_mismatch(self):
        with pytest.raises(ValidationError):
            density_report(matrix([]), UserPairMatrix(["x"]), matrix([]))
