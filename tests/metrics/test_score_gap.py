"""Tests for the §IV.C score-gap analysis."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.matrix import UserPairMatrix
from repro.metrics import score_gap_analysis

USERS = ["a", "b", "c", "d"]


def scores(entries):
    return UserPairMatrix.from_pairs(USERS, entries)


def binary(pairs):
    return UserPairMatrix.from_pairs(USERS, [(source, target, 1.0) for source, target in pairs])


class TestScoreGap:
    def test_separates_regions(self):
        derived = scores([("a", "b", 0.9), ("a", "c", 0.4), ("a", "d", 0.7)])
        predicted = binary([("a", "b"), ("a", "c"), ("a", "d")])
        R = binary([("a", "b"), ("a", "c"), ("a", "d")])
        T = binary([("a", "b")])
        report = score_gap_analysis(derived, predicted, R, T)
        assert report.trusted_count == 1
        assert report.untrusted_count == 2
        assert report.trusted_mean == pytest.approx(0.9)
        assert report.untrusted_mean == pytest.approx(0.55)
        assert report.untrusted_min == pytest.approx(0.4)
        assert report.mean_gap == pytest.approx(-0.35)

    def test_only_predicted_pairs_analysed(self):
        derived = scores([("a", "b", 0.9), ("a", "c", 0.1)])
        predicted = binary([("a", "b")])  # (a, c) not predicted
        R = binary([("a", "b"), ("a", "c")])
        T = binary([])
        report = score_gap_analysis(derived, predicted, R, T)
        assert report.untrusted_count == 1
        assert report.untrusted_mean == pytest.approx(0.9)

    def test_pairs_outside_r_ignored(self):
        derived = scores([("b", "c", 0.8)])
        predicted = binary([("b", "c")])
        R = binary([])  # (b, c) predicted but not a connection
        T = binary([("b", "c")])
        report = score_gap_analysis(derived, predicted, R, T)
        assert report.trusted_count == 0
        assert report.untrusted_count == 0
        assert report.trusted_mean == 0.0

    def test_gap_properties(self):
        derived = scores([("a", "b", 0.2), ("a", "c", 0.6)])
        predicted = binary([("a", "b"), ("a", "c")])
        R = binary([("a", "b"), ("a", "c")])
        T = binary([("a", "b")])
        report = score_gap_analysis(derived, predicted, R, T)
        # untrusted (0.6) scores above trusted (0.2): positive gaps
        assert report.mean_gap == pytest.approx(0.4)
        assert report.min_gap == pytest.approx(0.4)

    def test_report_does_not_depend_on_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED, so means summed in set
        # order would differ in the last digit from one process to the next
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        code = (
            "from repro.experiments import paper_profile, run_pipeline, run_score_gap\n"
            "print(repr(run_score_gap(run_pipeline(paper_profile(400), seed=7))))\n"
        )
        reports = []
        for hash_seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            reports.append(result.stdout)
        assert reports[0] == reports[1]
