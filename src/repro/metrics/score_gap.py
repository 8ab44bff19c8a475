"""§IV.C's score-gap analysis of predicted edges.

The paper inspects the continuous ``T-hat`` values of *predicted* trust
edges separately on ``R ∩ T`` (actually trusted) and ``R - T`` (not -- or
not yet -- trusted), and reports that the mean and minimum on ``R - T``
are *higher*: the model's confident "false positives" look like trust
edges that simply have not been expressed yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix

__all__ = ["ScoreGapReport", "score_gap_analysis"]


@dataclass(frozen=True)
class ScoreGapReport:
    """Distribution of predicted ``T-hat`` values on the two regions."""

    trusted_count: int
    untrusted_count: int
    trusted_mean: float
    untrusted_mean: float
    trusted_min: float
    untrusted_min: float

    @property
    def mean_gap(self) -> float:
        """``mean(R - T) - mean(R ∩ T)`` (positive = the paper's finding)."""
        return self.untrusted_mean - self.trusted_mean

    @property
    def min_gap(self) -> float:
        """``min(R - T) - min(R ∩ T)`` (positive = the paper's finding)."""
        return self.untrusted_min - self.trusted_min


def score_gap_analysis(
    derived: UserPairMatrix,
    predicted: UserPairMatrix,
    connections: UserPairMatrix,
    ground_truth: UserPairMatrix,
) -> ScoreGapReport:
    """Compare predicted ``T-hat`` values on ``R ∩ T`` vs ``R - T``.

    Parameters
    ----------
    derived:
        Continuous derived trust values ``T-hat``.
    predicted:
        The binarised matrix (only pairs stored here are analysed).
    connections / ground_truth:
        ``R`` and ``T``.
    """
    for other in (predicted, connections, ground_truth):
        if derived.users != other.users:
            raise ValidationError("all matrices must share the same user axis")

    # join on sorted flat keys so the scores are summed in row-major order:
    # the means then do not depend on a set's hash order
    r_keys = connections.support_keys()
    analysed = r_keys[np.isin(r_keys, predicted.support_keys(), assume_unique=True)]
    scores = np.zeros(analysed.size)
    _, in_derived, in_analysed = np.intersect1d(
        derived.support_keys(), analysed, assume_unique=True, return_indices=True
    )
    scores[in_analysed] = derived.values()[in_derived]
    trusted = np.isin(analysed, ground_truth.support_keys(), assume_unique=True)
    trusted_scores = scores[trusted]
    untrusted_scores = scores[~trusted]

    return ScoreGapReport(
        trusted_count=int(trusted_scores.size),
        untrusted_count=int(untrusted_scores.size),
        trusted_mean=float(np.mean(trusted_scores)) if trusted_scores.size else 0.0,
        untrusted_mean=float(np.mean(untrusted_scores)) if untrusted_scores.size else 0.0,
        trusted_min=float(np.min(trusted_scores)) if trusted_scores.size else 0.0,
        untrusted_min=float(np.min(untrusted_scores)) if untrusted_scores.size else 0.0,
    )
