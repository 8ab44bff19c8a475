"""The three Table-4 metrics (paper §IV.C).

All three are computed over the support of the direct-connection relation
``R``, because ``R`` is the only region where the paper has any evidence
about *non*-trust (an explicit trust edge means trust; a rated-but-not-
trusted pair means "no trust statement", which the paper is careful to call
non-trust rather than distrust):

- recall of trust:
  ``count(T'=1 & R=1 & T=1) / count(R=1 & T=1)``
- precision of trust in ``R``:
  ``count(T'=1 & R=1 & T=1) / count(R=1 & T'=1)``
- rate of predicting non-trust as trust in ``R - T``:
  ``count(T'=1 & R=1 & T=0) / count(R=1 & T=0)``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix

__all__ = ["TrustValidationMetrics", "validate_trust"]


@dataclass(frozen=True)
class TrustValidationMetrics:
    """Table-4 row for one model.

    Attributes
    ----------
    recall / precision_in_r / nontrust_as_trust_rate:
        The paper's three ratios (``0.0`` whenever the denominator is
        empty).
    true_positives:
        Predicted trust pairs that are direct connections and truly
        trusted.
    predicted_in_r:
        Predicted trust pairs that are direct connections.
    false_positives_in_r:
        Predicted trust pairs that are direct connections but *not*
        trusted.
    trust_in_r / nontrust_in_r:
        Sizes of ``R ∩ T`` and ``R - T`` (the two denominators).
    """

    recall: float
    precision_in_r: float
    nontrust_as_trust_rate: float
    true_positives: int
    predicted_in_r: int
    false_positives_in_r: int
    trust_in_r: int
    nontrust_in_r: int


def validate_trust(
    predicted: UserPairMatrix,
    connections: UserPairMatrix,
    ground_truth: UserPairMatrix,
) -> TrustValidationMetrics:
    """Compute the paper's three validation metrics.

    Parameters
    ----------
    predicted:
        A *binary* trust matrix (output of
        :func:`repro.trust.binarize_top_k`); any stored entry counts as a
        predicted trust edge.
    connections:
        The direct-connection relation ``R``.
    ground_truth:
        The explicit web of trust ``T``.
    """
    if connections.users != ground_truth.users or connections.users != predicted.users:
        raise ValidationError("all matrices must share the same user axis")

    r_keys = connections.support_keys()
    trusted = np.isin(r_keys, ground_truth.support_keys(), assume_unique=True)
    hits = np.isin(r_keys, predicted.support_keys(), assume_unique=True)
    trust_in_r = int(np.count_nonzero(trusted))
    nontrust_in_r = int(r_keys.size) - trust_in_r

    true_positives = int(np.count_nonzero(hits & trusted))
    false_positives = int(np.count_nonzero(hits & ~trusted))
    predicted_in_r = true_positives + false_positives

    return TrustValidationMetrics(
        recall=_ratio(true_positives, trust_in_r),
        precision_in_r=_ratio(true_positives, predicted_in_r),
        nontrust_as_trust_rate=_ratio(false_positives, nontrust_in_r),
        true_positives=true_positives,
        predicted_in_r=predicted_in_r,
        false_positives_in_r=false_positives,
        trust_in_r=trust_in_r,
        nontrust_in_r=nontrust_in_r,
    )


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
