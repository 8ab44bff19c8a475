"""Threshold-free ranking metrics (extensions used by ablation benches).

The paper's Table 4 depends on the per-user top-k binarisation; these
metrics evaluate the *continuous* scores directly, which makes ablation
comparisons insensitive to the binarisation rule:

- :func:`ranking_auc` -- probability that a random trusted pair in ``R``
  outscores a random untrusted pair in ``R``;
- :func:`spearman_rank_correlation` / :func:`top_k_overlap` -- agreement
  between two aligned score vectors (e.g. propagation results over the
  explicit vs the derived web), consumed directly from
  :meth:`repro.propagation.PropagationScores.scores_array` with no dict
  round-trip.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import require_positive
from repro.matrix import UserPairMatrix

__all__ = [
    "ranking_auc",
    "spearman_rank_correlation",
    "top_k_overlap",
]


def ranking_auc(
    scores: UserPairMatrix,
    connections: UserPairMatrix,
    ground_truth: UserPairMatrix,
) -> float:
    """Mann-Whitney AUC of ``scores`` separating ``R ∩ T`` from ``R - T``.

    Pairs absent from ``scores`` count as score 0 (no derived trust).
    Returns 0.5 when either class is empty.
    """
    _require_axis(scores, connections, ground_truth)
    positives: list[float] = []
    negatives: list[float] = []
    for source, target in connections.support():
        value = scores.get(source, target)
        if ground_truth.contains(source, target):
            positives.append(value)
        else:
            negatives.append(value)
    if not positives or not negatives:
        return 0.5
    pos = np.asarray(positives)
    neg = np.asarray(negatives)
    # rank-based Mann-Whitney U with tie correction
    ranks = _average_ranks(np.concatenate([pos, neg]))
    u_statistic = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2
    return float(u_statistic / (len(pos) * len(neg)))


def spearman_rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation of two aligned score vectors.

    ``a[i]`` and ``b[i]`` must score the same item (e.g. the same user
    axis position).  Ties get average ranks.  Returns 0 when either side
    is constant or shorter than 2 -- a degenerate ranking carries no
    order information to correlate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(
            f"score vectors must be equal-length 1-d arrays, got shapes "
            f"{a.shape} and {b.shape}"
        )
    if len(a) < 2 or np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    corr = np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1]
    return float(corr) if np.isfinite(corr) else 0.0


def top_k_overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Overlap of the top-``k`` positions of two aligned score vectors.

    Each side's top ``k`` is taken by descending score with ties broken
    by axis position (stable), matching a leaderboard cut-off.  Returns
    ``|top_a ∩ top_b| / min(len, k)`` (0 for empty vectors).
    """
    require_positive("k", k)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(
            f"score vectors must be equal-length 1-d arrays, got shapes "
            f"{a.shape} and {b.shape}"
        )
    if not len(a):
        return 0.0
    top_a = np.argsort(-a, kind="stable")[:k]
    top_b = np.argsort(-b, kind="stable")[:k]
    return len(np.intersect1d(top_a, top_b)) / min(len(a), k)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged, fully vectorised."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    n = len(values)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_vals[1:] != sorted_vals[:-1]
    group = np.cumsum(boundary) - 1
    starts = np.nonzero(boundary)[0]
    counts = np.diff(np.append(starts, n))
    # the average 1-based rank of a tie group spanning sorted positions
    # [s, s + c) is s + (c + 1) / 2
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = (starts + (counts + 1) / 2.0)[group]
    return ranks


def _require_axis(*matrices: UserPairMatrix) -> None:
    first = matrices[0]
    for other in matrices[1:]:
        if first.users != other.users:
            raise ValidationError("all matrices must share the same user axis")
