"""§V future work: propagate the derived web of trust and compare.

The paper closes with: "we will propagate our derived web of trust and
compare the propagation results between our web of trust and a web of
trust constructed with users' explicit trust rating."  This experiment
does exactly that:

- run **EigenTrust** over the explicit web ``T`` and over the derived
  binary web ``T-hat'`` and compare the global rankings (Spearman rank
  correlation and top-k overlap);
- run **Appleseed** from a sample of sources over both webs and compare
  the personalised rankings the same way.

High agreement means the rating-derived web can stand in for the explicit
one as a propagation substrate -- the framework's whole point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import require_positive
from repro.experiments.pipeline import PipelineArtifacts
from repro.metrics import spearman_rank_correlation, top_k_overlap
from repro.propagation import appleseed, eigen_trust
from repro.reporting import format_float, render_table

__all__ = ["PropagationComparison", "run_propagation_comparison", "render_propagation_comparison"]


@dataclass(frozen=True)
class PropagationComparison:
    """Agreement between propagation over explicit vs derived webs."""

    eigentrust_rank_correlation: float
    eigentrust_top_k: int
    eigentrust_top_k_overlap: float
    appleseed_sources: int
    appleseed_mean_rank_correlation: float
    appleseed_top_k: int
    appleseed_mean_top_k_overlap: float


def run_propagation_comparison(
    artifacts: PipelineArtifacts,
    *,
    top_k: int = 25,
    num_sources: int = 20,
    seed: int = 0,
) -> PropagationComparison:
    """Compare propagation over ``T`` vs over the derived ``T-hat'``.

    Parameters
    ----------
    top_k:
        Size of the head of each ranking compared for overlap.
    num_sources:
        Number of (well-connected) source users for the Appleseed
        comparison.
    """
    require_positive("top_k", top_k)
    require_positive("num_sources", num_sources)

    # the propagation models consume the matrices' cached CSR directly
    explicit_web = artifacts.ground_truth
    derived_web = artifacts.derived_binary
    if explicit_web.users != derived_web.users:
        raise ValidationError(
            "explicit and derived webs must share the same user axis"
        )

    # both score vectors live on the shared user axis, so the ranking
    # metrics consume them directly -- no dict round-trip
    explicit_vector = eigen_trust(explicit_web).scores_array()
    derived_vector = eigen_trust(derived_web).scores_array()
    eigen_corr = spearman_rank_correlation(explicit_vector, derived_vector)
    eigen_overlap = top_k_overlap(explicit_vector, derived_vector, top_k)

    # Appleseed from sources with explicit out-edges in both webs
    users = list(explicit_web.users)
    candidates = [
        u
        for u in users
        if artifacts.ground_truth.row_size(u) >= 3 and artifacts.derived_binary.row_size(u) >= 3
    ]
    rng = np.random.default_rng(seed)
    if len(candidates) > num_sources:
        chosen = [candidates[int(i)] for i in rng.choice(len(candidates), num_sources, replace=False)]
    else:
        chosen = candidates

    correlations = []
    overlaps = []
    for source in chosen:
        explicit_ranks = appleseed(explicit_web, source)
        derived_ranks = appleseed(derived_web, source)
        # restrict to nodes either propagation reached, minus the source
        # (it keeps rank 0 by construction on both sides)
        reached = explicit_ranks.present_mask() | derived_ranks.present_mask()
        shared = reached.copy()
        shared[explicit_ranks.users.position(source)] = False
        if int(shared.sum()) < 3:
            continue
        a = explicit_ranks.scores_array()
        b = derived_ranks.scores_array()
        correlations.append(spearman_rank_correlation(a[shared], b[shared]))
        overlaps.append(top_k_overlap(a[reached], b[reached], top_k))

    return PropagationComparison(
        eigentrust_rank_correlation=eigen_corr,
        eigentrust_top_k=top_k,
        eigentrust_top_k_overlap=eigen_overlap,
        appleseed_sources=len(correlations),
        appleseed_mean_rank_correlation=float(np.mean(correlations)) if correlations else 0.0,
        appleseed_top_k=top_k,
        appleseed_mean_top_k_overlap=float(np.mean(overlaps)) if overlaps else 0.0,
    )


def render_propagation_comparison(result: PropagationComparison) -> str:
    """Render the propagation comparison as aligned text."""
    rows = [
        [
            "EigenTrust (global)",
            format_float(result.eigentrust_rank_correlation),
            f"{format_float(result.eigentrust_top_k_overlap)} @ {result.eigentrust_top_k}",
            "-",
        ],
        [
            "Appleseed (personalised)",
            format_float(result.appleseed_mean_rank_correlation),
            f"{format_float(result.appleseed_mean_top_k_overlap)} @ {result.appleseed_top_k}",
            str(result.appleseed_sources),
        ],
    ]
    return render_table(
        ["Propagation model", "rank correlation", "top-k overlap", "sources"],
        rows,
        title="Propagation over explicit vs derived web of trust (paper §V)",
    )


