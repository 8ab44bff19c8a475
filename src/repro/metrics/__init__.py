"""Evaluation metrics for the paper's experiments (§IV).

- :func:`validate_trust` -- the three Table-4 metrics (recall of trust,
  precision of trust in ``R``, rate of predicting non-trust as trust in
  ``R - T``);
- :func:`quartile_distribution` -- the Table-2/3 methodology (rank users by
  estimated reputation per category, count designated experts per
  quartile);
- :func:`density_report` -- Fig. 3 (sizes and densities of ``T-hat``,
  ``R``, ``T`` and their overlaps);
- :func:`score_gap_analysis` -- §IV.C's comparison of predicted trust
  values on ``R ∩ T`` vs ``R - T``;
- :func:`ranking_auc` -- a threshold-free extension metric used by the
  ablation experiments;
- :func:`spearman_rank_correlation` / :func:`top_k_overlap` -- vector
  agreement metrics for comparing propagation score vectors.
"""

from repro.metrics.confusion import TrustValidationMetrics, validate_trust
from repro.metrics.density import DensityReport, density_report
from repro.metrics.quartiles import (
    CategoryQuartiles,
    QuartileReport,
    quartile_distribution,
)
from repro.metrics.ranking import (
    ranking_auc,
    spearman_rank_correlation,
    top_k_overlap,
)
from repro.metrics.score_gap import ScoreGapReport, score_gap_analysis

__all__ = [
    "TrustValidationMetrics",
    "validate_trust",
    "CategoryQuartiles",
    "QuartileReport",
    "quartile_distribution",
    "DensityReport",
    "density_report",
    "ScoreGapReport",
    "score_gap_analysis",
    "ranking_auc",
    "spearman_rank_correlation",
    "top_k_overlap",
]
