"""Step 3 of the paper: deriving the web of trust, plus §IV.C machinery.

- :func:`derive_web` -- Steps 1-3 on one community: ``E``, ``A`` and
  ``T-hat``;
- :func:`derive_trust` -- the derived trust matrix
  ``T-hat_ij = sum_c A_ic E_jc / sum_c A_ic`` (eq. 5);
- :func:`direct_connection_matrix` / :func:`baseline_matrix` /
  :func:`ground_truth_matrix` -- the paper's ``R``, ``B`` and ``T``;
- :func:`generousness` and :func:`binarize_top_k` -- the per-user top-k(%)
  conversion of continuous trust values into a binary web of trust;
- :func:`web_analysis` / :func:`coverage_comparison` -- reachability,
  path lengths and strongly connected components of a web of trust.

Every trust matrix is a :class:`repro.matrix.UserPairMatrix`, which the
propagation models (:mod:`repro.propagation`) take as they are.
"""

from repro.trust.analysis import WebAnalysis, coverage_comparison, web_analysis
from repro.trust.binarize import binarize_top_k, generousness
from repro.trust.connections import (
    baseline_matrix,
    direct_connection_matrix,
    ground_truth_matrix,
)
from repro.trust.derive import TrustDeriver, derive_trust
from repro.trust.web import derive_web

__all__ = [
    "derive_web",
    "derive_trust",
    "TrustDeriver",
    "direct_connection_matrix",
    "baseline_matrix",
    "ground_truth_matrix",
    "generousness",
    "binarize_top_k",
    "WebAnalysis",
    "web_analysis",
    "coverage_comparison",
]
