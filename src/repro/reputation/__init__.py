"""Step 1 of the paper: reputation from rating data (Riggs' model).

Per category, the package computes three mutually-dependent quantities:

- **review quality** ``q(r_j)`` -- the rater-reputation-weighted mean of the
  helpfulness ratings a review received (eq. 1);
- **rater reputation** -- how consistently a rater rates reviews near their
  final quality, discounted for low rating activity (eq. 2);
- **writer reputation / expertise** -- the mean quality of a writer's
  reviews in the category, discounted for low writing activity (eq. 3).

Qualities and rater reputations are solved together as a fixed point by
one kernel, :func:`solve_all_categories`, which sweeps any set of
categories at once; writer reputations follow in one pass
(:func:`writer_reputation_matrix`).  :class:`ExpertiseEstimator` runs both
over every category of a :class:`repro.community.Community` into the
paper's Users_Category Expertise matrix ``E``, and
:class:`IncrementalExpertise` re-runs them on the categories that changed.
The dict-based per-category solver survives only as the test oracle
:func:`repro.perf.reference.solve_category`.
"""

from repro.reputation.estimator import ExpertiseEstimator, ExpertiseResult
from repro.reputation.incremental import IncrementalExpertise
from repro.reputation.riggs import (
    BatchedFixedPoints,
    CategoryFixedPoint,
    LazyFixedPoints,
    RiggsConfig,
    experience_discount,
    solve_all_categories,
)
from repro.reputation.writer import writer_reputation_matrix

__all__ = [
    "RiggsConfig",
    "CategoryFixedPoint",
    "BatchedFixedPoints",
    "LazyFixedPoints",
    "solve_all_categories",
    "experience_discount",
    "writer_reputation_matrix",
    "ExpertiseEstimator",
    "ExpertiseResult",
    "IncrementalExpertise",
]
