"""Orchestration of Step 1 over a whole community.

:class:`ExpertiseEstimator` solves every category's fixed point and the
writer aggregation of a community and assembles:

- the paper's **Users_Category Expertise matrix** ``E`` (writer reputation
  per category, eq. 3) -- the direct input to Step 3;
- a companion **rater-reputation matrix** (eq. 2), which the paper's
  Table 2 evaluates;
- per-category review qualities and convergence diagnostics.

Step 1 runs on the community's columnar view in two calls: one
:func:`repro.reputation.riggs.solve_all_categories` sweeps every
category's fixed point simultaneously, and :func:`scatter_fixed_points`
writes both matrices straight from the slot arrays -- no per-category
Python materialisation.  :class:`repro.reputation.IncrementalExpertise`
makes the same two calls for the categories that changed.
"""

# repro: hot-path

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, concat_ranges
from repro.community import Community
from repro.community.columnar import CommunityColumns
from repro.matrix import UserCategoryMatrix
from repro.reputation.riggs import (
    BatchedFixedPoints,
    CategoryFixedPoint,
    LazyFixedPoints,
    RiggsConfig,
    solve_all_categories,
)
from repro.reputation.writer import require_unrated_policy, writer_reputation_matrix

__all__ = ["ExpertiseEstimator", "ExpertiseResult", "scatter_fixed_points"]


@dataclass(frozen=True)
class ExpertiseResult:
    """Everything Step 1 produces for one community.

    Attributes
    ----------
    expertise:
        ``E`` -- writer reputation per (user, category); zero where the user
        wrote nothing (or nothing rated) in the category.
    rater_reputation:
        Rater reputation per (user, category); zero where the user rated
        nothing in the category.
    fixed_points:
        The raw per-category solver output (qualities, reputations,
        iteration counts).  A mapping; the batched solver supplies a lazy
        view that materialises each category's dicts on first access.
    """

    expertise: UserCategoryMatrix
    rater_reputation: UserCategoryMatrix
    fixed_points: Mapping[str, CategoryFixedPoint]

    def review_quality(self, category_id: str) -> dict[str, float]:
        """Converged review qualities for one category."""
        return dict(self.fixed_points[category_id].review_quality)

    def iterations(self) -> dict[str, int]:
        """Solver sweeps needed per category."""
        return {c: fp.iterations for c, fp in self.fixed_points.items()}


def scatter_fixed_points(
    columns: CommunityColumns,
    batch: BatchedFixedPoints,
    expertise: FloatArray,
    rater_reputation: FloatArray,
    *,
    experience_discount_enabled: bool,
    unrated_policy: str,
) -> None:
    """Write the categories ``batch`` solved into ``E`` and the rater matrix.

    ``expertise`` and ``rater_reputation`` are dense ``(users, categories)``
    arrays on ``columns``' axes.  Each solved category's column is
    overwritten in both (eq. 3 over the category's reviews, and the rater
    slots); every other column is left as it is.  A cell accumulates its
    category's reviews in axis order whichever subset was solved, so a
    column is bitwise the same as in a cold fit of every category.
    """
    solved = batch.solved_categories
    bounds = columns.review_cat_starts
    lengths = bounds[solved + 1] - bounds[solved]
    # the solved categories' reviews, rated or not, category-major
    reviews = concat_ranges(bounds[solved], lengths)
    expertise[:, solved] = writer_reputation_matrix(
        columns.review_writer_idx[reviews],
        np.repeat(np.arange(len(solved), dtype=np.int64), lengths),
        len(columns.users),
        len(solved),
        np.searchsorted(reviews, batch.rated_review_idx),
        batch.quality,
        experience_discount_enabled=experience_discount_enabled,
        unrated_policy=unrated_policy,
    )
    rater_reputation[:, solved] = 0.0
    rater_reputation[batch.rater_slot_user, batch.rater_slot_category_idx] = (
        batch.reputation
    )


class ExpertiseEstimator:
    """Computes Step 1 (eqs. 1-3) for every category of a community.

    Parameters
    ----------
    config:
        Fixed-point configuration shared by all categories.
    unrated_policy:
        ``"exclude"``, ``"zero"`` or ``"strict"``: how eq. 3 treats unrated
        reviews (see :func:`repro.reputation.writer.writer_reputation_matrix`).

    Example
    -------
    >>> estimator = ExpertiseEstimator()
    >>> result = estimator.fit(community)
    >>> result.expertise.get("u000001", "c000000")
    0.7...
    """

    def __init__(
        self,
        config: RiggsConfig | None = None,
        *,
        unrated_policy: str = "exclude",
    ) -> None:
        require_unrated_policy(unrated_policy)
        self.config = config or RiggsConfig()
        self.unrated_policy = unrated_policy

    def fit(self, community: Community) -> ExpertiseResult:
        """Run Step 1 on ``community`` and return all reputation artefacts."""
        with obs.span("step1.fit", users=community.num_users()):
            columns = community.columns()
            batch = solve_all_categories(columns, self.config)
            shape = (len(columns.users), len(columns.categories))
            expertise = np.zeros(shape)
            rater_reputation = np.zeros(shape)
            scatter_fixed_points(
                columns,
                batch,
                expertise,
                rater_reputation,
                experience_discount_enabled=self.config.experience_discount_enabled,
                unrated_policy=self.unrated_policy,
            )
            return ExpertiseResult(
                expertise=UserCategoryMatrix(columns.users, columns.categories, expertise),
                rater_reputation=UserCategoryMatrix(
                    columns.users, columns.categories, rater_reputation
                ),
                fixed_points=LazyFixedPoints(dict.fromkeys(columns.categories, batch)),
            )
