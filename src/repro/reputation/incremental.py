"""Incremental maintenance of Step 1 as new data arrives.

A production deployment does not re-run the whole framework on every new
rating.  Because eqs. 1-3 are computed *per category* and categories are
independent, only the categories that received new data need re-solving.
A refresh makes the same two calls as a cold :class:`ExpertiseEstimator`
fit, on the stale categories only: one
:func:`repro.reputation.riggs.solve_all_categories` over all of them and
one :func:`repro.reputation.estimator.scatter_fixed_points` into the cached
matrices.  Each re-solve starts cold, so a refresh is bitwise equal to a
full fit.

:class:`IncrementalExpertise` reads which categories went stale from the
community's record columns: they only grow, so a category whose review or
rating count moved since the :meth:`repro.community.Community.columns`
snapshot the tracker last absorbed, or that lies beyond that snapshot's
category axis, is stale, and no other is.  There is no manual
dirty-flagging step.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.common.errors import ValidationError
from repro.community import Community, CommunityColumns
from repro.matrix import LabelIndex, UserCategoryMatrix
from repro.reputation.estimator import (
    ExpertiseEstimator,
    ExpertiseResult,
    scatter_fixed_points,
)
from repro.reputation.riggs import (
    BatchedFixedPoints,
    LazyFixedPoints,
    solve_all_categories,
)

__all__ = ["IncrementalExpertise"]


class IncrementalExpertise:
    """Maintains expertise/rater reputation under community mutations.

    Usage::

        tracker = IncrementalExpertise(community)
        result = tracker.fit()          # full initial solve
        community.add_rating(...)       # new activity arrives
        result = tracker.refresh()      # re-solves affected categories only

    ``refresh`` is bitwise equal to a fresh
    :class:`repro.reputation.ExpertiseEstimator` fit of the current
    community state: every re-solved category starts cold, and a category
    gets the same bits whichever subset of categories it is solved in.

    New users and categories are handled by index growth: both axes are
    append-only, so previously computed columns keep their positions.
    Objects and trust statements never enter eqs. 1-3, and a new user has
    no activity until a review or rating of theirs arrives, so none of
    these makes a category stale.  A returned result never changes
    afterwards: its matrices are copies of the caches, and its
    ``fixed_points`` map each category to the batch that had last solved
    it, which no later refresh writes to.
    """

    def __init__(self, community: Community) -> None:
        self._community = community
        # a refresh solves with the settings of a default cold fit
        self._estimator = ExpertiseEstimator()
        # the axes and per-category record counts (reviews plus ratings)
        # of the columns() snapshot last absorbed; nothing is absorbed yet
        self._users = LabelIndex(())
        self._categories = LabelIndex(())
        self._record_counts = np.zeros(0, dtype=np.int64)
        # the batch that last solved each category, in category-axis order
        self._solved_by: dict[str, BatchedFixedPoints] = {}
        # dense column caches of E and the rater-reputation matrix; a
        # refresh rewrites only the re-solved categories' columns
        self._e_values = np.zeros((0, 0))
        self._r_values = np.zeros((0, 0))
        self._dirty: set[str] = set()
        self._last_resolved: tuple[str, ...] = ()

    # ------------------------------------------------------------------ status

    @property
    def dirty_categories(self) -> set[str]:
        """Categories whose reputation data is stale, as of the current records."""
        self._absorb()
        return set(self._dirty)

    @property
    def last_resolved(self) -> tuple[str, ...]:
        """Categories re-solved by the most recent :meth:`refresh` (sorted)."""
        return self._last_resolved

    # ------------------------------------------------------------------ solving

    def fit(self) -> ExpertiseResult:
        """Initial full solve (equivalent to ``ExpertiseEstimator.fit``)."""
        self._absorb()
        self._dirty = set(self._categories)
        return self.refresh()

    def refresh(self) -> ExpertiseResult:
        """Absorb new records, re-solve the stale categories, return the result."""
        with obs.span("step1.refresh", users=self._community.num_users()):
            return self._resolve_dirty(self._absorb())

    def last_iterations(self, category_id: str) -> int:
        """Solver sweeps used at the last refresh of ``category_id``."""
        batch = self._solved_by.get(category_id)
        if batch is None:
            raise ValidationError(f"category {category_id!r} has not been solved yet")
        k, _reviews, _raters = batch.slots(category_id)
        return int(batch.iterations[k])

    # ------------------------------------------------------------------ records

    def _absorb(self) -> CommunityColumns:
        """Mark stale what the records added since the last absorb touched.

        A category is stale when its review or rating count moved, or when
        it lies beyond the category axis last absorbed (a new category is
        solved even before it holds a record).  Both axes come from the
        current snapshot, which is returned.
        """
        columns = self._community.columns()
        # records only grow, so the sum moves exactly when a category
        # gained a review or a rating
        counts = np.diff(columns.review_cat_starts) + np.diff(columns.rating_cat_starts)
        known = len(self._categories)
        moved = np.flatnonzero(counts[:known] != self._record_counts).tolist()
        for k in [*moved, *range(known, counts.size)]:
            self._dirty.add(columns.categories.label(k))
        self._users, self._categories = columns.users, columns.categories
        self._record_counts = counts
        return columns

    # ------------------------------------------------------------------ refresh

    def _resolve_dirty(self, columns: CommunityColumns) -> ExpertiseResult:
        """One kernel call for every dirty category, scattered into the caches."""
        self._sync_shapes()
        dirty = [c for c in self._categories if c in self._dirty]
        config = self._estimator.config
        batch = solve_all_categories(
            columns, config, categories=self._categories.positions(dirty)
        )
        scatter_fixed_points(
            columns,
            batch,
            self._e_values,
            self._r_values,
            experience_discount_enabled=config.experience_discount_enabled,
            unrated_policy=self._estimator.unrated_policy,
        )
        self._solved_by.update(dict.fromkeys(dirty, batch))
        self._dirty.clear()
        self._last_resolved = tuple(sorted(dirty))
        obs.add("step1.incremental.categories_resolved", len(dirty))
        obs.add("step1.incremental.categories_skipped", len(self._categories) - len(dirty))
        return ExpertiseResult(
            expertise=UserCategoryMatrix(self._users, self._categories, self._e_values),
            rater_reputation=UserCategoryMatrix(
                self._users, self._categories, self._r_values
            ),
            fixed_points=LazyFixedPoints(self._solved_by),
        )

    # ------------------------------------------------------------------ assembly

    def _sync_shapes(self) -> None:
        """Zero-pad the dense column caches after append-only axis growth."""
        shape = (len(self._users), len(self._categories))
        if self._e_values.shape != shape:
            for name in ("_e_values", "_r_values"):
                old = getattr(self, name)
                grown = np.zeros(shape)
                grown[: old.shape[0], : old.shape[1]] = old
                setattr(self, name, grown)
