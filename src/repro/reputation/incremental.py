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

:class:`IncrementalExpertise` subscribes to the community's
:class:`repro.community.ChangeLog`: every mutator emits a structured
delta, and :meth:`IncrementalExpertise.refresh` reads the deltas past its
cursor to infer exactly which categories went stale.  There is no manual
dirty-flagging step.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.common.errors import ValidationError
from repro.community import Community, Delta
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

#: Delta kinds that leave every category's fixed point unchanged: objects
#: and trust statements never enter eqs. 1-3, and a new user has no
#: activity until a later review/rating delta arrives.
_INERT_KINDS = frozenset({"object", "trust"})


class IncrementalExpertise:
    """Maintains expertise/rater reputation under community mutations.

    Usage::

        tracker = IncrementalExpertise(community)
        result = tracker.fit()          # full initial solve
        community.add_rating(...)       # new activity arrives (logged)
        result = tracker.refresh()      # re-solves affected categories only

    ``refresh`` is bitwise equal to a fresh
    :class:`repro.reputation.ExpertiseEstimator` fit of the current
    community state: every re-solved category starts cold, and a category
    gets the same bits whichever subset of categories it is solved in.

    New users and categories are handled by index growth: both axes are
    append-only, so previously computed columns keep their positions.  A
    returned result never changes afterwards: its matrices are copies of
    the caches, and its ``fixed_points`` map each category to the batch
    that had last solved it, which no later refresh writes to.
    """

    def __init__(self, community: Community) -> None:
        self._community = community
        # a refresh solves with the settings of a default cold fit
        self._estimator = ExpertiseEstimator()
        self._users = LabelIndex(community.user_ids())
        self._categories = LabelIndex(community.category_ids())
        # the batch that last solved each category, in category-axis order
        self._solved_by: dict[str, BatchedFixedPoints] = {}
        # dense column caches of E and the rater-reputation matrix; a
        # refresh rewrites only the re-solved categories' columns
        self._e_values = np.zeros((len(self._users), len(self._categories)))
        self._r_values = np.zeros((len(self._users), len(self._categories)))
        self._dirty: set[str] = set(self._categories)
        self._cursor = community.change_log.epoch
        self._last_resolved: tuple[str, ...] = ()

    # ------------------------------------------------------------------ status

    @property
    def dirty_categories(self) -> set[str]:
        """Categories whose reputation data is stale (change log absorbed)."""
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
        """Absorb new deltas, re-solve affected categories, return the result."""
        with obs.span("step1.refresh", users=self._community.num_users()):
            self._absorb()
            return self._resolve_dirty()

    def last_iterations(self, category_id: str) -> int:
        """Solver sweeps used at the last refresh of ``category_id``."""
        batch = self._solved_by.get(category_id)
        if batch is None:
            raise ValidationError(f"category {category_id!r} has not been solved yet")
        k, _reviews, _raters = batch.slots(category_id)
        return int(batch.iterations[k])

    # ------------------------------------------------------------------ deltas

    def _absorb(self) -> None:
        """Advance the cursor, growing axes and inferring dirty categories."""
        log = self._community.change_log
        if self._cursor < log.floor:
            # deltas this tracker never saw were compacted away: the only
            # safe move is a full resynchronisation
            self._users = LabelIndex(self._community.user_ids())
            self._categories = LabelIndex(self._community.category_ids())
            self._dirty = set(self._categories)
            self._cursor = log.epoch
            return
        deltas = log.since(self._cursor)
        if not deltas:
            return
        self._cursor = self._community.change_log.epoch
        grow_users = False
        for delta in deltas:
            grow_users |= self._apply_delta(delta)
        if grow_users:
            self._users = LabelIndex(self._community.user_ids())

    def _apply_delta(self, delta: Delta) -> bool:
        """Mark dirtiness implied by one delta; return True on user growth."""
        if delta.kind in _INERT_KINDS:
            return False
        if delta.kind == "user":
            return True
        if delta.kind == "category":
            # append-only growth: existing columns keep their positions
            self._categories = LabelIndex(self._community.category_ids())
            if delta.category_id is not None:
                self._dirty.add(delta.category_id)
            return False
        # reviews and ratings carry the affected category
        if delta.category_id is not None:
            self._dirty.add(delta.category_id)
        return False

    # ------------------------------------------------------------------ refresh

    def _resolve_dirty(self) -> ExpertiseResult:
        """One kernel call for every dirty category, scattered into the caches."""
        columns = self._community.columns()
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
