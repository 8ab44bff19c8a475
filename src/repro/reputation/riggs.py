"""The review-quality / rater-reputation fixed point (paper eqs. 1-2).

Within one category, let ``rho_ij`` be the rating rater *i* gave review *j*.
The two coupled equations are

.. math::

    q(r_j) = \\frac{\\sum_{i \\in U(r_j)} rep(u_i) \\cdot \\rho_{ij}}
                   {\\sum_{i \\in U(r_j)} rep(u_i)}

    rep(u_i) = \\Big(1 - \\frac{1}{n_i + 1}\\Big)
               \\Big(1 - \\frac{\\sum_{j \\in R(u_i)} |q(r_j) - \\rho_{ij}|}{n_i}\\Big)

where ``n_i`` is the number of reviews rater *i* rated in the category.  We
iterate the pair of updates from ``rep = 1`` until the largest change in any
quality or reputation value falls below ``tolerance``.

:func:`solve_all_categories` is the one solver: it sweeps any set of
categories at once on flat numpy arrays indexed by (rater, review)
incidence, so each sweep is O(number of ratings in the set).  The
dict-based :func:`repro.perf.reference.solve_category` is kept only as the
test oracle it is compared against bitwise.
"""

# repro: hot-path

from __future__ import annotations

from collections.abc import Mapping as _Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Protocol, Sequence, overload

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ConvergenceError, ValidationError
from repro.common.validation import (
    require_fraction,
    require_in_range,
    require_positive,
    require_type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matrix.labels import LabelIndex

__all__ = [
    "RiggsConfig",
    "CategoryFixedPoint",
    "BatchedFixedPoints",
    "ColumnarRatings",
    "LazyFixedPoints",
    "solve_all_categories",
    "experience_discount",
]


class ColumnarRatings(Protocol):
    """Structural input of :func:`solve_all_categories`.

    Anything shaped like :class:`repro.community.CommunityColumns`
    qualifies: label axes, a category-major global review axis, each
    category's rating count and its ratings by category.  Declared as a
    protocol so this module stays import-independent of the community
    layer.
    """

    users: LabelIndex
    categories: LabelIndex
    review_ids: tuple[str, ...]
    review_category_idx: IntArray
    rating_cat_starts: IntArray

    def category_ratings(self, categories: IntArray) -> tuple[IntArray, IntArray, FloatArray]:
        """``(rater, review, value)`` positions of ``categories``' ratings,
        category-major, insertion order within a category."""
        ...


@overload
def experience_discount(n: int) -> float: ...


@overload
def experience_discount(n: IntArray | FloatArray) -> FloatArray: ...


def experience_discount(n: IntArray | FloatArray | int) -> FloatArray | float:
    """The paper's activity discount ``1 - 1/(n+1)``.

    Maps 1 activity event to 0.5, 9 events to 0.9, and approaches 1 as the
    user becomes more active, "compensating for less experience".
    """
    result = 1.0 - 1.0 / (np.asarray(n, dtype=np.float64) + 1.0)
    if isinstance(n, (int, np.integer)):
        return float(result)
    return result


@dataclass(frozen=True)
class RiggsConfig:
    """Knobs of the fixed-point solver.

    Parameters
    ----------
    tolerance:
        Convergence threshold on the L-infinity change of qualities and
        reputations between sweeps.
    max_iterations:
        Iteration budget (an ``int``); exceeding it raises
        :class:`ConvergenceError`.
    damping:
        Fraction of the *previous* reputation kept each sweep
        (``0`` = plain iteration).  Rarely needed; exposed for adversarial
        inputs.
    initial_reputation:
        Starting rater reputation.  The paper does not specify one; ``1.0``
        makes the first quality estimate the plain mean of ratings.
    weight_by_rater_reputation:
        Ablation A1: when ``False``, eq. 1 degrades to the unweighted mean
        of received ratings (rater reputations are still computed, but do
        not influence quality).
    experience_discount_enabled:
        Ablation A2: when ``False``, the ``1 - 1/(n+1)`` factor of eq. 2 is
        dropped.
    """

    tolerance: float = 1e-9
    max_iterations: int = 500
    damping: float = 0.0
    initial_reputation: float = 1.0
    weight_by_rater_reputation: bool = True
    experience_discount_enabled: bool = True

    def __post_init__(self) -> None:
        require_positive("tolerance", self.tolerance)
        require_type("max_iterations", self.max_iterations, int)
        require_positive("max_iterations", self.max_iterations)
        require_in_range("damping", self.damping, 0.0, 1.0)
        require_fraction("initial_reputation", self.initial_reputation)


@dataclass(frozen=True)
class CategoryFixedPoint:
    """Converged qualities and rater reputations for one category.

    Attributes
    ----------
    review_quality:
        ``{review_id: quality}`` for every review that received at least one
        rating in the category.
    rater_reputation:
        ``{rater_id: reputation}`` for every user who rated at least one
        review in the category.
    iterations:
        Sweeps performed until convergence.
    residual:
        Final L-infinity change (``<= tolerance``).
    """

    review_quality: dict[str, float]
    rater_reputation: dict[str, float]
    iterations: int
    residual: float
    rating_counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BatchedFixedPoints:
    """The fixed points of a set of categories on shared flat arrays.

    ``solved_categories`` lists the category-axis positions the batch
    solved (ascending); ``iterations`` / ``residuals`` are aligned with it,
    and no other category has a fixed point here.  Slots are grouped by
    category: ``review_slot_cat`` / ``rater_slot_cat`` are nondecreasing
    *compact* segment indices, one per solved category that has ratings;
    ``nonempty_categories`` maps them back to category-axis positions.
    :meth:`fixed_point` materialises the dict form of one category on
    demand; the arrays are the fast path for matrix assembly.
    """

    categories: tuple[str, ...]
    users: LabelIndex
    review_ids: tuple[str, ...]
    solved_categories: IntArray
    nonempty_categories: IntArray
    rated_review_idx: IntArray
    quality: FloatArray
    review_slot_cat: IntArray
    rater_slot_user: IntArray
    rater_slot_cat: IntArray
    reputation: FloatArray
    rater_counts: IntArray
    iterations: IntArray
    residuals: FloatArray

    @property
    def rater_slot_category_idx(self) -> IntArray:
        """Category-axis position of every rater slot."""
        return self.nonempty_categories[self.rater_slot_cat]

    def slots(self, category_id: str) -> tuple[int, slice, slice]:
        """Where one solved category lives: ``(k, review slots, rater slots)``.

        ``k`` indexes :attr:`solved_categories`, :attr:`iterations` and
        :attr:`residuals`; the slices cut the category's segment out of the
        review-slot and rater-slot arrays (empty for a category without
        ratings).

        Raises
        ------
        ValidationError
            If ``category_id`` is not on the category axis, or this batch
            did not solve it.
        """
        try:
            c = self.categories.index(category_id)
        except ValueError:
            raise ValidationError(f"unknown category {category_id!r}") from None
        k = int(np.searchsorted(self.solved_categories, c))
        if k == len(self.solved_categories) or self.solved_categories[k] != c:
            raise ValidationError(f"category {category_id!r} was not solved in this batch")
        s = int(np.searchsorted(self.nonempty_categories, c))
        if s == len(self.nonempty_categories) or self.nonempty_categories[s] != c:
            return k, slice(0, 0), slice(0, 0)
        a, b = np.searchsorted(self.review_slot_cat, [s, s + 1])
        ua, ub = np.searchsorted(self.rater_slot_cat, [s, s + 1])
        return k, slice(int(a), int(b)), slice(int(ua), int(ub))

    def fixed_point(self, category_id: str) -> CategoryFixedPoint:
        """The dict-form :class:`CategoryFixedPoint` of one solved category."""
        k, reviews, raters = self.slots(category_id)
        labels = self.users.labels
        rater_users = self.rater_slot_user[raters].tolist()
        return CategoryFixedPoint(
            review_quality={
                self.review_ids[g]: q
                for g, q in zip(
                    self.rated_review_idx[reviews].tolist(), self.quality[reviews].tolist()
                )
            },
            rater_reputation={
                labels[u]: r for u, r in zip(rater_users, self.reputation[raters].tolist())
            },
            iterations=int(self.iterations[k]),
            residual=float(self.residuals[k]),
            rating_counts={
                labels[u]: n for u, n in zip(rater_users, self.rater_counts[raters].tolist())
            },
        )


class LazyFixedPoints(_Mapping[str, CategoryFixedPoint]):
    """``{category_id: CategoryFixedPoint}`` view over batched solves.

    Each category maps to the batch that solved it (one batch for a cold
    fit; the batch of its latest re-solve for an incremental refresh).
    Building every category's dicts up front costs more than the batched
    sweeps themselves on large communities, and most callers only touch
    the matrices.  This mapping materialises a category on first access
    and caches it, so ``result.fixed_points["movies"]`` behaves exactly
    like the eager dict while unaccessed categories stay as arrays.
    """

    __slots__ = ("_batches", "_cache")

    def __init__(self, batches: Mapping[str, BatchedFixedPoints]) -> None:
        self._batches = dict(batches)
        self._cache: dict[str, CategoryFixedPoint] = {}

    def __getitem__(self, category_id: str) -> CategoryFixedPoint:
        if category_id not in self._cache:
            batch = self._batches.get(category_id)
            if batch is None:
                raise KeyError(category_id)
            self._cache[category_id] = batch.fixed_point(category_id)
        return self._cache[category_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyFixedPoints({len(self)} categories)"


def solve_all_categories(
    columns: ColumnarRatings,
    config: RiggsConfig | None = None,
    *,
    categories: IntArray | Sequence[int] | None = None,
) -> BatchedFixedPoints:
    """Solve eqs. 1-2 for a set of categories in shared batched sweeps.

    Parameters
    ----------
    columns:
        A columnar ratings view -- anything shaped like
        :class:`repro.community.CommunityColumns`: ``users`` /
        ``categories`` label axes, a category-major global review axis
        (``review_ids``, ``review_category_idx``), each category's rating
        count (``rating_cat_starts``) and its ratings
        (``category_ratings``).
    categories:
        Positions on ``columns.categories`` to solve (any order; repeats
        are ignored).  ``None`` solves every category.  Only these
        categories' rating rows are read, validated and swept.  Every
        rater slot starts at ``config.initial_reputation``.

    Returns
    -------
    BatchedFixedPoints
        Per-slot arrays plus per-category iteration counts and residuals,
        for the solved categories only.  Every category's fixed point is
        bitwise identical to a standalone solve of it -- whichever subset
        it is solved in, and equal to the reference oracle
        :func:`repro.perf.reference.solve_category`: the sweeps reduce over
        flattened incidence arrays whose per-category segments preserve
        rating insertion order, and converged categories are masked out of
        later sweeps so their values (and iteration counts) freeze exactly
        where a standalone solve would stop.

    Raises
    ------
    ConvergenceError
        If any category fails to reach ``tolerance`` within
        ``config.max_iterations`` sweeps.
    ValidationError
        On a category position off the axis, or malformed ratings
        (duplicate pairs, out-of-range values).
    """
    cfg = config or RiggsConfig()
    labels = tuple(columns.categories)
    num_users = len(columns.users)
    solved = np.unique(
        np.arange(len(labels), dtype=np.int64)
        if categories is None
        else np.asarray(categories, dtype=np.int64)
    )
    if solved.size and (solved[0] < 0 or solved[-1] >= len(labels)):
        raise ValidationError(f"category positions must lie in [0, {len(labels)})")
    starts = np.asarray(columns.rating_cat_starts, dtype=np.int64)
    rows_per_cat = starts[solved + 1] - starts[solved]
    has_rows = rows_per_cat > 0
    nonempty = solved[has_rows]
    iterations = np.zeros(len(solved), dtype=np.int64)
    residuals = np.zeros(len(solved), dtype=np.float64)

    if len(nonempty) == 0:
        return BatchedFixedPoints(
            categories=labels,
            users=columns.users,
            review_ids=tuple(columns.review_ids),
            solved_categories=solved,
            nonempty_categories=nonempty,
            rated_review_idx=np.empty(0, dtype=np.int64),
            quality=np.empty(0),
            review_slot_cat=np.empty(0, dtype=np.int64),
            rater_slot_user=np.empty(0, dtype=np.int64),
            rater_slot_cat=np.empty(0, dtype=np.int64),
            reputation=np.empty(0),
            rater_counts=np.empty(0, dtype=np.int64),
            iterations=iterations,
            residuals=residuals,
        )

    # the solved categories' rating rows, category-major: views where the
    # snapshot holds them in one piece, gathered otherwise
    lo, hi = starts[nonempty], starts[nonempty + 1]
    rater_pos, review_pos, values = (
        np.asarray(column) for column in columns.category_ratings(nonempty)
    )
    _validate_rating_arrays(rater_pos, review_pos, values, len(columns.review_ids))

    # compact segment index per category (nonempty solved categories only)
    compact_of_cat = np.full(len(labels), -1, dtype=np.int64)
    compact_of_cat[nonempty] = np.arange(len(nonempty))
    row_cat = np.repeat(np.arange(len(nonempty), dtype=np.int64), hi - lo)

    # review slots: the rated subset of the (category-major) review axis
    # (sorted-dedup instead of np.unique -- the hash-based unique kernel is
    # several times slower than an int64 sort at this size)
    sorted_reviews = np.sort(review_pos)
    rated = sorted_reviews[np.r_[True, sorted_reviews[1:] != sorted_reviews[:-1]]]
    # position of each review on the rated-slot axis, via a dense lookup
    # table (O(1) gathers beat a binary search over every rating row)
    slot_of_review = np.empty(len(columns.review_ids), dtype=np.int64)
    slot_of_review[rated] = np.arange(len(rated), dtype=np.int64)
    review_slot = slot_of_review[review_pos]
    review_slot_cat = compact_of_cat[
        np.asarray(columns.review_category_idx, dtype=np.int64)[rated]
    ]

    # rater slots: one per (category, rater) incidence
    rater_keys = row_cat * np.int64(num_users) + rater_pos
    uniq_keys, rater_slot = np.unique(rater_keys, return_inverse=True)
    rater_slot_cat = uniq_keys // num_users
    rater_slot_user = uniq_keys % num_users

    reputation = np.full(len(uniq_keys), cfg.initial_reputation, dtype=np.float64)

    with obs.span(
        "step1.solve_all", categories=len(nonempty), ratings=len(values)
    ):
        quality, reputation, counts, seg_iterations, seg_residuals = _segmented_solve(
            rater_slot.astype(np.int64),
            review_slot,
            values,
            num_rater_slots=len(uniq_keys),
            num_review_slots=len(rated),
            row_cat=row_cat,
            rater_slot_cat=rater_slot_cat,
            review_slot_cat=review_slot_cat,
            num_segments=len(nonempty),
            cfg=cfg,
            reputation=reputation,
        )
    iterations[has_rows] = seg_iterations
    residuals[has_rows] = seg_residuals
    if obs.tracing_active():
        # per-category convergence telemetry (the batched solver converges
        # or raises, so these records always carry converged=True)
        for c, sweeps, residual in zip(
            nonempty.tolist(), seg_iterations.tolist(), seg_residuals.tolist()
        ):
            obs.convergence(
                "step1.riggs",
                iterations=sweeps,
                residual=residual,
                tolerance=cfg.tolerance,
                converged=True,
                category=labels[c],
            )
            obs.observe("step1.sweeps", float(sweeps))
    return BatchedFixedPoints(
        categories=labels,
        users=columns.users,
        review_ids=tuple(columns.review_ids),
        solved_categories=solved,
        nonempty_categories=nonempty,
        rated_review_idx=rated,
        quality=quality,
        review_slot_cat=review_slot_cat,
        rater_slot_user=rater_slot_user,
        rater_slot_cat=rater_slot_cat,
        reputation=reputation,
        rater_counts=counts,
        iterations=iterations,
        residuals=residuals,
    )


def _validate_rating_arrays(
    rater_idx: IntArray,
    review_idx: IntArray,
    values: FloatArray,
    num_reviews: int,
) -> None:
    if np.isnan(values).any() or (
        values.size and (values.min() < 0.0 or values.max() > 1.0)
    ):
        raise ValidationError("rating values must lie in [0, 1]")
    keys = np.sort(rater_idx * np.int64(max(num_reviews, 1)) + review_idx)
    if len(keys) > 1 and bool(np.any(keys[1:] == keys[:-1])):
        raise ValidationError("duplicate rating for a (rater, review) pair")


def _segmented_solve(
    rater_slot: IntArray,
    review_slot: IntArray,
    values: FloatArray,
    *,
    num_rater_slots: int,
    num_review_slots: int,
    row_cat: IntArray,
    rater_slot_cat: IntArray,
    review_slot_cat: IntArray,
    num_segments: int,
    cfg: RiggsConfig,
    reputation: FloatArray,
) -> tuple[FloatArray, FloatArray, IntArray, IntArray, FloatArray]:
    """Shared sweep loop over category-segmented incidence arrays.

    Every segment (category) is an independent fixed point; the sweeps run
    them simultaneously on the flat arrays and mask converged segments out
    so they stop updating.  Segment membership arrays must be nondecreasing
    and each segment, rater slot and review slot must own at least one
    rating row.
    """
    counts = np.bincount(rater_slot, minlength=num_rater_slots).astype(np.float64)
    if cfg.experience_discount_enabled:
        discount = experience_discount(counts)
    else:
        discount = np.ones(num_rater_slots, dtype=np.float64)
    plain_sum = np.bincount(review_slot, weights=values, minlength=num_review_slots)
    plain_count = np.bincount(review_slot, minlength=num_review_slots).astype(np.float64)
    plain_mean = plain_sum / plain_count

    seg_starts_r = np.searchsorted(review_slot_cat, np.arange(num_segments))
    seg_starts_u = np.searchsorted(rater_slot_cat, np.arange(num_segments))

    quality = np.zeros(num_review_slots, dtype=np.float64)
    seg_iterations = np.zeros(num_segments, dtype=np.int64)
    seg_residuals = np.zeros(num_segments, dtype=np.float64)
    active = np.ones(num_segments, dtype=bool)
    all_active = True
    rows_rater, rows_review, rows_values = rater_slot, review_slot, values
    slot_active_r = np.ones(num_review_slots, dtype=bool)
    slot_active_u = np.ones(num_rater_slots, dtype=bool)

    for sweep in range(1, cfg.max_iterations + 1):
        # eq. 1 on the active rows
        if cfg.weight_by_rater_reputation:
            weights = reputation[rows_rater]
        else:
            weights = np.ones_like(rows_values)
        weighted_sum = np.bincount(
            rows_review, weights=weights * rows_values, minlength=num_review_slots
        )
        weight_sum = np.bincount(rows_review, weights=weights, minlength=num_review_slots)
        safe = weight_sum > 0.0
        new_quality = np.where(
            safe, np.divide(weighted_sum, np.where(safe, weight_sum, 1.0)), plain_mean
        )
        new_quality = np.clip(new_quality, 0.0, 1.0)
        if not all_active:
            new_quality = np.where(slot_active_r, new_quality, quality)

        # eq. 2 on the active rows, against the fresh qualities
        deviations = np.abs(new_quality[rows_review] - rows_values)
        total_dev = np.bincount(
            rows_rater, weights=deviations, minlength=num_rater_slots
        )
        mad = total_dev / counts
        new_reputation = np.clip(discount * (1.0 - mad), 0.0, 1.0)
        if cfg.damping > 0.0:
            new_reputation = (
                cfg.damping * reputation + (1.0 - cfg.damping) * new_reputation
            )
        if not all_active:
            new_reputation = np.where(slot_active_u, new_reputation, reputation)

        q_delta = np.abs(new_quality - quality)
        r_delta = np.abs(new_reputation - reputation)
        quality = new_quality
        reputation = new_reputation

        seg_res = np.maximum(
            np.maximum.reduceat(q_delta, seg_starts_r),
            np.maximum.reduceat(r_delta, seg_starts_u),
        )
        seg_iterations[active] = sweep
        seg_residuals[active] = seg_res[active]
        newly = active & (seg_res < cfg.tolerance)
        if newly.any():
            active = active & ~newly
            if not active.any():
                break
            all_active = False
            row_keep = active[row_cat]
            rows_rater = rater_slot[row_keep]
            rows_review = review_slot[row_keep]
            rows_values = values[row_keep]
            slot_active_r = active[review_slot_cat]
            slot_active_u = active[rater_slot_cat]
    else:
        worst = float(seg_residuals[active].max())
        raise ConvergenceError(
            f"Riggs fixed point did not converge in {cfg.max_iterations} sweeps "
            f"for {int(active.sum())} of {num_segments} categories "
            f"(worst residual {worst:.3e} > tolerance {cfg.tolerance:.3e})",
            iterations=cfg.max_iterations,
            residual=worst,
            tolerance=cfg.tolerance,
        )

    return quality, reputation, counts.astype(np.int64), seg_iterations, seg_residuals
