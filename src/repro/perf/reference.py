"""Frozen seed implementations of the pipeline's hot paths.

These are ports of the pre-kernel-layer code: numerically cheap numpy work
whose results are materialised through per-entry Python work (one
``(source, target, value)`` triple per ``T-hat`` entry, one
``UserCategoryMatrix.set`` call per element, label lookups per entry,
dense edge loops).  ``UserPairMatrix`` has no point writer any more, so
:func:`reference_derive_trust` collects its triples and builds once with
``UserPairMatrix.from_pairs``.  They exist for two reasons:

- **equivalence testing** -- the vectorised kernels must produce identical
  results (see ``tests/trust/test_kernel_equivalence.py``).  The dict-based
  Step-1 solver :func:`solve_category` and :func:`writer_reputations` are
  the oracles the batched kernel
  :func:`repro.reputation.riggs.solve_all_categories` is compared against
  bitwise (``tests/reputation/test_riggs_batched.py``);
- **benchmarking** -- :mod:`repro.perf.bench` times them as the "before"
  side of ``BENCH_perf.json``.

Do not optimise this module; it is the baseline.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ConvergenceError, ValidationError
from repro.community import Community
from repro.matrix import LabelIndex, UserCategoryMatrix, UserPairMatrix
from repro.reputation.estimator import ExpertiseResult
from repro.reputation.riggs import CategoryFixedPoint, RiggsConfig, experience_discount
from repro.reputation.writer import require_unrated_policy

__all__ = [
    "reference_derive_trust",
    "reference_fit_expertise",
    "reference_eigen_trust",
    "solve_category",
    "writer_reputations",
]


def reference_derive_trust(
    affiliation: UserCategoryMatrix,
    expertise: UserCategoryMatrix,
    *,
    min_value: float = 0.0,
    include_self: bool = False,
    block_size: int = 512,
) -> UserPairMatrix:
    """Seed implementation of eq. 5: blocked matmul, per-entry triples.

    Uses the same block decomposition as :class:`repro.trust.TrustDeriver`,
    so the floating-point results are bitwise identical -- only the
    materialisation differs (one interpreted ``(source, target, value)``
    triple per entry, built with :meth:`UserPairMatrix.from_pairs`).
    """
    users = affiliation.users
    a_values = affiliation.values_view()
    e_transposed = expertise.values_view().T.copy()

    row_sums = a_values.sum(axis=1)
    active_rows = np.nonzero(row_sums > 0.0)[0]

    triples: list[tuple[str, str, float]] = []
    for start in range(0, len(active_rows), block_size):
        block_rows = active_rows[start : start + block_size]
        weights = a_values[block_rows, :] / row_sums[block_rows, None]
        # fixed-reduction-order product, kept identical to
        # repro.trust.derive._block_product so the bitwise contract holds
        block = np.einsum("mc,cn->mn", weights, e_transposed, optimize=False)
        for local, i in enumerate(block_rows):
            values = block[local]
            targets = np.nonzero(values > min_value)[0]
            source = users.label(int(i))
            for j in targets:
                if not include_self and int(j) == int(i):
                    continue
                triples.append((source, users.label(int(j)), float(values[j])))
    return UserPairMatrix.from_pairs(users, triples)


def reference_fit_expertise(
    community: Community,
    config: RiggsConfig | None = None,
    *,
    unrated_policy: str = "exclude",
) -> ExpertiseResult:
    """Seed implementation of the Step-1 orchestration.

    Serial per-category solves with the ``E`` and rater matrices assembled
    through one :meth:`UserCategoryMatrix.set` call per entry.
    """
    config = config or RiggsConfig()
    users = LabelIndex(community.user_ids())
    categories = LabelIndex(community.category_ids())
    expertise = UserCategoryMatrix(users, categories)
    rater_rep = UserCategoryMatrix(users, categories)
    fixed_points: dict[str, CategoryFixedPoint] = {}

    for category_id in categories:
        fixed_point = solve_category(community.rating_triples(category_id), config)
        fixed_points[category_id] = fixed_point
        for rater_id, value in fixed_point.rater_reputation.items():
            rater_rep.set(rater_id, category_id, value)

        review_writers = {
            review.review_id: review.writer_id
            for review in community.reviews_in_category(category_id)
        }
        writers = writer_reputations(
            review_writers,
            fixed_point.review_quality,
            experience_discount_enabled=config.experience_discount_enabled,
            unrated_policy=unrated_policy,
        )
        for writer_id, value in writers.items():
            expertise.set(writer_id, category_id, value)

    return ExpertiseResult(
        expertise=expertise, rater_reputation=rater_rep, fixed_points=fixed_points
    )


# ----------------------------------------------------------- Step-1 oracle


def solve_category(
    ratings: Iterable[tuple[str, str, float]],
    config: RiggsConfig | None = None,
) -> CategoryFixedPoint:
    """Solve eqs. 1-2 for one category.

    Parameters
    ----------
    ratings:
        ``(rater_id, review_id, value)`` triples -- every helpfulness rating
        given in the category.  Values must lie in ``[0, 1]``; a
        ``(rater, review)`` pair may appear at most once.
    config:
        Solver configuration (defaults to :class:`RiggsConfig`).

    Returns
    -------
    CategoryFixedPoint
        Converged qualities (one per rated review) and reputations (one per
        active rater).

    Raises
    ------
    ConvergenceError
        If ``config.max_iterations`` sweeps do not reach ``tolerance``.
    ValidationError
        On malformed input (duplicate pairs, out-of-range values).
    """
    cfg = config or RiggsConfig()
    triples = list(ratings)
    if not triples:
        return CategoryFixedPoint(
            review_quality={}, rater_reputation={}, iterations=0, residual=0.0
        )

    rater_ids, review_ids, rater_idx, review_idx, values = _index_triples(triples)
    num_raters = len(rater_ids)
    num_reviews = len(review_ids)

    counts = np.bincount(rater_idx, minlength=num_raters).astype(np.float64)
    if cfg.experience_discount_enabled:
        discount = experience_discount(counts)
    else:
        discount = np.ones(num_raters, dtype=np.float64)

    reputation = np.full(num_raters, cfg.initial_reputation, dtype=np.float64)
    quality = np.zeros(num_reviews, dtype=np.float64)

    iterations = 0
    residual = np.inf
    for iterations in range(1, cfg.max_iterations + 1):
        new_quality = _quality_update(
            reputation, rater_idx, review_idx, values, num_reviews, cfg
        )
        new_reputation = _reputation_update(
            new_quality, rater_idx, review_idx, values, counts, discount
        )
        if cfg.damping > 0.0:
            new_reputation = (
                cfg.damping * reputation + (1.0 - cfg.damping) * new_reputation
            )
        residual = max(
            float(np.max(np.abs(new_quality - quality))),
            float(np.max(np.abs(new_reputation - reputation))),
        )
        quality = new_quality
        reputation = new_reputation
        if residual < cfg.tolerance:
            break
    else:
        raise ConvergenceError(
            f"Riggs fixed point did not converge in {cfg.max_iterations} sweeps "
            f"(residual {residual:.3e} > tolerance {cfg.tolerance:.3e})",
            iterations=cfg.max_iterations,
            residual=float(residual),
            tolerance=cfg.tolerance,
        )

    return CategoryFixedPoint(
        review_quality={review_ids[j]: float(quality[j]) for j in range(num_reviews)},
        rater_reputation={rater_ids[i]: float(reputation[i]) for i in range(num_raters)},
        iterations=iterations,
        residual=float(residual),
        rating_counts={rater_ids[i]: int(counts[i]) for i in range(num_raters)},
    )


def _index_triples(
    triples: Sequence[tuple[str, str, float]],
) -> tuple[list[str], list[str], IntArray, IntArray, FloatArray]:
    rater_pos: dict[str, int] = {}
    review_pos: dict[str, int] = {}
    seen_pairs: set[tuple[str, str]] = set()
    rater_idx = np.empty(len(triples), dtype=np.int64)
    review_idx = np.empty(len(triples), dtype=np.int64)
    values = np.empty(len(triples), dtype=np.float64)
    for k, (rater, review, value) in enumerate(triples):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"rating value must be a number, got {value!r}")
        if not 0.0 <= float(value) <= 1.0:
            raise ValidationError(f"rating value must lie in [0, 1], got {value!r}")
        pair = (rater, review)
        if pair in seen_pairs:
            raise ValidationError(f"duplicate rating for pair {pair!r}")
        seen_pairs.add(pair)
        rater_idx[k] = rater_pos.setdefault(rater, len(rater_pos))
        review_idx[k] = review_pos.setdefault(review, len(review_pos))
        values[k] = float(value)
    return (
        list(rater_pos),
        list(review_pos),
        rater_idx,
        review_idx,
        values,
    )


def _quality_update(
    reputation: FloatArray,
    rater_idx: IntArray,
    review_idx: IntArray,
    values: FloatArray,
    num_reviews: int,
    cfg: RiggsConfig,
) -> FloatArray:
    """Eq. 1: reputation-weighted mean rating per review."""
    if cfg.weight_by_rater_reputation:
        weights = reputation[rater_idx]
    else:
        weights = np.ones_like(values)
    weighted_sum = np.bincount(review_idx, weights=weights * values, minlength=num_reviews)
    weight_sum = np.bincount(review_idx, weights=weights, minlength=num_reviews)
    plain_sum = np.bincount(review_idx, weights=values, minlength=num_reviews)
    plain_count = np.bincount(review_idx, minlength=num_reviews).astype(np.float64)
    # A review whose raters all have reputation 0 falls back to the plain
    # mean -- eq. 1 is 0/0 there and the paper leaves it undefined.
    safe = weight_sum > 0.0
    quality = np.where(
        safe,
        np.divide(weighted_sum, np.where(safe, weight_sum, 1.0)),
        plain_sum / np.maximum(plain_count, 1.0),
    )
    return np.clip(quality, 0.0, 1.0)


def _reputation_update(
    quality: FloatArray,
    rater_idx: IntArray,
    review_idx: IntArray,
    values: FloatArray,
    counts: FloatArray,
    discount: FloatArray,
) -> FloatArray:
    """Eq. 2: activity-discounted (1 - mean absolute deviation)."""
    deviations = np.abs(quality[review_idx] - values)
    total_dev = np.bincount(rater_idx, weights=deviations, minlength=len(counts))
    mad = total_dev / counts
    return np.clip(discount * (1.0 - mad), 0.0, 1.0)


def writer_reputations(
    review_writers: Mapping[str, str],
    review_quality: Mapping[str, float],
    *,
    experience_discount_enabled: bool = True,
    unrated_policy: str = "exclude",
) -> dict[str, float]:
    """Aggregate review qualities into per-writer reputation (eq. 3).

    Parameters
    ----------
    review_writers:
        ``{review_id: writer_id}`` for every review the writer has written
        in the category (rated or not).
    review_quality:
        ``{review_id: quality}`` from the category fixed point.  Reviews
        missing here received no ratings.
    experience_discount_enabled:
        Ablation A2: drop the ``1 - 1/(n+1)`` factor when ``False``.
    unrated_policy:
        ``"exclude"``, ``"zero"`` or ``"strict"``, as on
        :func:`repro.reputation.writer.writer_reputation_matrix`.

    Returns
    -------
    dict
        ``{writer_id: reputation in [0, 1]}``.  Writers none of whose
        reviews were rated get reputation ``0.0`` under ``"exclude"``.
    """
    require_unrated_policy(unrated_policy)
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for review_id, writer_id in review_writers.items():
        quality = review_quality.get(review_id)
        if quality is None:
            if unrated_policy == "strict":
                raise ValidationError(f"review {review_id!r} has no quality (unrated)")
            if unrated_policy == "exclude":
                sums.setdefault(writer_id, 0.0)
                counts.setdefault(writer_id, 0)
                continue
            quality = 0.0
        sums[writer_id] = sums.get(writer_id, 0.0) + float(quality)
        counts[writer_id] = counts.get(writer_id, 0) + 1

    reputations: dict[str, float] = {}
    for writer_id, n in counts.items():
        if n == 0:
            reputations[writer_id] = 0.0
            continue
        mean_quality = sums[writer_id] / n
        if experience_discount_enabled:
            factor = float(experience_discount(n))
        else:
            factor = 1.0
        reputations[writer_id] = float(np.clip(factor * mean_quality, 0.0, 1.0))
    return reputations


def reference_eigen_trust(
    trust: UserPairMatrix,
    *,
    alpha: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
) -> dict[str, float]:
    """Seed implementation of EigenTrust: dense matrix, per-edge Python fill."""
    users = list(trust.users)
    if not users:
        return {}
    index = {node: i for i, node in enumerate(users)}
    n = len(users)
    p = np.full(n, 1.0 / n)

    matrix = np.zeros((n, n))
    for source, target, value in trust.entries():
        matrix[index[source], index[target]] = value
    row_sums = matrix.sum(axis=1, keepdims=True)
    dangling = row_sums[:, 0] == 0.0
    matrix = np.divide(matrix, np.where(row_sums > 0, row_sums, 1.0))

    t = p.copy()
    for _ in range(max_iterations):
        spread = matrix.T @ t + p * float(t[dangling].sum())
        new_t = (1.0 - alpha) * spread + alpha * p
        total = new_t.sum()
        if total > 0:
            new_t = new_t / total
        residual = float(np.abs(new_t - t).max())
        t = new_t
        if residual < tolerance:
            return {node: float(t[index[node]]) for node in users}
    raise ConvergenceError(
        f"EigenTrust did not converge in {max_iterations} iterations",
        iterations=max_iterations,
        residual=residual,
        tolerance=tolerance,
    )
