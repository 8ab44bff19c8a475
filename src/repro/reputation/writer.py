"""Writer reputation / expertise within one category (paper eq. 3).

.. math::

    rep(u^w) = \\Big(1 - \\frac{1}{n_w + 1}\\Big)
               \\frac{\\sum_{j \\in R(u^w)} q(r_j)}{n_w}

where ``R(u^w)`` is the set of the writer's reviews in the category and
``n_w = |R(u^w)|``.
"""

# repro: hot-path

from __future__ import annotations

import numpy as np

from repro.common.arrays import FloatArray, IntArray
from repro.common.contracts import array_spec, checked_arrays
from repro.common.errors import ValidationError
from repro.reputation.riggs import experience_discount

__all__ = ["require_unrated_policy", "writer_reputation_matrix"]


def require_unrated_policy(unrated_policy: str) -> None:
    """Raise :class:`ValidationError` unless ``unrated_policy`` is a known policy."""
    if unrated_policy not in ("exclude", "zero", "strict"):
        raise ValidationError(
            f"unrated_policy must be 'exclude', 'zero' or 'strict', got {unrated_policy!r}"
        )


@checked_arrays(
    review_writer_idx=array_spec(ndim=1, kind="iu", non_negative=True, length_of="reviews"),
    review_category_idx=array_spec(
        ndim=1, kind="iu", non_negative=True, length_of="reviews"
    ),
    rated_review_idx=array_spec(ndim=1, kind="iu", non_negative=True, length_of="rated"),
    rated_quality=array_spec(ndim=1, kind="if", finite=True, length_of="rated"),
)
def writer_reputation_matrix(
    review_writer_idx: IntArray,
    review_category_idx: IntArray,
    num_users: int,
    num_categories: int,
    rated_review_idx: IntArray,
    rated_quality: FloatArray,
    *,
    experience_discount_enabled: bool = True,
    unrated_policy: str = "exclude",
) -> FloatArray:
    """Eq. 3 for every category at once, on columnar review arrays.

    Parameters
    ----------
    review_writer_idx, review_category_idx:
        Writer / category position per review on the global review axis
        (see :class:`repro.community.CommunityColumns`).
    rated_review_idx, rated_quality:
        Positions of the rated reviews on that axis and their converged
        qualities (ascending positions, as in
        ``BatchedFixedPoints.rated_review_idx`` / ``.quality``).
    experience_discount_enabled:
        Ablation A2: drop the ``1 - 1/(n+1)`` factor when ``False``.
    unrated_policy:
        How to treat reviews that received no ratings:

        - ``"exclude"`` (default): they contribute to neither the quality
          sum nor ``n_w`` -- reputation reflects only observed evidence;
          a writer none of whose reviews were rated gets ``0.0``;
        - ``"zero"``: they count in ``n_w`` with quality 0 -- unrated output
          drags reputation down;
        - ``"strict"``: raise if any review is unrated.

    Returns
    -------
    numpy.ndarray
        Dense ``(num_users, num_categories)`` writer reputations in
        ``[0, 1]`` -- the values of the paper's Expertise matrix ``E``,
        bitwise identical to the reference per-category dict aggregation
        (:func:`repro.perf.reference.writer_reputations`).
    """
    require_unrated_policy(unrated_policy)
    if unrated_policy == "strict" and len(rated_review_idx) != len(review_writer_idx):
        raise ValidationError(
            f"{len(review_writer_idx) - len(rated_review_idx)} reviews have no "
            "quality (unrated)"
        )
    num_cells = num_users * num_categories
    rated_keys = (
        review_writer_idx[rated_review_idx] * num_categories
        + review_category_idx[rated_review_idx]
    )
    sums = np.bincount(rated_keys, weights=rated_quality, minlength=num_cells)
    if unrated_policy == "zero":
        all_keys = review_writer_idx * num_categories + review_category_idx
        counts = np.bincount(all_keys, minlength=num_cells).astype(np.float64)
    else:
        counts = np.bincount(rated_keys, minlength=num_cells).astype(np.float64)
    mean_quality = sums / np.maximum(counts, 1.0)
    if experience_discount_enabled:
        factor = experience_discount(counts)
    else:
        factor = np.ones(num_cells, dtype=np.float64)
    reputations = np.where(
        counts > 0.0, np.clip(factor * mean_quality, 0.0, 1.0), 0.0
    )
    return reputations.reshape(num_users, num_categories)
