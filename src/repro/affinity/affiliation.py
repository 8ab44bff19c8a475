"""Computation of the Users_Category Affiliation matrix ``A`` (eq. 4)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.arrays import IntArray
from repro.common.errors import ValidationError
from repro.community import Community, CommunityColumns
from repro.matrix import UserCategoryMatrix

__all__ = ["AffinityConfig", "AffinityEstimator", "affiliation_matrix"]

_MODES = ("both", "ratings_only", "writing_only")


@dataclass(frozen=True)
class AffinityConfig:
    """Configuration of the affiliation computation.

    Parameters
    ----------
    mode:
        Which activity signals enter eq. 4:

        - ``"both"`` (the paper): mean of the normalised rating-count and
          normalised writing-count terms;
        - ``"ratings_only"`` / ``"writing_only"``: ablation A3 -- a single
          normalised term.
    """

    mode: str = "both"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")


class AffinityEstimator:
    """Builds the affiliation matrix ``A`` from community activity counts."""

    def __init__(self, config: AffinityConfig | None = None):
        self.config = config or AffinityConfig()

    def fit(self, community: Community) -> UserCategoryMatrix:
        """Compute ``A`` for every (user, category) of ``community``.

        A user with no activity of a given kind contributes 0 for that term
        (the paper's max-normalisation is 0/0 there; zero is the only value
        consistent with "no affinity evidence").

        Counts come from the community's columnar snapshot, so an incremental
        ``columns()`` refresh makes repeated fits after small mutations
        cheap; the float arithmetic on the full count matrices is unchanged,
        keeping the result bitwise independent of the cache state.
        """
        columns = community.columns()
        rating_counts = columns.rating_counts_matrix().astype(np.float64)
        writing_counts = columns.writing_counts_matrix().astype(np.float64)
        values = _combine(rating_counts, writing_counts, self.config.mode)
        return UserCategoryMatrix(columns.users, columns.categories, values)

    def refit(
        self, previous: UserCategoryMatrix, columns: CommunityColumns, rows: IntArray
    ) -> UserCategoryMatrix:
        """``previous`` with the rows ``rows`` recomputed from ``columns``.

        ``previous`` is this estimator's :meth:`fit` of an earlier state of
        the community ``columns`` snapshots, with the same categories;
        ``rows`` must hold every user whose counts moved since then and
        every user added since.  Eq. 4 divides each row by its own maximum,
        so a recomputed row gets exactly the bits :meth:`fit` gives it,
        every other row keeps its bits, and the result equals a :meth:`fit`
        of the current community.  ``previous`` is left as it was.
        """
        if previous.categories != columns.categories:
            raise ValidationError("refit needs the categories previous was fitted on")
        values = _combine(
            columns.rating_counts_matrix()[rows].astype(np.float64),
            columns.writing_counts_matrix()[rows].astype(np.float64),
            self.config.mode,
        )
        return previous.with_rows(columns.users, rows, values)


def affiliation_matrix(
    community: Community, config: AffinityConfig | None = None
) -> UserCategoryMatrix:
    """Functional shorthand for ``AffinityEstimator(config).fit(community)``."""
    return AffinityEstimator(config).fit(community)


def _combine(rating_counts: np.ndarray, writing_counts: np.ndarray, mode: str) -> np.ndarray:
    rating_term = _row_max_normalise(rating_counts)
    writing_term = _row_max_normalise(writing_counts)
    if mode == "ratings_only":
        return rating_term
    if mode == "writing_only":
        return writing_term
    return (rating_term + writing_term) / 2.0


def _row_max_normalise(counts: np.ndarray) -> np.ndarray:
    """Divide each row by its maximum; all-zero rows stay zero."""
    if counts.shape[1] == 0:  # no categories yet: nothing to normalise
        return counts
    row_max = counts.max(axis=1, keepdims=True)
    return np.divide(counts, np.where(row_max > 0, row_max, 1.0))
