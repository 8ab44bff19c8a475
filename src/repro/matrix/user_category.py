"""Dense user-by-category matrices (Expertise ``E`` and Affiliation ``A``)."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex

__all__ = ["UserCategoryMatrix"]


class UserCategoryMatrix:
    """A ``U x C`` matrix with named axes and values in ``[0, 1]``.

    Both the paper's Expertise matrix ``E`` (eq. 3) and Affiliation matrix
    ``A`` (eq. 4) are instances.  The matrix is dense because the number of
    categories is small (12 sub-categories in the paper's evaluation).
    """

    def __init__(
        self,
        users: LabelIndex | Iterable[str],
        categories: LabelIndex | Iterable[str],
        values: FloatArray | None = None,
    ) -> None:
        self.users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        self.categories = (
            categories if isinstance(categories, LabelIndex) else LabelIndex(categories)
        )
        shape = (len(self.users), len(self.categories))
        if values is None:
            self._values = np.zeros(shape, dtype=np.float64)
        else:
            self._values = _checked(np.asarray(values, dtype=np.float64), shape).copy()

    # ------------------------------------------------------------------ access

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_users, num_categories)``."""
        rows, cols = self._values.shape
        return int(rows), int(cols)

    def get(self, user_id: str, category_id: str) -> float:
        """Value for ``(user, category)``."""
        return float(
            self._values[self.users.position(user_id), self.categories.position(category_id)]
        )

    def set(self, user_id: str, category_id: str, value: float) -> None:
        """Set the value for ``(user, category)`` (must lie in [0, 1])."""
        if not 0.0 - 1e-12 <= value <= 1.0 + 1e-12:
            raise ValidationError(f"value must lie in [0, 1], got {value!r}")
        self._values[
            self.users.position(user_id), self.categories.position(category_id)
        ] = value

    def user_row(self, user_id: str) -> FloatArray:
        """Copy of the row for ``user_id`` (length ``C``)."""
        return self._values[self.users.position(user_id), :].copy()

    def category_column(self, category_id: str) -> FloatArray:
        """Copy of the column for ``category_id`` (length ``U``)."""
        return self._values[:, self.categories.position(category_id)].copy()

    def with_rows(
        self, users: LabelIndex, rows: IntArray, values: FloatArray
    ) -> "UserCategoryMatrix":
        """A copy on ``users`` with the rows ``rows`` set to ``values``.

        ``users`` extends this matrix's user axis (append-only growth); a
        new user's row is zero unless ``rows`` sets it.  Only ``values`` is
        checked, as the constructor checks its values; this matrix is left
        as it is.
        """
        if users is not self.users and users.labels[: len(self.users)] != self.users.labels:
            raise ValidationError("users must extend this matrix's user axis")
        values = _checked(np.asarray(values, dtype=np.float64), (len(rows), len(self.categories)))
        out = UserCategoryMatrix(users, self.categories)
        out._values[: self._values.shape[0]] = self._values
        out._values[rows] = values
        return out

    def to_array(self) -> FloatArray:
        """Copy of the underlying dense array."""
        return self._values.copy()

    def values_view(self) -> FloatArray:
        """Read-only view of the underlying array (no copy)."""
        view = self._values.view()
        view.setflags(write=False)
        return view

    # ------------------------------------------------------------------ helpers

    def row_sums(self) -> FloatArray:
        """Per-user sum across categories (the denominator of eq. 5)."""
        return self._values.sum(axis=1)

    def nonzero_user_ids(self) -> list[str]:
        """Users with at least one nonzero category value."""
        mask = (self._values != 0).any(axis=1)
        return [self.users.label(int(i)) for i in np.nonzero(mask)[0]]

    def ranking(self, category_id: str, *, restrict_to: set[str] | None = None) -> list[str]:
        """User ids ranked by descending value in ``category_id``.

        Ties are broken by axis order (stable), matching how a site would
        display a leaderboard.  ``restrict_to`` limits the ranking to a
        subset of users (e.g. users active in the category).
        """
        column = self._values[:, self.categories.position(category_id)]
        order = np.argsort(-column, kind="stable")
        labels = [self.users.label(int(i)) for i in order]
        if restrict_to is not None:
            labels = [u for u in labels if u in restrict_to]
        return labels

    @classmethod
    def from_dict(
        cls,
        entries: Mapping[str, Mapping[str, float]],
        users: Iterable[str],
        categories: Iterable[str],
    ) -> "UserCategoryMatrix":
        """Build from ``{user: {category: value}}`` (missing entries are 0)."""
        matrix = cls(LabelIndex(users), LabelIndex(categories))
        for user_id, row in entries.items():
            for category_id, value in row.items():
                matrix.set(user_id, category_id, value)
        return matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserCategoryMatrix):
            return NotImplemented
        return (
            self.users == other.users
            and self.categories == other.categories
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UserCategoryMatrix(users={len(self.users)}, categories={len(self.categories)})"


def _checked(values: FloatArray, shape: tuple[int, int]) -> FloatArray:
    """``values`` when they have ``shape``, no NaN and lie in ``[0, 1]``."""
    if values.shape != shape:
        raise ValidationError(f"values shape {values.shape} does not match axes {shape}")
    if np.isnan(values).any():
        raise ValidationError("user-category values must not contain NaN")
    if values.size and (values.min() < -1e-12 or values.max() > 1 + 1e-12):
        raise ValidationError("user-category values must lie in [0, 1]")
    return values
