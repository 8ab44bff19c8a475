"""Value types for community entities.

These are plain frozen dataclasses; the :class:`repro.community.Community`
class owns storage and integrity.  The numeric helpfulness scale follows the
paper (§IV.A): Epinions' five rating stages *not helpful* ... *most helpful*
are mapped to ``0.2, 0.4, 0.6, 0.8, 1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.arrays import BoolArray, FloatArray
from repro.common.errors import ValidationError

__all__ = [
    "HELPFULNESS_SCALE",
    "is_on_scale",
    "on_scale",
    "User",
    "Category",
    "ReviewedObject",
    "Review",
    "ReviewRating",
    "TrustStatement",
]

#: The five helpfulness stages a review rating may take (paper §IV.A).
HELPFULNESS_SCALE: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)

_SCALE_SET = frozenset(HELPFULNESS_SCALE)
_SCALE_TOLERANCE = 1e-9


def is_on_scale(value: float) -> bool:
    """Whether ``value`` is (numerically) one of the five helpfulness stages."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return any(abs(value - stage) <= _SCALE_TOLERANCE for stage in HELPFULNESS_SCALE)


def on_scale(values: FloatArray) -> BoolArray:
    """:func:`is_on_scale` of every entry of a 1-D float array."""
    distance = np.abs(values[:, None] - np.asarray(HELPFULNESS_SCALE))
    return np.asarray((distance <= _SCALE_TOLERANCE).any(axis=1), dtype=bool)


def _require_id(name: str, value: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{name} must be a non-empty string, got {value!r}")


def _require_text(name: str, value: str | None) -> None:
    if value is not None and not isinstance(value, str):
        raise ValidationError(f"{name} must be a string or None, got {value!r}")


@dataclass(frozen=True)
class User:
    """A community member (may act as review writer, rater, or both)."""

    user_id: str
    name: str | None = ""

    def __post_init__(self) -> None:
        _require_id("user_id", self.user_id)
        _require_text("name", self.name)


@dataclass(frozen=True)
class Category:
    """A review category (the paper's *context*), e.g. a movie genre."""

    category_id: str
    name: str | None = ""

    def __post_init__(self) -> None:
        _require_id("category_id", self.category_id)
        _require_text("name", self.name)


@dataclass(frozen=True)
class ReviewedObject:
    """Something reviews are written about (a movie, a product, ...)."""

    object_id: str
    category_id: str
    title: str | None = ""

    def __post_init__(self) -> None:
        _require_id("object_id", self.object_id)
        _require_id("category_id", self.category_id)
        _require_text("title", self.title)


@dataclass(frozen=True)
class Review:
    """A text review ``r_j`` written by ``writer_id`` about ``object_id``."""

    review_id: str
    writer_id: str
    object_id: str

    def __post_init__(self) -> None:
        _require_id("review_id", self.review_id)
        _require_id("writer_id", self.writer_id)
        _require_id("object_id", self.object_id)


@dataclass(frozen=True)
class ReviewRating:
    """A helpfulness rating ``rho_ij`` given by ``rater_id`` to ``review_id``."""

    rater_id: str
    review_id: str
    value: float

    def __post_init__(self) -> None:
        _require_id("rater_id", self.rater_id)
        _require_id("review_id", self.review_id)
        if not is_on_scale(self.value):
            raise ValidationError(
                f"rating value must be one of {HELPFULNESS_SCALE}, got {self.value!r}"
            )


@dataclass(frozen=True)
class TrustStatement:
    """An explicit, binary trust edge ``truster -> trustee`` (the web of trust)."""

    truster_id: str
    trustee_id: str

    def __post_init__(self) -> None:
        _require_id("truster_id", self.truster_id)
        _require_id("trustee_id", self.trustee_id)
        if self.truster_id == self.trustee_id:
            raise ValidationError("a user cannot issue a trust statement about themselves")
