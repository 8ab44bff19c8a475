"""Copy helpers for the incremental engine.

The engine's correctness story is "an incremental update is bitwise equal
to a cold run on the same data".  Checking that honestly needs a *fresh*
community holding the same records -- comparing against the mutated
community itself would let a columns-cache bug hide behind its own cached
state.  :func:`clone_community` builds one whole from a copy of the
source's record columns (:meth:`repro.community.Community.from_columns`);
:func:`split_rating_stream` additionally withholds a suffix of ratings so
tests, benchmarks and the CLI can feed them back one batch at a time as
the mutation stream.  :func:`extract_records` dumps a community as typed
model objects, for callers that want records rather than columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ValidationError
from repro.community import (
    Category,
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)

__all__ = ["CommunityRecords", "extract_records", "clone_community", "split_rating_stream"]


@dataclass(frozen=True)
class CommunityRecords:
    """Every record of a community, in insertion order per table."""

    users: tuple[User, ...]
    categories: tuple[Category, ...]
    objects: tuple[ReviewedObject, ...]
    reviews: tuple[Review, ...]
    ratings: tuple[ReviewRating, ...]
    trust: tuple[TrustStatement, ...]


def extract_records(community: Community) -> CommunityRecords:
    """Dump a community back into typed records (insertion order)."""
    return CommunityRecords(
        users=tuple(community.iter_users()),
        categories=tuple(community.iter_categories()),
        objects=tuple(community.iter_objects()),
        reviews=tuple(community.iter_reviews()),
        ratings=tuple(community.iter_ratings()),
        trust=tuple(
            TrustStatement(truster_id=truster, trustee_id=trustee)
            for truster, trustee in community.trust_edges()
        ),
    )


def clone_community(community: Community, *, name: str | None = None) -> Community:
    """A fresh community holding the same records, built whole.

    The clone shares no state with the original: it is built from a copy
    of the record columns, its change log starts at its record count and
    its columns cache is cold, which is exactly what a bitwise
    cold-vs-incremental comparison needs.
    """
    return Community.from_columns(
        community.record_columns(), name=name or f"{community.name}_replica"
    )


def split_rating_stream(
    community: Community,
    withhold: int,
    *,
    category_id: str | None = None,
    name: str | None = None,
) -> tuple[Community, tuple[ReviewRating, ...]]:
    """Replica with the last ``withhold`` ratings held out, plus the stream.

    ``category_id`` restricts the held-out suffix to ratings of reviews in
    one category, which keeps later incremental updates localised (only
    that category's Step-1 fixed point goes stale).  The returned stream is
    in original insertion order; replaying it via ``add_rating`` restores
    the community record-for-record.
    """
    if withhold < 0:
        raise ValidationError(f"withhold must be >= 0, got {withhold}")
    columns = community.record_columns()
    rater, review, values = columns.rating_rater, columns.rating_review, columns.rating_value
    in_stream = np.ones(values.size, dtype=bool)
    if category_id is not None:
        if category_id not in columns.categories:
            raise ValidationError(f"unknown category {category_id!r}")
        category = list(columns.categories).index(category_id)
        in_stream = columns.object_category[columns.review_object][review] == category
    eligible = np.flatnonzero(in_stream)
    if withhold > eligible.size:
        raise ValidationError(
            f"cannot withhold {withhold} ratings; only {eligible.size} eligible"
        )
    held = eligible[eligible.size - withhold :]
    kept = np.ones(values.size, dtype=bool)
    kept[held] = False
    users, reviews = columns.users, columns.reviews
    stream = tuple(
        ReviewRating(users[i], reviews[j], value)
        for i, j, value in zip(rater[held].tolist(), review[held].tolist(), values[held].tolist())
    )
    replica = Community.from_columns(
        replace(
            columns,
            rating_rater=rater[kept],
            rating_review=review[kept],
            rating_value=values[kept],
        ),
        name=name or f"{community.name}_base",
    )
    return replica, stream
