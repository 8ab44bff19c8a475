"""Record replay helpers for the incremental engine.

The engine's correctness story is "an incremental update is bitwise equal
to a cold run on the same data".  Checking that honestly needs a *fresh*
community built from the same records -- comparing against the mutated
community itself would let a columns-cache bug hide behind its own cached
state.  :func:`clone_community` rebuilds a replica by replaying every
record in insertion order; :func:`split_rating_stream` additionally
withholds a suffix of ratings so tests, benchmarks and the CLI can feed
them back one batch at a time as the mutation stream.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """A fresh community holding the same records, replayed in order.

    The clone shares no state with the original -- its change log starts
    at the replayed record count and its columns cache is cold -- which is
    exactly what a bitwise cold-vs-incremental comparison needs.
    """
    records = extract_records(community)
    return Community.from_records(
        name=name or f"{community.name}_replica",
        users=records.users,
        categories=records.categories,
        objects=records.objects,
        reviews=records.reviews,
        ratings=records.ratings,
        trust=records.trust,
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
    records = extract_records(community)
    if category_id is not None:
        if category_id not in community.category_ids():
            raise ValidationError(f"unknown category {category_id!r}")
        eligible = [
            idx
            for idx, rating in enumerate(records.ratings)
            if community.review_category(rating.review_id) == category_id
        ]
    else:
        eligible = list(range(len(records.ratings)))
    if withhold > len(eligible):
        raise ValidationError(
            f"cannot withhold {withhold} ratings; only {len(eligible)} eligible"
        )
    held = frozenset(eligible[len(eligible) - withhold :])
    kept = tuple(r for idx, r in enumerate(records.ratings) if idx not in held)
    stream = tuple(records.ratings[idx] for idx in sorted(held))
    replica = Community.from_records(
        name=name or f"{community.name}_base",
        users=records.users,
        categories=records.categories,
        objects=records.objects,
        reviews=records.reviews,
        ratings=kept,
        trust=records.trust,
    )
    return replica, stream
