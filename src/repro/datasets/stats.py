"""Descriptive statistics of a community dataset.

Used by the experiment reports (dataset sections of EXPERIMENTS.md) and by
examples to show what was generated/loaded before running the framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.community import Community

__all__ = ["DatasetStats", "dataset_stats", "CategoryStats"]


@dataclass(frozen=True)
class CategoryStats:
    """Per-category activity counts."""

    category_id: str
    name: str
    num_objects: int
    num_reviews: int
    num_ratings: int
    num_writers: int
    num_raters: int


@dataclass(frozen=True)
class DatasetStats:
    """Community-wide statistics.

    Attributes
    ----------
    num_users / num_categories / num_reviews / num_ratings / num_trust_edges:
        Entity counts.
    rating_density:
        Stored (rater, writer) direct-connection pairs over all ordered
        user pairs -- the density of the paper's ``R``.
    trust_density:
        Explicit trust edges over all ordered user pairs -- the density of
        the paper's ``T`` (the sparsity problem motivating the framework).
    ratings_per_review:
        Mean ratings received per review (rated reviews only).
    per_category:
        One :class:`CategoryStats` per category.
    """

    num_users: int
    num_categories: int
    num_objects: int
    num_reviews: int
    num_ratings: int
    num_trust_edges: int
    rating_density: float
    trust_density: float
    ratings_per_review: float
    per_category: tuple[CategoryStats, ...] = field(default_factory=tuple)


def dataset_stats(community: Community) -> DatasetStats:
    """Compute :class:`DatasetStats` for ``community``."""
    summary = community.summary()
    num_users = summary["users"]
    possible_pairs = max(num_users * (num_users - 1), 1)

    review_ids, review_writer, _ = community.encoded_reviews()
    rater, review, _ = community.encoded_ratings()
    writer = review_writer[review]
    # distinct (rater, writer) pairs of R, self-pairs excluded
    direct_pairs = np.unique((rater << 32 | writer)[rater != writer]).size

    # the counts are integers, so their mean does not depend on the order
    received = np.bincount(review, minlength=len(review_ids))
    received = received[received > 0]
    mean_received = float(np.mean(received)) if received.size else 0.0

    per_category = []
    names = {
        category.category_id: (category.name or category.category_id)
        for category in community.iter_categories()
    }
    for cid in community.category_ids():
        writing = community.writing_counts(cid)
        rating_counts = community.rating_counts(cid)
        per_category.append(
            CategoryStats(
                category_id=cid,
                name=names[cid],
                num_objects=len(community.object_ids(cid)),
                num_reviews=community.num_reviews(cid),
                num_ratings=community.num_ratings(cid),
                num_writers=len(writing),
                num_raters=len(rating_counts),
            )
        )

    return DatasetStats(
        num_users=num_users,
        num_categories=summary["categories"],
        num_objects=summary["objects"],
        num_reviews=summary["reviews"],
        num_ratings=summary["ratings"],
        num_trust_edges=summary["trust"],
        rating_density=direct_pairs / possible_pairs,
        trust_density=summary["trust"] / possible_pairs,
        ratings_per_review=mean_received,
        per_category=tuple(per_category),
    )
