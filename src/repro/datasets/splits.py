"""Hold-out splits of a community's ratings (for application evaluation).

:func:`holdout_ratings` removes a random fraction of helpfulness ratings
from a community, returning the reduced *training* community and the
held-out ratings -- the standard protocol for evaluating rating
prediction / recommendation built on top of the derived trust matrix.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.rng import spawn_rng
from repro.community import Community, ReviewRating, TrustStatement

__all__ = ["holdout_ratings"]


def holdout_ratings(
    community: Community,
    fraction: float,
    seed: int = 0,
    *,
    keep_trust: bool = True,
) -> tuple[Community, list[ReviewRating]]:
    """Split off ``fraction`` of the ratings as a held-out test set.

    Parameters
    ----------
    community:
        The full community (unmodified).
    fraction:
        Fraction of ratings to hold out, in ``(0, 1)``.
    keep_trust:
        Whether the training community keeps the explicit trust table
        (disable to evaluate the no-web-of-trust scenario end to end).

    Returns
    -------
    (train, held_out):
        ``train`` is a new community with the held-out ratings removed;
        ``held_out`` lists the removed ratings.  Users, categories,
        objects and reviews are copied record for record, names and
        titles included, so every held-out rating refers to a review that
        still exists in ``train``.
    """
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must be in (0, 1), got {fraction!r}")

    ratings = list(community.iter_ratings())
    if len(ratings) < 2:
        raise ValidationError("need at least 2 ratings to split")
    rng = spawn_rng(seed, "holdout")
    count = max(1, int(round(fraction * len(ratings))))
    held_idx = set(rng.choice(len(ratings), size=count, replace=False).tolist())

    held_out = [rating for i, rating in enumerate(ratings) if i in held_idx]
    kept = [rating for i, rating in enumerate(ratings) if i not in held_idx]

    train = Community.from_records(
        name=community.name + "_train",
        users=community.iter_users(),
        categories=community.iter_categories(),
        objects=community.iter_objects(),
        reviews=community.iter_reviews(),
        ratings=kept,
        trust=(
            [TrustStatement(source, target) for source, target in community.trust_edges()]
            if keep_trust
            else ()
        ),
    )
    return train, held_out
