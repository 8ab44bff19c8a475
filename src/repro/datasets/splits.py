"""Hold-out splits of a community's ratings (for application evaluation).

:func:`holdout_ratings` removes a random fraction of helpfulness ratings
from a community, returning the reduced *training* community and the
held-out ratings -- the standard protocol for evaluating rating
prediction / recommendation built on top of the derived trust matrix.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import spawn_rng
from repro.community import Community, ReviewRating

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

    columns = community.record_columns()
    rater, review, values = columns.rating_rater, columns.rating_review, columns.rating_value
    if values.size < 2:
        raise ValidationError("need at least 2 ratings to split")
    rng = spawn_rng(seed, "holdout")
    count = max(1, int(round(fraction * values.size)))
    held = np.zeros(values.size, dtype=bool)
    held[rng.choice(values.size, size=count, replace=False)] = True

    users, reviews = columns.users, columns.reviews
    held_out = [
        ReviewRating(users[i], reviews[j], value)
        for i, j, value in zip(rater[held].tolist(), review[held].tolist(), values[held].tolist())
    ]
    kept = ~held
    no_trust = np.empty(0, dtype=np.int64)
    train = Community.from_columns(
        replace(
            columns,
            rating_rater=rater[kept],
            rating_review=review[kept],
            rating_value=values[kept],
            trust_truster=columns.trust_truster if keep_trust else no_trust,
            trust_trustee=columns.trust_trustee if keep_trust else no_trust,
        ),
        name=community.name + "_train",
    )
    return train, held_out
