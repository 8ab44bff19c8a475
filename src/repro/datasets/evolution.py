"""Temporal evolution of the web of trust (validating "future trust").

The paper reads the model's high-scoring predictions on ``R - T`` as
trust that has not been expressed *yet*.  The simulator can test that
claim causally, because its trust process is explicit: at generation
time, an exposure gate (``profile.trust_exposure``) left a share of each
user's direct connections unconverted.

:func:`evolve_trust` advances the clock: every previously unexposed
connection gets its chance to convert, by the same alignment-weighted,
generosity-limited rule that produced the original web of trust.  The
result is the *future* web ``T_future ⊇ T`` against which today's
predictions can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import spawn_rng
from repro.common.validation import require_fraction
from repro.datasets.synthetic import SyntheticDataset, _weighted_sample
from repro.matrix import UserPairMatrix

__all__ = ["TrustEvolution", "evolve_trust"]


@dataclass(frozen=True)
class TrustEvolution:
    """The web of trust after one more exposure round.

    Attributes
    ----------
    future_trust:
        Binary matrix ``T_future`` -- the original explicit trust plus the
        newly converted edges.
    new_edges:
        The converted edges only (``T_future - T``).
    """

    future_trust: UserPairMatrix
    new_edges: set[tuple[str, str]]


def evolve_trust(
    dataset: SyntheticDataset,
    *,
    conversion_fraction: float = 0.5,
    seed: int = 1,
) -> TrustEvolution:
    """Convert part of the not-yet-trusted direct connections into trust.

    Parameters
    ----------
    dataset:
        A generated dataset (the evolution replays its latent traits).
    conversion_fraction:
        Fraction of each user's *remaining* trust capacity that converts
        this round (their generosity applied to connections that were not
        trusted at generation time).
    seed:
        Seed for the conversion draws (independent of the generation
        seed, like real elapsed time would be).

    Returns
    -------
    TrustEvolution
        The grown web of trust; the original edges are always preserved.
    """
    require_fraction("conversion_fraction", conversion_fraction)
    community = dataset.community
    latents = dataset.latents
    profile = dataset.profile
    rng = spawn_rng(seed, "trust-evolution")

    users = latents.users
    existing: dict[str, set[str]] = {}
    for source, target in community.trust_edges():
        existing.setdefault(source, set()).add(target)

    # candidates: direct connections (i rated j) not yet trusted
    connections: dict[str, set[str]] = {}
    for (rater_id, writer_id), _values in community.direct_connections().items():
        if rater_id != writer_id:
            connections.setdefault(rater_id, set()).add(writer_id)

    latent_expertise = latents.interest * latents.writer_skill[:, None]

    new_edges: set[tuple[str, str]] = set()
    for source in sorted(connections):
        i = users.position(source)
        trusted = existing.get(source, set())
        candidates = sorted(connections[source] - trusted)
        if not candidates:
            continue
        capacity = latents.generosity[i] * len(candidates) * conversion_fraction
        count = int(capacity + 0.5)
        if count <= 0:
            continue
        candidate_idx = np.array([users.position(t) for t in candidates])
        alignment = latents.interest[i] @ latent_expertise[candidate_idx].T
        picked = _weighted_sample(
            rng,
            candidate_idx,
            alignment,
            count,
            sharpness=profile.trust_alignment_sharpness,
            noise=profile.trust_noise,
        )
        for j in picked:
            new_edges.add((source, users.label(int(j))))

    edges = [*community.trust_edges(), *new_edges]
    future = UserPairMatrix.from_arrays(
        users,
        users.positions(source for source, _ in edges),
        users.positions(target for _, target in edges),
        1.0,
    )
    return TrustEvolution(future_trust=future, new_edges=new_edges)
