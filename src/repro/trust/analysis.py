"""Structural analysis of webs of trust: the sparsity problem, quantified.

The paper's motivation for deriving trust is that sparse explicit webs
break path-based inference ("if a web of trust is too sparse, it is hard
to find paths from the source to the sink", §II).  These helpers measure
exactly that:

- :func:`web_analysis` -- out-degree coverage, reachability and path
  lengths of one web of trust (sampled for large graphs);
- :func:`coverage_comparison` -- the same quantities for the explicit web
  vs the derived web side by side, showing how much more *inferable* the
  derived web makes the community.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import spawn_rng
from repro.common.validation import require_positive
from repro.matrix import UserPairMatrix

__all__ = ["WebAnalysis", "web_analysis", "coverage_comparison"]


@dataclass(frozen=True)
class WebAnalysis:
    """Structural summary of one web of trust.

    Attributes
    ----------
    num_users / num_edges:
        Axis size and stored edge count.
    sources_fraction:
        Fraction of users with at least one outgoing trust edge (users
        who can even *start* a trust query).
    reachable_pair_fraction:
        Estimated fraction of ordered user pairs connected by a directed
        path (sampled).
    mean_path_length:
        Mean shortest-path length over the sampled reachable pairs.
    largest_scc_fraction:
        Share of users inside the largest strongly connected component.
    """

    num_users: int
    num_edges: int
    sources_fraction: float
    reachable_pair_fraction: float
    mean_path_length: float
    largest_scc_fraction: float


def web_analysis(
    web: UserPairMatrix,
    *,
    samples: int = 500,
    seed: int = 0,
) -> WebAnalysis:
    """Measure the structure of ``web`` (treated as a directed graph).

    Every stored entry is an edge, explicit zeros and self-loops included.
    Reachability and path length are estimated from ``samples`` random
    source users via BFS (exact for graphs smaller than the sample
    budget).  Hop counts are integers, so the mean path length is exact.
    """
    from scipy.sparse.csgraph import connected_components, shortest_path

    require_positive("samples", samples)
    num_users = len(web.users)
    if num_users == 0:
        return WebAnalysis(0, 0, 0.0, 0.0, 0.0, 0.0)

    graph = web.csr()
    num_edges = web.num_entries()
    sources = np.flatnonzero(np.diff(graph.indptr) > 0)
    sources_fraction = sources.size / num_users

    rng = spawn_rng(seed, "web-analysis")
    if sources.size and samples < sources.size:
        picked = sources[rng.choice(sources.size, samples, replace=False)]
    else:
        picked = sources

    reachable_total = 0
    length_sum = 0
    if picked.size:
        hops = shortest_path(graph, unweighted=True, indices=picked)
        reached = hops[np.isfinite(hops)]
        # each source reaches itself at 0 hops; it is not a pair
        reachable_total = int(reached.size) - int(picked.size)
        length_sum = int(reached.astype(np.int64).sum())
        # scale the sampled sources up to all sources, then over all pairs
        per_source = reachable_total / picked.size
        reachable_pairs = per_source * sources.size
        reachable_fraction = reachable_pairs / max(num_users * (num_users - 1), 1)
    else:
        reachable_fraction = 0.0

    if num_users > 1 and num_edges > 0:
        _, labels = connected_components(graph, directed=True, connection="strong")
        scc_fraction = int(np.bincount(labels).max()) / num_users
    else:
        scc_fraction = 0.0

    return WebAnalysis(
        num_users=num_users,
        num_edges=num_edges,
        sources_fraction=sources_fraction,
        reachable_pair_fraction=float(reachable_fraction),
        mean_path_length=(length_sum / reachable_total) if reachable_total else 0.0,
        largest_scc_fraction=scc_fraction,
    )


def coverage_comparison(
    explicit: UserPairMatrix,
    derived: UserPairMatrix,
    *,
    samples: int = 500,
    seed: int = 0,
) -> dict[str, WebAnalysis]:
    """Analyse the explicit and derived webs with identical sampling."""
    return {
        "explicit": web_analysis(explicit, samples=samples, seed=seed),
        "derived": web_analysis(derived, samples=samples, seed=seed),
    }
