"""TidalTrust (Golbeck 2005): local trust inference along strong short paths.

To infer the trust of ``source`` in ``sink``:

1. breadth-first search finds the shortest source->sink paths;
2. the *path strength* of a path is the minimum edge weight along it
   (excluding the final hop); the *threshold* ``max`` is the largest
   strength over all shortest paths;
3. flowing back from the sink, each node's inferred trust in the sink is
   the weighted average of its neighbours' inferred trust, using only
   neighbour edges with weight >= threshold.

The algorithm reflects the paper's observation that "highly trusted
neighbours and closer neighbours are more accurate".

All three phases run level-synchronously on the CSR adjacency: each BFS
level, strength sweep and back-propagation step gathers the whole level's
edges at once instead of looping per node.  The web is a
:class:`repro.matrix.UserPairMatrix`, whose cached CSR is used directly.
"""

# repro: hot-path

from __future__ import annotations

import numpy as np

from repro import obs
from repro.common.arrays import AnyArray
from repro.common.errors import ValidationError
from repro.matrix import LabelIndex, UserPairMatrix

__all__ = ["tidal_trust"]


def tidal_trust(
    web: UserPairMatrix,
    source: str,
    sink: str,
) -> float | None:
    """Infer ``source``'s trust in ``sink`` through the web of trust.

    Returns ``None`` when no directed path exists (the failure mode the
    paper attributes to sparse webs of trust).  A direct edge returns its
    own weight.  Edge weights must lie in ``[0, 1]``.
    """
    users = web.users
    if source not in users or sink not in users:
        raise ValidationError(f"source {source!r} and sink {sink!r} must be graph nodes")
    with obs.span("propagation.tidaltrust", users=len(users), source=source, sink=sink):
        value, depth = _infer(web, users, source, sink)
        # TidalTrust is not iterative: the "iterations" of its telemetry
        # record is the shortest-path depth it back-propagated over.
        obs.convergence(
            "propagation.tidaltrust",
            iterations=depth,
            residual=0.0,
            tolerance=0.0,
            converged=True,
            path_found=value is not None,
        )
        return value


def _infer(
    matrix: UserPairMatrix,
    users: LabelIndex,
    source: str,
    sink: str,
) -> tuple[float | None, int]:
    """The three TidalTrust phases; returns ``(inferred value, path depth)``."""
    if source == sink:
        return 1.0, 0

    adjacency = matrix.csr()
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    n = len(users)
    src = users.position(source)
    snk = users.position(sink)

    direct = indices[indptr[src] : indptr[src + 1]] == snk
    if direct.any():
        return float(data[indptr[src] : indptr[src + 1]][direct][0]), 1

    forward = _bfs_levels(indptr, indices, n, src, until=snk)
    if forward is None:
        return None, 0
    depth_from_source, sink_depth = forward

    csc = adjacency.tocsc()
    backward = _bfs_levels(csc.indptr, csc.indices, n, snk, cutoff=sink_depth)
    assert backward is not None  # cutoff-bounded BFS always returns depths
    depth_to_sink, _ = backward

    # nodes on at least one shortest source->sink path, grouped by depth
    on_path = (
        (depth_from_source >= 0)
        & (depth_to_sink >= 0)
        & (depth_from_source + depth_to_sink == sink_depth)
    )
    levels = [
        np.nonzero(on_path & (depth_from_source == depth))[0]
        for depth in range(sink_depth + 1)
    ]

    threshold = _max_path_strength(
        indptr, indices, data, levels, depth_from_source, on_path, src, snk, n
    )

    # back-propagate trust from the sink, level by level; the base case is
    # the direct edge of each of the sink's shortest-path predecessors
    inferred = np.full(n, np.nan)
    rows, cols, weights = _gather_edges(indptr, indices, data, levels[sink_depth - 1])
    base = cols == snk
    inferred[rows[base]] = weights[base]

    for depth in range(sink_depth - 2, -1, -1):
        rows, cols, weights = _gather_edges(indptr, indices, data, levels[depth])
        usable = (
            on_path[cols]
            & (depth_from_source[cols] == depth + 1)
            & ~np.isnan(inferred[cols])
            & (weights >= threshold)
        )
        rows, cols, weights = rows[usable], cols[usable], weights[usable]
        numerator = np.bincount(rows, weights=weights * inferred[cols], minlength=n)
        denominator = np.bincount(rows, weights=weights, minlength=n)
        settled = levels[depth][denominator[levels[depth]] > 0.0]
        inferred[settled] = numerator[settled] / denominator[settled]

    value = inferred[src]
    if np.isnan(value):
        return None, sink_depth
    return float(value), sink_depth


def _edge_positions(
    indptr: AnyArray, nodes: AnyArray
) -> tuple[AnyArray, AnyArray]:
    """Flat positions of all out-edges of ``nodes`` plus their repeated rows."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(nodes, counts), np.repeat(starts, counts) + offsets


def _gather_edges(
    indptr: AnyArray, indices: AnyArray, data: AnyArray, nodes: AnyArray
) -> tuple[AnyArray, AnyArray, AnyArray]:
    """All out-edges of ``nodes`` as ``(rows, cols, weights)`` arrays."""
    rows, edge_pos = _edge_positions(indptr, nodes)
    return rows, indices[edge_pos], data[edge_pos]


def _bfs_levels(
    indptr: AnyArray,
    indices: AnyArray,
    n: int,
    start: int,
    *,
    until: int | None = None,
    cutoff: int | None = None,
) -> tuple[AnyArray, int] | None:
    """Level-synchronous BFS depths from ``start``.

    Expansion stops at the level where ``until`` is reached (returning
    ``None`` if it never is), or at ``cutoff`` levels.  Returns the depth
    array (-1 = unreached) and the final depth.
    """
    depths = np.full(n, -1, dtype=np.int64)
    depths[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        if until is not None and depths[until] >= 0:
            return depths, depth
        if cutoff is not None and depth >= cutoff:
            return depths, depth
        depth += 1
        _, edge_pos = _edge_positions(indptr, frontier)
        if edge_pos.size == 0:
            break
        neighbours = indices[edge_pos]
        fresh = np.unique(neighbours[depths[neighbours] < 0])
        depths[fresh] = depth
        frontier = fresh
    if until is not None:
        return None
    return depths, depth


def _max_path_strength(
    indptr: AnyArray,
    indices: AnyArray,
    data: AnyArray,
    levels: list[AnyArray],
    depth_from_source: AnyArray,
    on_path: AnyArray,
    src: int,
    snk: int,
    n: int,
) -> float:
    """Largest min-edge-weight over shortest paths (edges into the sink free)."""
    sink_depth = len(levels) - 1
    strength = np.full(n, -1.0)  # -1 = unreached
    strength[src] = np.inf
    for depth in range(sink_depth):
        rows, cols, weights = _gather_edges(indptr, indices, data, levels[depth])
        usable = (
            on_path[cols]
            & (depth_from_source[cols] == depth + 1)
            & (strength[rows] >= 0.0)
        )
        rows, cols, weights = rows[usable], cols[usable], weights[usable]
        # the final hop into the sink does not constrain strength
        path_strength = np.where(
            cols == snk, strength[rows], np.minimum(strength[rows], weights)
        )
        np.maximum.at(strength, cols, path_strength)
    value = strength[snk]
    return 0.0 if value in (np.inf, -1.0) else float(value)
