"""Appleseed (Ziegler & Lausen 2004): spreading-activation trust metric.

Energy is injected at a source node and flows along trust edges: each node
keeps a ``1 - spreading_factor`` share of incoming energy as *trust rank*
and forwards the rest to its successors proportionally to edge weights.
Iteration continues until the flowing energy change falls below a
threshold.  The result is a personalised trust ranking of all nodes
reachable from the source -- the "spreading activation model" the paper
cites for trust propagation.

Each sweep is vectorised over the whole energy front: the per-edge shares
are one scaled gather over the CSR adjacency and one ``bincount`` scatter,
instead of Python loops over successor lists.  The web is a
:class:`repro.matrix.UserPairMatrix`, whose cached CSR is used directly.
"""

# repro: hot-path

from __future__ import annotations

import warnings

import numpy as np

from repro import obs
from repro.common.errors import ValidationError
from repro.common.validation import require_in_range, require_positive
from repro.matrix import UserPairMatrix
from repro.propagation.scores import PropagationScores

__all__ = ["appleseed"]


def appleseed(
    web: UserPairMatrix,
    source: str,
    *,
    energy: float = 200.0,
    spreading_factor: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 2000,
) -> PropagationScores:
    """Compute Appleseed trust ranks from ``source``.

    Parameters
    ----------
    web:
        The trust web.
    energy:
        Energy injected at the source (``in_0``); ranks scale linearly
        with it.
    spreading_factor:
        Fraction of incoming energy a node forwards to its successors
        (``d`` in the paper; 0.85 is the authors' recommendation).

    Returns
    -------
    PropagationScores
        ``{node: rank}`` over the nodes that received energy (the dense
        vector on :meth:`~PropagationScores.scores_array` covers the whole
        axis, zero elsewhere); the source itself keeps rank 0 (it only
        distributes).  Carries convergence telemetry (``converged`` /
        ``iterations`` / ``residual``); hitting the ``max_iterations`` cap
        emits a :class:`RuntimeWarning` and returns the unconverged ranks
        with ``converged=False`` instead of raising.
    """
    users = web.users
    if source not in users:
        raise ValidationError(f"source {source!r} is not a graph node")
    require_positive("energy", energy)
    require_in_range("spreading_factor", spreading_factor, 0.0, 1.0, inclusive=False)
    require_positive("tolerance", tolerance)

    n = len(users)
    src = users.position(source)

    with obs.span("propagation.appleseed", users=n, source=source):
        # positive-weight edge arrays (zero/negative edges carry no energy)
        adjacency = web.csr()
        edge_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adjacency.indptr))
        positive = adjacency.data > 0.0
        edge_rows = edge_rows[positive]
        edge_cols = adjacency.indices[positive]
        # each edge's fraction of its row's outgoing weight
        out_weight = np.bincount(edge_rows, weights=adjacency.data[positive], minlength=n)
        edge_share = adjacency.data[positive] / np.where(out_weight > 0, out_weight, 1.0)[edge_rows]

        keep_factor = 1.0 - spreading_factor
        rank = np.zeros(n, dtype=np.float64)
        incoming = np.zeros(n, dtype=np.float64)
        incoming[src] = energy
        received = np.zeros(n, dtype=bool)
        received[src] = True

        converged = False
        iterations = 0
        max_flow = float("inf")
        for iterations in range(1, max_iterations + 1):
            received |= incoming > 0.0
            # every node except the source retains its share as rank ...
            retained = keep_factor * incoming
            retained[src] = 0.0
            rank += retained
            # ... and forwards the rest (the source forwards everything)
            forwarded = spreading_factor * incoming
            forwarded[src] = incoming[src]
            shares = forwarded[edge_rows] * edge_share
            max_flow = float(shares.max()) if shares.size else 0.0
            incoming = np.bincount(edge_cols, weights=shares, minlength=n)
            if max_flow < tolerance:
                converged = True
                break
        obs.convergence(
            "propagation.appleseed",
            iterations=iterations,
            residual=max_flow,
            tolerance=tolerance,
            converged=converged,
        )
        if not converged:
            warnings.warn(
                f"Appleseed stopped at the max_iterations cap ({max_iterations}) "
                f"with flowing energy {max_flow:.3e} > tolerance {tolerance:.3e}; "
                f"returning the unconverged ranks (converged=False)",
                RuntimeWarning,
                stacklevel=2,
            )
        return PropagationScores(
            users,
            rank,
            present=received,
            converged=converged,
            iterations=iterations,
            residual=max_flow,
        )
