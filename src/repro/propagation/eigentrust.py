"""EigenTrust (Kamvar, Schlosser & Garcia-Molina 2003).

A *global* trust model: normalise each user's outgoing trust to sum 1,
then find the principal left eigenvector of the resulting stochastic
matrix, mixed with a pre-trust distribution for irreducibility:

.. math::

    t^{(k+1)} = (1 - a) \\cdot C^T t^{(k)} + a \\cdot p

where ``C`` is the row-normalised trust matrix, ``p`` the pre-trust
distribution and ``a`` the mixing weight.  The result ranks every node by
community-wide trust (the paper's §II: global models "rank all nodes with
a universal trust value").

The iteration runs on the sparse CSR view of the trust web: a
:class:`repro.matrix.UserPairMatrix`'s cached CSR is used directly.

Row-block sweep
---------------
Both backends run one sweep over CSR row blocks in ascending row order:
an in-memory :class:`repro.matrix.UserPairMatrix` is a single block (its
cached :meth:`~repro.matrix.UserPairMatrix.csr`), and a
:class:`repro.shard.ShardedPairMatrix` gives one
:meth:`~repro.shard.ShardedPairMatrix.shard_csr` block per shard.  Once
per call each block's data is scaled by its inverse row sums, so a
sharded input reads each spilled shard's keys and values at most once
per call and writes nothing.  For the call the heap holds every scaled
block (float64 data plus the block's own index arrays, at most 16 B per
stored entry) and the O(U) iteration vectors; the shard payloads stay
where the spill budget put them.

Every sweep runs scipy's ``csc_matvec`` on the untransposed blocks: a
row block's CSR arrays, read as CSC, describe its transpose, and the
kernel adds each ``c_ij * t_i`` into the running ``y[j]`` source row by
source row.  That is the order ``csr_matvec`` adds them in over the
transposed CSR (``spread_op @ t``, whose rows list their sources in
ascending order), so the scores are bitwise equal to the transposed
formulation however the rows are split into blocks.  The per-block
partial-sum formulation (``y += block.T @ t_block``) would not be,
because it changes the additions' parenthesisation.
"""

# repro: hot-path

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro import obs
from repro.common.arrays import BoolArray, FloatArray, IntArray
from repro.common.errors import ValidationError
from repro.common.validation import require_fraction, require_positive
from repro.matrix import LabelIndex, UserPairMatrix
from repro.propagation.scores import PropagationScores

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.matrix import ShardedPairMatrix

__all__ = ["eigen_trust"]


def eigen_trust(
    web: "UserPairMatrix | ShardedPairMatrix",
    *,
    pretrust: dict[str, float] | None = None,
    alpha: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    initial: Mapping[str, float] | FloatArray | None = None,
) -> PropagationScores:
    """Compute global EigenTrust values for every node.

    Parameters
    ----------
    web:
        The trust web: a :class:`repro.matrix.UserPairMatrix`, or a
        :class:`repro.shard.ShardedPairMatrix` (swept shard by shard,
        bitwise equal to the in-memory matrix).
    pretrust:
        Prior trust distribution (defaults to uniform).  Values are
        normalised to sum 1; nodes absent from the mapping get 0.
    alpha:
        Weight of the pre-trust mixing (0 = pure eigenvector, needs a
        strongly connected graph to be well-defined).
    initial:
        Optional warm-start vector -- either a ``{node: score}`` mapping
        (missing nodes get 0) or a dense array aligned with the matrix's
        user axis.  It is normalised to sum 1 and replaces the default
        start ``t = p``.  The fixed point is unique for ``alpha > 0``, so
        a warm start changes the iteration count, not the limit; the
        incremental engine feeds the previous scores back in to save
        sweeps.  Ignored when it has no positive mass.

    Returns
    -------
    PropagationScores
        Trust per node, summing to 1; usable as a ``{node: trust}``
        mapping, with the dense vector on :meth:`~PropagationScores.scores_array`
        (empty graph -> empty scores).  Carries convergence telemetry
        (``converged`` / ``iterations`` / ``residual``); hitting the
        ``max_iterations`` cap emits a :class:`RuntimeWarning` and returns
        the unconverged scores with ``converged=False`` instead of raising.
    """
    require_fraction("alpha", alpha)
    require_positive("tolerance", tolerance)
    require_positive("max_iterations", max_iterations)

    shards = 0 if isinstance(web, UserPairMatrix) else web.num_shards
    users = web.users
    n = len(users)
    if n == 0:
        return PropagationScores(LabelIndex(()), np.zeros(0))

    with obs.span("propagation.eigentrust", users=n, shards=shards):
        blocks, dangling = _scaled_blocks(_row_blocks(web), n)
        p = _pretrust_vector(pretrust, users)
        t = _initial_vector(initial, users, p)
        converged = False
        iterations = 0
        residual = float("inf")
        for iterations in range(1, max_iterations + 1):
            # dangling users are treated as trusting the pre-trusted peers
            spread = _spread(blocks, t) + p * float(t[dangling].sum())
            new_t = (1.0 - alpha) * spread + alpha * p
            total = new_t.sum()
            if total > 0:
                new_t = new_t / total
            residual = float(np.abs(new_t - t).max())
            t = new_t
            if residual < tolerance:
                converged = True
                break
        if shards:
            obs.add("propagation.eigentrust.shard_sweeps", iterations * len(blocks))
        obs.convergence(
            "propagation.eigentrust",
            iterations=iterations,
            residual=residual,
            tolerance=tolerance,
            converged=converged,
        )
        if not converged:
            warnings.warn(
                f"EigenTrust stopped at the max_iterations cap ({max_iterations}) "
                f"with residual {residual:.3e} > tolerance {tolerance:.3e}; "
                f"returning the unconverged scores (converged=False)",
                RuntimeWarning,
                stacklevel=2,
            )
        return PropagationScores(
            users, t, converged=converged, iterations=iterations, residual=residual
        )


#: One non-empty row block of the spread operator: its first row, its CSR
#: row pointers and column indices, and its data scaled by the inverse
#: row sums.
_ScaledBlock = tuple[int, IntArray, IntArray, FloatArray]


def _row_blocks(
    source: "UserPairMatrix | ShardedPairMatrix",
) -> Iterator[sparse.csr_matrix]:
    """``source``'s CSR row blocks in ascending row order, built on demand."""
    if isinstance(source, UserPairMatrix):
        yield source.csr()
        return
    for shard in range(source.num_shards):
        yield source.shard_csr(shard)


def _scaled_blocks(
    blocks: Iterable[sparse.csr_matrix], n: int
) -> tuple[list[_ScaledBlock], BoolArray]:
    """Row-normalise every block once; returns the non-empty ones and the
    dangling mask (rows with no outgoing weight)."""
    dangling: BoolArray = np.ones(n, dtype=bool)
    scaled: list[_ScaledBlock] = []
    lo = 0
    for block in blocks:
        hi = lo + block.shape[0]
        if block.nnz and float(block.data.min()) < 0.0:
            raise ValidationError("EigenTrust requires non-negative edge weights")
        row_sums = np.asarray(block.sum(axis=1)).ravel()
        local_dangling = row_sums == 0.0
        dangling[lo:hi] = local_dangling
        if block.nnz:
            inverse = np.where(
                local_dangling, 0.0, 1.0 / np.where(local_dangling, 1.0, row_sums)
            )
            # the same inverse[i] * a_ij products a diagonal matmul would
            # form, multiplied in place so only one data-sized array is new
            data = np.repeat(inverse, np.diff(block.indptr))
            data *= block.data
            scaled.append((lo, block.indptr, block.indices, data))
        lo = hi
    return scaled, dangling


def _spread(blocks: list[_ScaledBlock], t: FloatArray) -> FloatArray:
    """``C^T t`` over the scaled row blocks, added in source-row order.

    ``csc_matvec`` reads a row block as the CSC form of its transpose and
    adds into ``y`` element by element, so sweeping the blocks in
    ascending row order adds every product in the order ``csr_matvec``
    would over the whole transposed operator (see the module notes).
    """
    n = t.shape[0]
    y: FloatArray = np.zeros(n)
    for lo, indptr, indices, data in blocks:
        rows = indptr.shape[0] - 1
        _sparsetools.csc_matvec(n, rows, indptr, indices, data, t[lo : lo + rows], y)
    return y


def _initial_vector(
    initial: Mapping[str, float] | FloatArray | None,
    users: LabelIndex,
    p: FloatArray,
) -> FloatArray:
    """Resolve the warm-start vector; fall back to ``p`` (the cold start)."""
    if initial is None:
        return p.copy()
    n = len(users)
    if isinstance(initial, np.ndarray):
        if initial.shape != (n,):
            raise ValidationError(
                f"initial vector must have shape ({n},), got {initial.shape}"
            )
        t = initial.astype(np.float64, copy=True)
    else:
        t = np.zeros(n)
        for node, value in initial.items():
            if node in users:
                t[users.position(node)] = value
    if np.any(t < 0.0):
        raise ValidationError("initial scores must be non-negative")
    total = t.sum()
    if total <= 0.0:
        return p.copy()
    return t / total


def _pretrust_vector(pretrust: dict[str, float] | None, users: LabelIndex) -> FloatArray:
    n = len(users)
    if pretrust is None:
        return np.full(n, 1.0 / n)
    p = np.zeros(n)
    for node, value in pretrust.items():
        if node not in users:
            raise ValidationError(f"pretrust names unknown node {node!r}")
        if value < 0:
            raise ValidationError("pretrust values must be non-negative")
        p[users.position(node)] = value
    total = p.sum()
    if total <= 0:
        raise ValidationError("pretrust must have positive total mass")
    return p / total
