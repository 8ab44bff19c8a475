"""Pins the order in which EigenTrust adds its spread products.

Both backends of :func:`repro.propagation.eigen_trust` run the same
row-block sweep, so comparing them with each other no longer checks the
arithmetic.  The oracle below is the transposed formulation the sweep
replaced: each row block is scaled by its inverse row sums, transposed
with ``.T.tocsr()`` and accumulated into the output with ``csr_matvec``,
block by block in ascending row order, inside the same power iteration.
Scores must match it bitwise, with the same convergence telemetry.
"""

import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.matrix import UserPairMatrix
from repro.matrix.labels import LabelIndex
from repro.propagation import eigen_trust
from repro.propagation.eigentrust import _pretrust_vector
from repro.shard.layout import ShardLayout
from repro.shard.matrix import ENTRY_BYTES, ShardedPairMatrix

NUM_WEBS = 200


def transposed_oracle(blocks, users, *, pretrust, alpha, tolerance, max_iterations):
    """EigenTrust over per-block transposed operators (the replaced sweep).

    ``blocks`` are the web's CSR row blocks in ascending row order.
    Returns ``(scores, iterations, converged, residual)``.
    """
    n = len(users)
    dangling = np.ones(n, dtype=bool)
    operators = []
    lo = 0
    for block in blocks:
        hi = lo + block.shape[0]
        local_sums = np.asarray(block.sum(axis=1)).ravel()
        local_dangling = local_sums == 0.0
        dangling[lo:hi] = local_dangling
        inverse = np.where(
            local_dangling, 0.0, 1.0 / np.where(local_dangling, 1.0, local_sums)
        )
        scale = np.repeat(inverse, np.diff(block.indptr))
        op = sparse.csr_matrix(
            (block.data * scale, block.indices, block.indptr), shape=block.shape
        ).T.tocsr()
        if op.nnz:
            operators.append((lo, hi, op))
        lo = hi

    def apply(t):
        y = np.zeros(n)
        for lo, hi, op in operators:
            _sparsetools.csr_matvec(
                n, hi - lo, op.indptr, op.indices, op.data, t[lo:hi], y
            )
        return y

    p = _pretrust_vector(pretrust, users)
    t = p
    converged = False
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iterations + 1):
        spread = apply(t) + p * float(t[dangling].sum())
        new_t = (1.0 - alpha) * spread + alpha * p
        total = new_t.sum()
        if total > 0:
            new_t = new_t / total
        residual = float(np.abs(new_t - t).max())
        t = new_t
        if residual < tolerance:
            converged = True
            break
    return t, iterations, converged, residual


def random_case(seed):
    """A seeded random trust web plus EigenTrust arguments.

    Webs mix dangling rows, empty row bands (so some shards hold
    nothing), explicit zero weights, self-loops, and weights spread over
    up to 24 orders of magnitude; about half carry a pretrust vector, and
    some stop at a small iteration cap.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 48))
    users = LabelIndex([f"u{i}" for i in range(n)])
    density = float(rng.choice([0.0, 0.05, 0.15, 0.4, 0.9]))
    mask = rng.random((n, n)) < density
    mask[rng.random(n) < 0.2] = False  # dangling rows
    if n > 4 and rng.random() < 0.5:
        start = int(rng.integers(0, n - 2))
        mask[start : start + int(rng.integers(1, n - start))] = False  # empty band
    rows, cols = np.nonzero(mask)
    spread = float(rng.choice([0.0, 3.0, 12.0]))
    values = rng.random(rows.size) * 10.0 ** rng.uniform(-spread, spread, rows.size)
    values[rng.random(rows.size) < 0.1] = 0.0  # explicit zeros
    kwargs = {
        "pretrust": None,
        "alpha": float(rng.choice([0.05, 0.15, 0.5])),
        "tolerance": 1e-10,
        "max_iterations": int(rng.choice([3, 1000])),
    }
    if rng.random() < 0.5:
        chosen = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        kwargs["pretrust"] = {
            users.labels[i]: float(rng.random()) + 0.01 for i in chosen
        }
    return users, rows, cols, values, kwargs


def random_layout(rng, n, num_shards):
    """A row layout with ``num_shards`` blocks, some possibly row-less."""
    cuts = np.sort(rng.integers(0, n + 1, size=num_shards - 1))
    return ShardLayout(n_rows=n, bounds=(0, *(int(c) for c in cuts), n))


def build_web(backend, seed, users, rows, cols, values):
    """The case's web on ``backend`` plus its row blocks for the oracle."""
    flat = UserPairMatrix.from_arrays(users, rows, cols, values)
    if backend == "memory":
        return flat, [flat.csr()]
    rng = np.random.default_rng(10_000 + seed)
    num_shards, spill_bytes = {
        "shards1": (1, None),
        "shards3": (3, None),
        "shards5": (5, None),
        "spilled": (4, ENTRY_BYTES),
    }[backend]
    sharded = ShardedPairMatrix.from_pair_matrix(
        flat, random_layout(rng, len(users), num_shards), spill_bytes=spill_bytes
    )
    blocks = [sharded.shard_csr(s) for s in range(sharded.num_shards)]
    return sharded, blocks


@pytest.mark.parametrize(
    "backend", ["memory", "shards1", "shards3", "shards5", "spilled"]
)
def test_scores_match_transposed_oracle_bitwise(backend):
    for seed in range(NUM_WEBS):
        users, rows, cols, values, kwargs = random_case(seed)
        web, blocks = build_web(backend, seed, users, rows, cols, values)
        expected, iterations, converged, residual = transposed_oracle(
            blocks, users, **kwargs
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            scores = eigen_trust(web, **kwargs)
        assert np.array_equal(scores.scores_array(), expected), seed
        assert scores.iterations == iterations, seed
        assert scores.converged == converged, seed
        assert scores.residual == residual, seed


def test_cases_cover_the_edge_shapes():
    """The seeded webs do contain every edge shape the oracle test claims."""
    seen = dict.fromkeys(
        ["dangling", "empty_shard", "zeros", "orders", "pretrust", "capped"], 0
    )
    for seed in range(NUM_WEBS):
        users, rows, cols, values, kwargs = random_case(seed)
        n = len(users)
        seen["dangling"] += np.unique(rows).size < n
        layout = random_layout(np.random.default_rng(10_000 + seed), n, 5)
        filled = np.unique(layout.shard_of_rows(rows))
        seen["empty_shard"] += filled.size < layout.num_shards
        seen["zeros"] += bool((values == 0.0).any())
        positive = values[values > 0.0]
        seen["orders"] += positive.size > 1 and positive.max() / positive.min() > 1e12
        seen["pretrust"] += kwargs["pretrust"] is not None
        seen["capped"] += kwargs["max_iterations"] < 10
    assert min(seen.values()) >= 20, seen
