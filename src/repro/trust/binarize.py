"""Converting continuous trust values into a binary web of trust (§IV.C).

The ground-truth web of trust is binary, so the paper converts each user's
continuous trust row into binary decisions: user *i* is judged to trust user
*j* iff ``T-hat_ij`` is within the top ``k_i`` per cent of *i*'s derived
connections.  ``k_i`` is the user's **generousness** -- the fraction of
their direct connections they explicitly trust:

.. math::

    k_i = \\frac{|R_i \\cap T_i|}{|R_i|}

Applying the *same* per-user ``k_i`` to both the model and the baseline
makes the comparison fair while respecting that some users hand out trust
freely and others almost never.

:func:`binarize_top_k` cuts every row at once: one sort of the matrix's
entry arrays ranks each row's entries, and the kept ones build the binary
matrix in one call.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix

__all__ = ["generousness", "binarize_top_k"]


def generousness(
    connections: UserPairMatrix, ground_truth: UserPairMatrix
) -> dict[str, float]:
    """Per-user trust generousness ``k_i = |R_i ∩ T_i| / |R_i|``.

    Users with no direct connections get ``k_i = 0`` (no evidence of any
    willingness to trust).
    """
    if connections.users != ground_truth.users:
        raise ValidationError("connection and ground-truth matrices must share a user axis")
    n = len(connections.users)
    keys = connections.support_keys()
    rows = keys // n
    trusted = np.isin(keys, ground_truth.support_keys(), assume_unique=True)
    sizes = np.bincount(rows, minlength=n)
    sources = np.flatnonzero(sizes)
    ratios = np.bincount(rows[trusted], minlength=n)[sources] / sizes[sources]
    labels = connections.users.labels
    return dict(zip([labels[i] for i in sources.tolist()], ratios.tolist()))


def binarize_top_k(
    matrix: UserPairMatrix,
    k_by_user: Mapping[str, float],
    *,
    default_k: float = 0.0,
) -> UserPairMatrix:
    """Binarise each row of ``matrix`` at the user's top-``k`` fraction.

    For user *i* with ``n_i`` stored entries, the ``floor(k_i * n_i + 0.5
    + 1e-9)`` highest-valued entries (``k_i * n_i`` rounded half up, with
    float-noise tolerance) become 1; everything else is dropped.  Ties at
    the cut are resolved in favour of earlier axis positions, the way a
    site would cut a ranked list, so equal matrices always binarise
    identically.  One ``lexsort`` over all entries ranks every row at
    once: by row, then value descending, then column.

    Parameters
    ----------
    matrix:
        Continuous trust values (e.g. ``T-hat`` or baseline ``B``).
    k_by_user:
        Per-user fractions in ``[0, 1]`` (missing users fall back to
        ``default_k``; users off the matrix's axis are ignored).

    Returns
    -------
    UserPairMatrix
        A binary matrix whose stored entries all have value 1.0.
    """
    for user, k in k_by_user.items():
        if not 0.0 <= k <= 1.0:
            raise ValidationError(f"k for user {user!r} must be in [0, 1], got {k!r}")
    if not 0.0 <= default_k <= 1.0:
        raise ValidationError(f"default_k must be in [0, 1], got {default_k!r}")

    users = matrix.users
    k = np.full(len(users), float(default_k))
    for user, k_user in k_by_user.items():
        if user in users:
            k[users.position(user)] = k_user
    rows, cols, vals = matrix.entries_arrays()
    sizes = np.bincount(rows, minlength=len(users))
    keep = np.floor(k * sizes + 0.5 + 1e-9)
    # rows are already sorted, so the order keeps each row's entries where
    # they were and only ranks them within the row
    order = np.lexsort((cols, -vals, rows))
    rank = np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows]
    chosen = order[rank < keep[rows]]
    return UserPairMatrix.from_arrays(users, rows[chosen], cols[chosen], 1.0)
