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

    For user *i* with ``n_i`` stored entries, the ``round(k_i * n_i)``
    highest-valued entries become 1; everything else is dropped.  Ties at
    the cut are resolved in favour of earlier axis positions (stable), the
    way a site would cut a ranked list: rows iterate in canonical
    row-major order, so equal matrices always binarise identically
    regardless of the order their entries were stored in.

    Parameters
    ----------
    matrix:
        Continuous trust values (e.g. ``T-hat`` or baseline ``B``).
    k_by_user:
        Per-user fractions in ``[0, 1]`` (missing users fall back to
        ``default_k``).

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

    result = UserPairMatrix(matrix.users)
    for source in matrix.source_ids():
        row = matrix.row(source)
        k = k_by_user.get(source, default_k)
        keep = _round_half_up(k * len(row))
        if keep <= 0:
            continue
        # stable: sort by value descending, preserving insertion order on ties
        ranked = sorted(row.items(), key=lambda item: -item[1])
        for target, _value in ranked[:keep]:
            result.set(source, target, 1.0)
    return result


def _round_half_up(x: float) -> int:
    """Round to nearest integer, halves up, with float-noise tolerance."""
    return int(x + 0.5 + 1e-9)
