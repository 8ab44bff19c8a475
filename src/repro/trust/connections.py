"""The paper's observed user-pair relations: ``R``, ``B`` and ``T``.

- ``R`` (direct connections): ``R_ij = 1`` iff user *i* rated at least one
  review written by user *j*;
- ``B`` (baseline, §IV.C): ``B_ij`` = the mean rating *i* gave to *j*'s
  reviews -- defined exactly on the support of ``R``;
- ``T`` (ground truth): the explicit web of trust, binary.

Each is built whole, in one :meth:`repro.matrix.UserPairMatrix.from_arrays`
call over the community's own user axis.  ``R`` and ``B`` come from its
columnar view (:meth:`repro.community.Community.columns`), whose unique
rating pairs with their counts and mean values are position arrays.
"""

from __future__ import annotations

import numpy as np

from repro.community import Community
from repro.matrix import LabelIndex, UserPairMatrix

__all__ = ["direct_connection_matrix", "baseline_matrix", "ground_truth_matrix"]


def direct_connection_matrix(community: Community) -> UserPairMatrix:
    """Build ``R`` with entry values = number of ratings *i* gave *j*.

    The paper treats ``R`` as binary; the stored count is extra diagnostic
    information (any stored entry means ``R_ij = 1``).
    """
    columns = community.columns()
    rater, writer, counts, _means = columns.direct_connection_arrays()
    return UserPairMatrix.from_arrays(
        columns.users, rater, writer, counts.astype(np.float64)
    )


def baseline_matrix(community: Community) -> UserPairMatrix:
    """Build the paper's baseline ``B``: mean rating per direct connection.

    ``B_ij`` is the average of all ratings user *i* gave to user *j*'s
    reviews; it exists only where ``R_ij = 1``.
    """
    columns = community.columns()
    rater, writer, _counts, means = columns.direct_connection_arrays()
    return UserPairMatrix.from_arrays(columns.users, rater, writer, means)


def ground_truth_matrix(community: Community) -> UserPairMatrix:
    """Build the explicit web of trust ``T`` (binary entries of 1.0)."""
    users = LabelIndex(community.user_ids())
    edges = community.trust_edges()
    return UserPairMatrix.from_arrays(
        users,
        users.positions(source for source, _ in edges),
        users.positions(target for _, target in edges),
        1.0,
    )
