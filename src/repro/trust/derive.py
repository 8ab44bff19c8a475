"""Deriving the degree-of-trust matrix ``T-hat`` (paper eq. 5).

.. math::

    \\hat{T}_{ij} = \\frac{\\sum_c A_{ic} E_{jc}}{\\sum_c A_{ic}}

Row ``i`` of ``T-hat`` is an affinity-weighted average of user *j*'s
per-category expertise: an expert in categories that matter to *i* earns a
high degree of trust from *i*.  ``T-hat_ij = 0`` means the categories *i*
cares about and the categories *j* is expert in do not overlap.

Implementation notes
--------------------
The full matrix is the product ``W @ E.T`` where ``W`` is ``A`` with rows
normalised to sum 1 (zero-affinity rows stay zero).  One row-range kernel,
:meth:`TrustDeriver._row_entries`, computes it in row blocks and keeps
only entries above ``min_value``, as strictly increasing flat keys
``i * U + j`` with their values, so memory stays proportional to the
stored result rather than ``U^2``.  :meth:`TrustDeriver.derive` runs it
over every active row, :meth:`TrustDeriver.derive_sharded` once per
shard, and :meth:`TrustDeriver.derive_region` over the changed rows; the
region's changed columns come as one column block per ``block_size``
chunk of the other rows they can move in (the active rows with affinity
in a category whose expertise moved), kept as a stored mask and values
(:class:`repro.matrix.pair.PairRegion`), never as keys.

Every block product goes through :func:`_block_product`, a non-BLAS einsum
whose reduction order per output element is the fixed category sweep
``c = 0..C-1`` regardless of the operand shapes.  BLAS gemm does not give
that guarantee -- it dispatches different micro-kernels (and different
accumulation orders) by shape, so a 2-row or 7-column slice of the product
can differ in the last ulp from the same entries of the full product.
The fixed-order kernel is what lets :meth:`TrustDeriver.derive_region`
recompute an arbitrary subset of rows/columns **bitwise identical** to the
full :meth:`TrustDeriver.derive` -- the contract the incremental
:class:`repro.engine.Engine` is built on.  With the small category counts
of this problem (C ~ 12) the einsum is also at least as fast as gemm.
"""

# repro: hot-path

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError
from repro.common.validation import require_non_negative, require_positive
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.matrix.pair import PairRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.layout import ShardLayout
    from repro.shard.matrix import ShardedPairMatrix
    from repro.shard.store import ShardStore

__all__ = ["TrustDeriver", "derive_trust"]


def _block_product(weights: FloatArray, e_transposed: FloatArray) -> FloatArray:
    """``weights @ e_transposed`` with a shape-independent reduction order.

    The non-optimised einsum path accumulates every output element over
    ``c = 0..C-1`` in sequence, so any row/column subset of the product is
    bitwise equal to the same entries of the full product (see the module
    notes); keep :func:`repro.perf.reference.reference_derive_trust` on the
    identical expression.
    """
    return np.einsum("mc,cn->mn", weights, e_transposed, optimize=False)


@dataclass(frozen=True)
class TrustDeriver:
    """Configured derivation of ``T-hat`` from ``A`` and ``E``.

    Parameters
    ----------
    min_value:
        Entries with derived trust less than or equal to this threshold are
        not stored.  The default ``0.0`` stores every strictly-positive
        degree of trust, matching the paper's reading that a zero degree
        means "no category overlap", i.e. no derived connection.
    include_self:
        Whether to store the diagonal ``T-hat_ii``.  The paper's web of
        trust has no self-edges; the default drops them.
    block_size:
        Number of truster rows processed per dense block.
    """

    min_value: float = 0.0
    include_self: bool = False
    block_size: int = 512

    def __post_init__(self) -> None:
        require_non_negative("min_value", self.min_value)
        require_positive("block_size", self.block_size)

    def derive(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
    ) -> UserPairMatrix:
        """Compute ``T-hat`` for every user pair (eq. 5).

        Both matrices must share identical user and category axes.
        """
        _require_aligned(affiliation, expertise)
        users = affiliation.users
        with obs.span(
            "derive.trust",
            users=len(users),
            categories=len(affiliation.categories),
            block_size=self.block_size,
        ):
            a_values, row_sums, e_transposed = _operands(affiliation, expertise)
            active_rows = np.nonzero(row_sums > 0.0)[0]
            keys, vals = self._row_entries(
                a_values, row_sums, e_transposed, active_rows, self.block_size
            )
            obs.add("derive.blocks", -(-active_rows.size // self.block_size))
            obs.add("derive.entries_stored", int(keys.size))
            return UserPairMatrix.from_flat_sorted(users, keys, vals)

    def derive_sharded(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
        *,
        layout: "ShardLayout | None" = None,
        num_shards: int = 4,
        store: "ShardStore | None" = None,
        spill_bytes: int | None = None,
    ) -> "ShardedPairMatrix":
        """Compute ``T-hat`` one row-block shard at a time (eq. 5).

        The streaming counterpart of :meth:`derive`: the row-range kernel
        runs once per shard and each finished shard is handed whole to the
        :class:`repro.shard.ShardedPairMatrix` (which spills it to its
        store once over budget), so peak memory is one shard's entries
        plus one dense block -- never the whole matrix.  Dense blocks do
        not cross shard boundaries, so every stored entry goes through
        the same fixed-reduction-order :func:`_block_product` as the
        in-memory path and the result is **bitwise identical** to
        :meth:`derive` on the same inputs.
        """
        from repro.shard.layout import ShardLayout
        from repro.shard.matrix import ShardedPairMatrix

        _require_aligned(affiliation, expertise)
        users = affiliation.users
        n = len(users)
        layout = layout or ShardLayout.even(n, num_shards)
        result = ShardedPairMatrix(
            users, layout, store=store, spill_bytes=spill_bytes
        )
        block_size = self.block_size
        if spill_bytes is not None:
            # the spill budget bounds the dense scratch too: one block of
            # b rows costs b * n float64s, and block boundaries cannot
            # change stored values (the per-element reduction order of
            # _block_product is shape-independent)
            block_size = max(1, min(block_size, int(spill_bytes) // (8 * max(1, n))))
        with obs.span(
            "derive.trust.sharded",
            users=n,
            categories=len(affiliation.categories),
            shards=layout.num_shards,
            block_size=block_size,
        ):
            a_values, row_sums, e_transposed = _operands(affiliation, expertise)
            active_rows = np.nonzero(row_sums > 0.0)[0]

            stored = 0
            blocks = 0
            for shard, lo, hi in layout:
                shard_rows = active_rows[
                    np.searchsorted(active_rows, lo) : np.searchsorted(active_rows, hi)
                ]
                keys, vals = self._row_entries(
                    a_values, row_sums, e_transposed, shard_rows, block_size
                )
                blocks += -(-shard_rows.size // block_size)
                stored += int(keys.size)
                result.set_shard_entries(shard, keys, vals)
                # drop this frame's references, so a spilled shard leaves
                # the heap before the next shard is built
                del keys, vals
            obs.add("derive.blocks", blocks)
            obs.add("derive.entries_stored", stored)
            return result

    def derive_region(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
        *,
        rows: IntArray,
        cols: IntArray,
        categories: IntArray,
    ) -> PairRegion:
        """Recompute ``T-hat`` where it can have moved since a base derive.

        ``rows`` are source positions whose affinity row changed, ``cols``
        target positions whose expertise row changed, and ``categories``
        the category positions of every expertise value that changed.
        Eq. 5 reads exactly ``A[i, :]`` and ``E[j, :]``, so an entry outside
        ``rows`` and ``cols`` cannot have moved.  Nor can one in ``cols``
        whose row ``i`` has ``A[i, c] = 0`` for every changed category
        ``c``: its weights there are ``+0.0``, so those terms of
        :func:`_block_product`'s fixed-order sum add ``+0.0`` before and
        after, and the entry keeps its bits.  The region is therefore
        ``(rows x all) | (block_rows x cols)``, where ``block_rows`` are the
        active rows outside ``rows`` with affinity in one of
        ``categories``.  Every stored entry of it is **bitwise identical**
        to what a full :meth:`derive` of the same inputs stores -- both run
        the fixed-reduction-order :func:`_block_product` per element --
        which is what lets :class:`repro.engine.Engine` patch its cached
        matrix instead of rebuilding it.

        The result is a :class:`repro.matrix.pair.PairRegion` in the form
        the blocks produce it: the changed rows' full-width entries from
        :meth:`_row_entries`, and the column block over ``block_rows``,
        kept as its stored mask and its stored values in row-major order.
        That block is computed one ``block_size`` chunk at a time, so no
        dense ``block_rows x cols`` block is held whole, and no key of it
        is built or sorted here.  The ``derive.region.block_rows`` counter
        records how many rows it covers.
        """
        _require_aligned(affiliation, expertise)
        users = affiliation.users
        n = len(users)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        cols = np.unique(np.asarray(cols, dtype=np.int64))
        categories = np.unique(np.asarray(categories, dtype=np.int64))
        for name, positions, bound in (
            ("rows", rows, n),
            ("cols", cols, n),
            ("categories", categories, len(affiliation.categories)),
        ):
            if positions.size and (positions[0] < 0 or positions[-1] >= bound):
                raise ValidationError(
                    f"{name} positions must lie in [0, {bound}); got "
                    f"[{positions[0]}, {positions[-1]}]"
                )
        with obs.span("derive.region", users=n, rows=rows.size, cols=cols.size):
            a_values, row_sums, e_transposed = _operands(affiliation, expertise)
            active = row_sums > 0.0

            # changed source rows, full width (inactive rows store nothing
            # in a full derive either)
            source_rows = rows[active[rows]]
            row_keys, row_vals = self._row_entries(
                a_values, row_sums, e_transposed, source_rows, self.block_size
            )
            # changed target columns, on the active rows not covered above
            # that have affinity in a changed category
            if cols.size and categories.size:
                reached = active & (a_values[:, categories] > 0.0).any(axis=1)
                reached[rows] = False
                block_rows = np.flatnonzero(reached)
            else:
                block_rows = np.empty(0, dtype=np.int64)
            obs.add("derive.region.block_rows", int(block_rows.size))
            mask = np.empty((block_rows.size, cols.size), dtype=bool)
            col_block = cols
            if cols.size == 1 and n >= 2:
                # a one-column product dispatches a different numpy inner
                # loop than a multi-column one; compute a second column and
                # drop it
                col_block = np.asarray([cols[0], (cols[0] + 1) % n], dtype=np.int64)
            e_cols = np.ascontiguousarray(e_transposed[:, col_block])
            val_parts = [np.empty(0, dtype=np.float64)]
            for start in range(0, block_rows.size, self.block_size):
                chunk_rows = block_rows[start : start + self.block_size]
                weights = a_values[chunk_rows, :] / row_sums[chunk_rows, None]
                block = _block_product(weights, e_cols)[:, : cols.size]
                stored = mask[start : start + chunk_rows.size]
                np.greater(block, self.min_value, out=stored)
                if not self.include_self:
                    # the diagonal cells: changed columns that are chunk rows
                    _, own_rows, own_cols = np.intersect1d(
                        chunk_rows, cols, assume_unique=True, return_indices=True
                    )
                    stored[own_rows, own_cols] = False
                # row-major, as the mask reads; compress is several times
                # faster than boolean indexing on a scattered mask
                val_parts.append(np.compress(stored.ravel(), block.ravel()))
            region = PairRegion(
                users,
                rows,
                cols,
                row_keys,
                row_vals,
                block_rows,
                mask,
                np.concatenate(val_parts),
            )
            obs.add("derive.entries_stored", region.num_entries())
            return region

    def _row_entries(
        self,
        a_values: FloatArray,
        row_sums: FloatArray,
        e_transposed: FloatArray,
        rows: IntArray,
        block_size: int,
    ) -> tuple[IntArray, FloatArray]:
        """Eq. 5 on the full width of ``rows``, one dense block at a time.

        ``rows`` are sorted, unique, active (positive affinity sum) source
        positions; each block of at most ``block_size`` of them goes
        through :func:`_block_product`.  Returns the stored entries as
        strictly increasing flat keys ``i * U + j`` and their values.
        """
        n = e_transposed.shape[1]
        key_parts: list[IntArray] = [np.empty(0, dtype=np.int64)]
        val_parts: list[FloatArray] = [np.empty(0, dtype=np.float64)]
        for start in range(0, rows.size, block_size):
            block_rows = rows[start : start + block_size]
            weights = a_values[block_rows, :] / row_sums[block_rows, None]
            block = _block_product(weights, e_transposed)  # block x U
            mask = block > self.min_value
            if not self.include_self:
                mask[np.arange(block_rows.size), block_rows] = False
            # flat positions are row-major, so keys come out strictly
            # increasing; the flat forms are several times faster than a
            # 2-D np.nonzero and boolean indexing on a scattered mask
            local, cols = np.divmod(np.flatnonzero(mask), n)
            key_parts.append(block_rows[local] * n + cols)
            val_parts.append(np.compress(mask.ravel(), block.ravel()))
            # free this block's scratch before the next block (or the
            # concatenation below) allocates its own
            del block, mask, local, cols
        return np.concatenate(key_parts), np.concatenate(val_parts)


def derive_trust(
    affiliation: UserCategoryMatrix,
    expertise: UserCategoryMatrix,
    *,
    min_value: float = 0.0,
    include_self: bool = False,
) -> UserPairMatrix:
    """Functional shorthand for :meth:`TrustDeriver.derive`."""
    deriver = TrustDeriver(min_value=min_value, include_self=include_self)
    return deriver.derive(affiliation, expertise)


def _operands(
    affiliation: UserCategoryMatrix, expertise: UserCategoryMatrix
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """``A``, its row sums, and ``E`` transposed to a contiguous C x U array."""
    a_values = affiliation.values_view()
    return a_values, a_values.sum(axis=1), expertise.values_view().T.copy()


def _require_aligned(affiliation: UserCategoryMatrix, expertise: UserCategoryMatrix) -> None:
    if affiliation.users != expertise.users:
        raise ValidationError("affiliation and expertise must share the same user axis")
    if affiliation.categories != expertise.categories:
        raise ValidationError("affiliation and expertise must share the same category axis")
