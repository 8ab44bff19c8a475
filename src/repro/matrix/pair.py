"""Sparse user-by-user matrices (``T-hat``, ``B``, ``R``, ``T``).

This module is the repo's sparse kernel layer: every hot path (trust
derivation, reputation assembly, propagation) reads user-pair state
through the bulk APIs here, so the per-entry Python overhead of the
original dict-of-dicts implementation stays off the critical path.  A
matrix is built whole, in one call, and never written afterwards: a new
version of it (:meth:`UserPairMatrix.patched`) is a new matrix.
"""

# repro: hot-path

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from repro import obs
from repro.common.arrays import AnyArray, BoolArray, FloatArray, IntArray, concat_ranges
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

__all__ = [
    "UserPairMatrix",
    "PairRegion",
    "RegionPatch",
    "patch_entries",
    "read_only_csr",
    "row_block_csr",
]


def _frozen(array: AnyArray) -> AnyArray:
    """``array`` itself, made read-only."""
    array.setflags(write=False)
    return array


_EMPTY_KEYS: IntArray = _frozen(np.empty(0, dtype=np.int64))
_EMPTY_VALS: FloatArray = _frozen(np.empty(0, dtype=np.float64))


class RegionPatch(NamedTuple):
    """The entries :func:`patch_entries` assembled."""

    keys: IntArray
    vals: FloatArray
    #: base entries outside the region, carried over unchanged
    kept: int
    #: the support held: ``keys`` is the base key array itself
    values_only: bool


class PairRegion:
    """The stored entries of a matrix on ``(rows x all) | (block_rows x cols)``.

    The form :meth:`repro.trust.TrustDeriver.derive_region` computes a
    region in, kept as it comes out of the dense blocks:

    - ``rows`` and ``cols``: sorted, unique positions on the ``users`` axis;
    - ``row_keys`` / ``row_vals``: the stored entries of the ``rows``, full
      width, as sorted flat keys ``i * U + j`` and their values;
    - ``block_rows``: sorted rows outside ``rows`` that the column block
      covers.  The region says nothing about a row in neither: a patch
      keeps its base entries, in ``cols`` too;
    - ``mask``: the column block's stored entries, a ``block_rows x cols``
      boolean array, and ``block_vals`` their values in row-major order.

    :meth:`from_entries` is the validating constructor; the plain
    constructor trusts its arrays.
    """

    __slots__ = (
        "users", "rows", "cols", "row_keys", "row_vals", "block_rows", "mask", "block_vals"
    )

    def __init__(
        self,
        users: LabelIndex,
        rows: IntArray,
        cols: IntArray,
        row_keys: IntArray,
        row_vals: FloatArray,
        block_rows: IntArray,
        mask: BoolArray,
        block_vals: FloatArray,
    ) -> None:
        self.users = users
        self.rows, self.cols = rows, cols
        self.row_keys, self.row_vals = row_keys, row_vals
        self.block_rows, self.mask, self.block_vals = block_rows, mask, block_vals

    @classmethod
    def from_entries(
        cls,
        users: LabelIndex,
        *,
        rows: IntArray | Iterable[int],
        cols: IntArray | Iterable[int],
        sources: IntArray | Iterable[int],
        targets: IntArray | Iterable[int],
        values: FloatArray | Iterable[float],
    ) -> "PairRegion":
        """The region holding the entries at positions ``(sources, targets)``.

        Entries are checked as :meth:`UserPairMatrix.from_arrays` checks
        them (a pair given twice keeps its last value), and each must lie
        in ``(rows x all) | (all x cols)``: :class:`ValidationError`
        otherwise.  The column block covers every row outside ``rows``.
        """
        n = len(users)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        cols = np.unique(np.asarray(cols, dtype=np.int64))
        for name, positions in (("rows", rows), ("cols", cols)):
            if positions.size and (positions[0] < 0 or positions[-1] >= n):
                raise ValidationError(f"{name} positions must lie in [0, {n})")
        entries = UserPairMatrix.from_arrays(users, sources, targets, values)
        entry_rows, entry_cols = np.divmod(entries._keys, n)
        row_changed = np.zeros(n, dtype=bool)
        row_changed[rows] = True
        col_changed = np.zeros(n, dtype=bool)
        col_changed[cols] = True
        in_rows = row_changed[entry_rows]
        in_block = ~in_rows
        if not bool(np.all(col_changed[entry_cols[in_block]])):
            raise ValidationError("region entries must lie in the changed rows or columns")
        block_rows = np.flatnonzero(~row_changed) if cols.size else _EMPTY_KEYS
        mask = np.zeros((block_rows.size, cols.size), dtype=bool)
        mask[
            block_rows.searchsorted(entry_rows[in_block]),
            cols.searchsorted(entry_cols[in_block]),
        ] = True
        return cls(
            users,
            rows,
            cols,
            entries._keys[in_rows],
            entries._vals[in_rows],
            block_rows,
            mask,
            entries._vals[in_block],
        )

    def num_entries(self) -> int:
        """Stored entries in the region."""
        return int(self.row_keys.size + self.block_vals.size)

    def row_slice(self, lo: int, hi: int) -> "PairRegion":
        """The part of this region on rows ``[lo, hi)``, e.g. one shard's."""
        n = len(self.users)
        r_lo, r_hi = self.rows.searchsorted([lo, hi])
        k_lo, k_hi = self.row_keys.searchsorted([lo * n, hi * n])
        b_lo, b_hi = self.block_rows.searchsorted([lo, hi])
        v_lo = np.count_nonzero(self.mask[:b_lo])
        v_hi = v_lo + np.count_nonzero(self.mask[b_lo:b_hi])
        return PairRegion(
            self.users,
            self.rows[r_lo:r_hi],
            self.cols,
            self.row_keys[k_lo:k_hi],
            self.row_vals[k_lo:k_hi],
            self.block_rows[b_lo:b_hi],
            self.mask[b_lo:b_hi],
            self.block_vals[v_lo:v_hi],
        )

    def keys_and_values(self) -> tuple[IntArray, FloatArray]:
        """Every stored entry as sorted flat keys and their values (new arrays)."""
        n = len(self.users)
        local, col_idx = np.divmod(np.flatnonzero(self.mask), self.cols.size)
        keys = np.concatenate([self.row_keys, self.block_rows[local] * n + self.cols[col_idx]])
        vals = np.concatenate([self.row_vals, self.block_vals])
        # each part is increasing on rows the other does not hold, so a
        # stable sort merges the two runs
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]


def patch_entries(
    keys: IntArray,
    vals: FloatArray,
    region: PairRegion,
    *,
    n_old: int,
    indices: IntArray,
    indptr: IntArray,
    first_row: int = 0,
) -> RegionPatch:
    """Merge a recomputed region's entries over consolidated base entries.

    ``keys`` / ``vals`` are sorted, unique flat keys on an ``n_old``-user
    axis and their values, the rows ``[first_row, first_row + len(indptr)
    - 1)`` of a matrix whose CSR structure is ``indptr`` / ``indices``
    (a cached :meth:`UserPairMatrix.csr` or shard block).  ``region`` is
    on the ``n``-user axis (``n >= n_old``, append-only growth) and holds
    rows of this block only (:meth:`PairRegion.row_slice`).

    The base positions inside the region are the changed rows' CSR
    segments plus the block rows' entries in changed columns, found in the
    block rows' CSR segments alone; every other base entry is kept, in a
    changed column too.  The support held when the changed rows' keys equal
    the region's, and the block rows hold as many entries in the changed
    columns as the mask stores, each in a stored cell of the mask.  Then
    the result shares ``keys`` and copies ``vals`` with the region's
    values scattered in at those positions (``values_only``).  Otherwise
    (a support change or a grown axis) the region's sorted keys are built
    from its mask, and the base entries outside the region and the
    region's entries merge in one masked scatter.
    """
    keys = np.asarray(keys)
    n = len(region.users)
    rows, cols = region.rows, region.cols
    local_rows = rows[rows < n_old] - first_row
    starts = indptr[local_rows]
    row_positions = concat_ranges(starts, indptr[local_rows + 1] - starts)
    # the block rows' entries in changed columns; a row beyond the old axis
    # has none.  Flags over every entry cost less than gathering the block
    # rows' segments when, as for an arriving rating, they hold a good part
    # of the matrix
    block_local = region.block_rows[: region.block_rows.searchsorted(n_old)] - first_row
    if cols.size and block_local.size:
        col_changed = np.zeros(n, dtype=bool)
        col_changed[cols] = True
        row_in_block = np.zeros(indptr.size - 1, dtype=bool)
        row_in_block[block_local] = True
        inside = col_changed.take(indices)
        inside &= np.repeat(row_in_block, np.diff(indptr))
        block_positions = np.flatnonzero(inside)
    else:
        block_positions = _EMPTY_KEYS
    if n == n_old and np.array_equal(keys[row_positions], region.row_keys):
        # as many as the mask stores, each in a stored cell of the mask
        # (row-major, as the values are); each block row's count lies
        # between its two ``indptr`` bounds
        if block_positions.size == region.block_vals.size:
            counts = np.diff(block_positions.searchsorted(indptr))[block_local]
            col_slot = np.zeros(n, dtype=np.int64)
            col_slot[cols] = np.arange(cols.size)
            cells = np.repeat(np.arange(counts.size) * cols.size, counts)
            cells += col_slot.take(indices.take(block_positions))
            if region.mask.ravel().take(cells).all():
                new_vals = np.array(vals, dtype=np.float64)
                new_vals[row_positions] = region.row_vals
                new_vals[block_positions] = region.block_vals
                kept = keys.shape[0] - row_positions.size - block_positions.size
                return RegionPatch(keys, new_vals, kept, True)

    inside = np.zeros(keys.shape[0], dtype=bool)
    inside[row_positions] = True
    inside[block_positions] = True
    region_keys, region_vals = region.keys_and_values()
    keep = ~inside
    kept_keys = keys[keep]
    if n != n_old:
        kept_rows, kept_cols = np.divmod(kept_keys, n_old)
        kept_keys = kept_rows * n + kept_cols
    kept_vals = np.asarray(vals)[keep]
    slots = np.searchsorted(kept_keys, region_keys) + np.arange(
        region_keys.size, dtype=np.int64
    )
    total = kept_keys.size + region_keys.size
    merged_keys = np.empty(total, dtype=np.int64)
    merged_vals = np.empty(total, dtype=np.float64)
    merged_keys[slots] = region_keys
    merged_vals[slots] = region_vals
    mask = np.ones(total, dtype=bool)
    mask[slots] = False
    merged_keys[mask] = kept_keys
    merged_vals[mask] = kept_vals
    return RegionPatch(merged_keys, merged_vals, int(kept_keys.size), False)


def row_block_csr(
    keys: IntArray, vals: FloatArray, n: int, *, first_row: int = 0, rows: int | None = None
) -> sparse.csr_matrix:
    """Rows ``[first_row, first_row + rows)`` of an ``n``-column matrix as CSR.

    ``keys`` are the block's sorted, unique flat keys ``i * n + j`` and
    ``vals`` their values (``rows`` defaults to ``n``: the whole matrix).
    The result is read-only and shares ``vals``.  Its ``indptr`` and
    ``indices`` are the int32 arrays scipy leaves after narrowing the int64
    ones built here; a holder that keeps them can wrap a later version's
    values over the same keys with :func:`read_only_csr` and skip this
    build, as :meth:`UserPairMatrix.patched` and
    :meth:`repro.shard.ShardedPairMatrix.shard_csr` do.
    """
    rows = n if rows is None else rows
    indptr = np.zeros(rows + 1, dtype=np.int64)
    if keys.size:
        np.cumsum(np.bincount(keys // n - first_row, minlength=rows), out=indptr[1:])
        indices = keys % n
    else:
        indices = _EMPTY_KEYS
    return read_only_csr(vals, indices, indptr, (rows, n))


def read_only_csr(
    data: FloatArray, indices: IntArray, indptr: IntArray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """A canonical CSR of ``shape`` over the given arrays, all made read-only.

    scipy shares ``data`` and int32 ``indices`` / ``indptr``; it copies
    int64 index arrays into int32 ones on every construction.
    """
    from scipy import sparse  # here, so a program that builds no CSR never loads scipy

    matrix = sparse.csr_matrix((data, indices, indptr), shape=shape)
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.setflags(write=False)
    return matrix


class UserPairMatrix:
    """A sparse ``U x U`` matrix of user-pair values with named axes, built whole.

    A matrix is a value.  Its entries are a pair of parallel arrays --
    row-major-sorted, unique flat keys ``i * U + j`` and their values --
    that are read-only from construction.  One call builds them:
    :meth:`from_arrays` (one sort and dedup, the last value per pair wins),
    :meth:`from_pairs` and :meth:`from_csr` through it, or
    :meth:`from_flat_sorted` for entries already sorted.  A new version
    (:meth:`patched`, :meth:`restrict_to`) is a new matrix, so a matrix
    handed out never changes under its holder.  ``UserPairMatrix(users)``
    is the empty matrix.

    An explicitly stored zero is allowed (meaning "pair observed, value
    zero"), which matters when distinguishing *observed non-trust* from
    *unobserved*; :meth:`support` and friends treat stored entries as
    present regardless of value.

    Point reads (:meth:`get`, :meth:`contains`) binary-search the sorted
    keys in O(log nnz); no per-key index is kept.

    A :class:`scipy.sparse.csr_matrix` view (:meth:`csr`) is built on first
    use and cached, sharing the read-only value array, so repeated sparse
    consumers (propagation, metrics) pay the conversion once.
    """

    def __init__(self, users: LabelIndex | Iterable[str]) -> None:
        self.users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        self._n = len(self.users)
        self._keys: IntArray = _EMPTY_KEYS
        self._vals: FloatArray = _EMPTY_VALS
        self._csr: sparse.csr_matrix | None = None

    # ------------------------------------------------------------------ reads

    def get(self, source_id: str, target_id: str, default: float = 0.0) -> float:
        """Stored value for the pair, or ``default`` when absent."""
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        pos = self._find(i * self._n + j)
        return default if pos is None else float(self._vals[pos])

    def contains(self, source_id: str, target_id: str) -> bool:
        """Whether the pair is explicitly stored (even with value 0)."""
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        return self._find(i * self._n + j) is not None

    def row(self, source_id: str) -> dict[str, float]:
        """All stored targets of ``source_id`` as ``{target_id: value}``."""
        lo, hi = self._row_bounds(self.users.position(source_id))
        labels = self.users.labels
        cols = (self._keys[lo:hi] % self._n).tolist()
        return {labels[j]: v for j, v in zip(cols, self._vals[lo:hi].tolist())}

    def row_size(self, source_id: str) -> int:
        """Number of stored entries in the row of ``source_id``."""
        lo, hi = self._row_bounds(self.users.position(source_id))
        return hi - lo

    def source_ids(self) -> list[str]:
        """Users with at least one stored outgoing entry (axis order)."""
        if not self._keys.size:
            return []
        labels = self.users.labels
        return [labels[i] for i in np.unique(self._keys // self._n).tolist()]

    def entries(self) -> Iterator[tuple[str, str, float]]:
        """Iterate over ``(source_id, target_id, value)`` triples (row-major)."""
        labels = self.users.labels
        n = self._n
        for key, value in zip(self._keys.tolist(), self._vals.tolist()):
            yield labels[key // n], labels[key % n], value

    def entries_arrays(self) -> tuple[IntArray, IntArray, FloatArray]:
        """All stored entries as ``(rows, cols, values)`` position arrays.

        Row-major sorted, and fresh arrays the caller may write; this is the
        zero-interpretation bulk counterpart of :meth:`entries` and the
        preferred way to feed downstream numpy kernels.
        """
        return self._keys // self._n, self._keys % self._n, self._vals.copy()

    def num_entries(self) -> int:
        """Number of stored pairs (including explicit zeros)."""
        return int(self._keys.size)

    def support(self) -> set[tuple[str, str]]:
        """The set of stored ``(source, target)`` pairs as labels."""
        return self._keys_to_pairs(self._keys)

    def support_keys(self) -> IntArray:
        """Stored pairs as sorted flat integer keys ``i * U + j`` (copy).

        The integer form is what the set operations below use internally;
        it joins against another matrix's keys with ``np.intersect1d`` /
        ``np.setdiff1d`` instead of allocating label-tuple sets.
        """
        return self._keys.copy()

    def density(self) -> float:
        """Stored pairs divided by the ``U * (U - 1)`` possible ordered pairs."""
        possible = self._n * (self._n - 1)
        if possible == 0:
            return 0.0
        return self.num_entries() / possible

    def values(self) -> FloatArray:
        """All stored values as a flat array (row-major order, copy)."""
        return self._vals.copy()

    # ------------------------------------------------------------------ algebra

    def csr(self) -> sparse.csr_matrix:
        """Cached :class:`scipy.sparse.csr_matrix` view (explicit zeros kept).

        The returned matrix is shared: its ``data``, ``indices`` and
        ``indptr`` arrays are read-only, ``data`` is this matrix's value
        array, and a :meth:`patched` version that kept this matrix's
        support shares the ``indices`` and ``indptr`` arrays with it.  Use
        :meth:`to_csr` for a private mutable copy.
        """
        if self._csr is None:
            self._csr = row_block_csr(self._keys, self._vals, self._n)
        return self._csr

    def to_csr(self) -> sparse.csr_matrix:
        """A fresh mutable ``csr_matrix`` copy (explicit zeros kept)."""
        return self.csr().copy()

    # ------------------------------------------------------------ construction

    @classmethod
    def from_flat_sorted(
        cls,
        users: LabelIndex | Iterable[str],
        keys: IntArray,
        values: FloatArray | Iterable[float],
    ) -> "UserPairMatrix":
        """Build from consolidated flat keys ``i * U + j`` in O(nnz).

        The one validating constructor: ``keys`` must be strictly
        increasing (sorted, unique) and lie in ``[0, U*U)``, and ``values``
        must be finite.  :meth:`from_arrays`, and through it
        :meth:`from_pairs` and :meth:`from_csr`, end here.  Both arrays are
        copied, so the caller keeps no handle on the new matrix's.  Callers
        that already hold a row-major-sorted, duplicate-free entry list --
        the derive kernel, the concatenated shards of a sharded matrix --
        call it directly and skip :meth:`from_arrays`' sort.
        """
        users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        keys = np.asarray(keys, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if keys.ndim != 1 or vals.ndim != 1 or keys.shape != vals.shape:
            raise ValidationError(
                f"keys and values must be equal-length 1-D arrays, got shapes "
                f"{keys.shape} and {vals.shape}"
            )
        if keys.size:
            size = len(users) * len(users)
            if keys[0] < 0 or keys[-1] >= size:
                raise ValidationError(
                    f"keys must lie in [0, {size}); got [{keys[0]}, {keys[-1]}]"
                )
            if keys.size > 1 and not bool(np.all(keys[1:] > keys[:-1])):
                raise ValidationError("keys must be strictly increasing (sorted, unique)")
            if not np.isfinite(vals).all():
                raise ValidationError("pair values must be finite")
        # copied after the checks, so their temporaries are freed first
        return cls._owning(users, keys.copy(), vals.copy())

    @classmethod
    def from_arrays(
        cls,
        users: LabelIndex | Iterable[str],
        rows: IntArray | Iterable[int],
        cols: IntArray | Iterable[int],
        values: FloatArray | Iterable[float] | float,
    ) -> "UserPairMatrix":
        """Build from the pairs at integer positions ``(rows, cols)``.

        ``rows`` and ``cols`` are axis positions (see
        :meth:`LabelIndex.positions` for label conversion); a scalar
        ``values`` broadcasts across all pairs.  One sort and dedup keeps
        the **last** value given for a pair, and an explicit zero is
        stored like any other value.
        """
        users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.ndim != 1 or cols.ndim != 1 or rows.shape != cols.shape:
            raise ValidationError(
                f"rows and cols must be equal-length 1-D arrays, got shapes "
                f"{rows.shape} and {cols.shape}"
            )
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0:
            values = np.full(rows.shape, float(values))
        elif values.shape != rows.shape:
            raise ValidationError(
                f"values shape {values.shape} does not match {rows.size} pairs"
            )
        if values.size and not np.isfinite(values).all():
            raise ValidationError("pair values must be finite")
        n = len(users)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValidationError(
                    f"positions must lie in [0, {n}); got rows in "
                    f"[{rows.min()}, {rows.max()}], cols in [{cols.min()}, {cols.max()}]"
                )
        # keep the LAST value per key: unique over the reversed keys picks
        # the first occurrence there, i.e. the latest one given
        keys, last = np.unique((rows * n + cols)[::-1], return_index=True)
        return cls.from_flat_sorted(users, keys, values[::-1][last])

    @classmethod
    def from_csr(
        cls,
        matrix: sparse.spmatrix,
        users: LabelIndex,
        *,
        keep_zeros: bool = False,
    ) -> "UserPairMatrix":
        """Build from a scipy sparse matrix over the same user axis."""
        if matrix.shape != (len(users), len(users)):
            raise ValidationError(
                f"matrix shape {matrix.shape} does not match axis length {len(users)}"
            )
        coo = matrix.tocoo()
        rows = np.asarray(coo.row, dtype=np.int64)
        cols = np.asarray(coo.col, dtype=np.int64)
        data = np.asarray(coo.data, dtype=np.float64)
        if not keep_zeros:
            nonzero = data != 0.0
            rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]
        return cls.from_arrays(users, rows, cols, data)

    @classmethod
    def from_pairs(
        cls,
        users: LabelIndex | Iterable[str],
        pairs: Mapping[tuple[str, str], float] | Iterable[tuple[str, str, float]],
    ) -> "UserPairMatrix":
        """Build from a mapping ``{(source, target): value}`` or triples.

        Each value must be an ``int`` or ``float`` (not a ``bool``) and
        finite; a pair given twice keeps its last value.
        """
        users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        if isinstance(pairs, Mapping):
            items: Iterable[tuple[str, str, float]] = (
                (s, t, v) for (s, t), v in pairs.items()
            )
        else:
            items = pairs
        sources: list[str] = []
        targets: list[str] = []
        values: list[float] = []
        for source, target, value in items:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"pair value must be a number, got {value!r}")
            sources.append(source)
            targets.append(target)
            values.append(value)
        return cls.from_arrays(
            users, users.positions(sources), users.positions(targets), values
        )

    # ------------------------------------------------------------------ patching

    def patched(self, users: LabelIndex, region: PairRegion) -> tuple["UserPairMatrix", int]:
        """A new version of this matrix with a recomputed ``region`` merged in.

        ``region`` holds every stored entry of ``(region.rows x all) |
        (region.block_rows x region.cols)`` on the (possibly grown)
        ``users`` axis; this matrix's entries outside that region, in
        ``region.cols`` too, are carried over unchanged, and this matrix
        itself is left as it is.  Returns ``(patched, kept_entries)``.

        One :func:`patch_entries` call over this matrix's cached
        :meth:`csr` structure does the work.  When the support held -- as
        it does for almost every arriving rating -- only values change: the
        new version shares this matrix's (read-only) key array, copies its
        values with the region's scattered in, and gets a CSR that shares
        :meth:`csr`'s ``indices`` / ``indptr`` with the new values, so
        propagation does not rebuild it.  A support change or a grown axis
        takes one O(nnz) masked merge instead.

        This axis must be a prefix of ``users`` (append-only growth keeps
        flat keys in row-major order: ``j < n_old <= n``).
        """
        if region.users != users:
            raise ValidationError("region must be indexed by the patched user axis")
        n = len(users)
        n_old = self._n
        if n_old > n or self.users.labels != users.labels[:n_old]:
            raise ValidationError("patched axis must extend this matrix's user axis")
        base = self.csr()  # the engine's EigenTrust cached it
        patch = patch_entries(
            self._keys,
            self._vals,
            region,
            n_old=n_old,
            indices=base.indices,
            indptr=base.indptr,
        )
        out = UserPairMatrix._owning(users, patch.keys, patch.vals)
        if patch.values_only:
            obs.add("matrix.patch.values_only")
            out._csr = read_only_csr(out._vals, base.indices, base.indptr, (n, n))
        else:
            obs.add("matrix.patch.merged")
        return out, patch.kept

    # ------------------------------------------------------------------ set ops

    def intersect_support(self, other: "UserPairMatrix") -> set[tuple[str, str]]:
        """Pairs stored in both matrices (paper's ``R ∩ T`` etc.)."""
        self._require_same_axis(other)
        shared = np.intersect1d(self._keys, other._keys, assume_unique=True)
        return self._keys_to_pairs(shared)

    def subtract_support(self, other: "UserPairMatrix") -> set[tuple[str, str]]:
        """Pairs stored here but not in ``other`` (paper's ``T − R`` etc.)."""
        self._require_same_axis(other)
        only = np.setdiff1d(self._keys, other._keys, assume_unique=True)
        return self._keys_to_pairs(only)

    def restrict_to(self, pairs: set[tuple[str, str]]) -> "UserPairMatrix":
        """A new matrix keeping only the given pairs (values preserved)."""
        if not (pairs and self._keys.size):
            return UserPairMatrix(self.users)
        position = self.users.position
        users = self.users
        n = self._n
        # pairs naming users off this axis cannot be stored here; skip them
        # rather than failing the whole restriction
        wanted = np.fromiter(
            (position(s) * n + position(t) for s, t in pairs if s in users and t in users),
            dtype=np.int64,
        )
        mask = np.isin(self._keys, wanted, assume_unique=False)
        return UserPairMatrix._owning(self.users, self._keys[mask], self._vals[mask])

    def _require_same_axis(self, other: "UserPairMatrix") -> None:
        if self.users != other.users:
            raise ValidationError("user axes differ; align matrices before set operations")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserPairMatrix):
            return NotImplemented
        if self.users != other.users:
            return False
        return np.array_equal(self._keys, other._keys) and np.array_equal(
            self._vals, other._vals
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UserPairMatrix(users={len(self.users)}, entries={self.num_entries()})"

    # ------------------------------------------------------------------ internals

    @classmethod
    def _owning(
        cls, users: LabelIndex, keys: IntArray, vals: FloatArray
    ) -> "UserPairMatrix":
        """A matrix over valid entry arrays that nothing else holds.

        Takes the arrays over without a check or a copy and makes them
        read-only; only the constructors call it.
        """
        out = cls(users)
        out._keys = _frozen(keys)
        out._vals = _frozen(vals)
        return out

    def _find(self, key: int) -> int | None:
        """Position of ``key`` in the sorted keys (binary search)."""
        # the method form skips np.searchsorted's dispatch layer, which
        # costs as much as the search itself on a point read
        pos = int(self._keys.searchsorted(key))
        if pos < self._keys.size and self._keys[pos] == key:
            return pos
        return None

    def _row_bounds(self, i: int) -> tuple[int, int]:
        n = self._n
        lo = int(np.searchsorted(self._keys, i * n, side="left"))
        hi = int(np.searchsorted(self._keys, (i + 1) * n, side="left"))
        return lo, hi

    def _keys_to_pairs(self, keys: IntArray) -> set[tuple[str, str]]:
        labels = self.users.labels
        n = self._n
        return {(labels[k // n], labels[k % n]) for k in keys.tolist()}
