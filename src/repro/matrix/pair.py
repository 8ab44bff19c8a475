"""Sparse user-by-user matrices (``T-hat``, ``B``, ``R``, ``T``).

This module is the repo's sparse kernel layer: every hot path (trust
derivation, reputation assembly, propagation) reads and writes user-pair
state through the bulk APIs here, so the per-entry Python overhead of the
original dict-of-dicts implementation stays off the critical path.
"""

# repro: hot-path

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray, concat_ranges
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

__all__ = ["UserPairMatrix", "RegionPatch", "patch_entries"]


class RegionPatch(NamedTuple):
    """The entries :func:`patch_entries` assembled."""

    keys: IntArray
    vals: FloatArray
    #: base entries outside the region, carried over unchanged
    kept: int
    #: the support held: ``keys`` is the base key array itself
    values_only: bool


def patch_entries(
    keys: IntArray,
    vals: FloatArray,
    region_keys: IntArray,
    region_vals: FloatArray,
    *,
    rows: IntArray,
    cols: IntArray,
    n_old: int,
    n: int,
    columns: IntArray | None = None,
) -> RegionPatch:
    """Merge a recomputed region's entries over consolidated base entries.

    ``keys`` / ``vals`` are sorted, unique flat keys on an ``n_old``-user
    axis and their values; ``columns``, when given, holds each key's column
    (``keys % n_old``), e.g. a cached CSR's ``indices``.  The region holds
    every stored entry of ``(rows x all) | (all x cols)`` on the ``n``-user
    axis (``n >= n_old``, append-only growth), as sorted unique keys.

    The base keys inside the region are found from their columns plus one
    binary search per changed row.  When they equal the region's keys --
    the support held, which proves every region key lies in the region --
    the result shares ``keys`` and copies ``vals`` with the region's values
    scattered in at those positions (``values_only``).  Otherwise (a
    support change or a grown axis) the base entries outside the region
    and the region's entries merge in one masked scatter; a region key
    outside the region raises :class:`ValidationError` there, because it
    would collide with a kept key.
    """
    keys = np.asarray(keys)
    col_changed = np.zeros(n, dtype=bool)
    col_changed[cols] = True
    if cols.size:
        inside = col_changed.take(columns if columns is not None else keys % n_old)
    else:
        inside = np.zeros(keys.shape[0], dtype=bool)
    old_rows = rows[rows < n_old]
    starts = keys.searchsorted(old_rows * n_old)
    ends = keys.searchsorted((old_rows + 1) * n_old)
    inside[concat_ranges(starts, ends - starts)] = True
    positions = np.flatnonzero(inside)
    if (
        n == n_old
        and positions.size == region_keys.size
        and np.array_equal(keys[positions], region_keys)
    ):
        new_vals = np.array(vals, dtype=np.float64)
        new_vals[positions] = region_vals
        return RegionPatch(keys, new_vals, keys.shape[0] - positions.size, True)

    row_changed = np.zeros(n, dtype=bool)
    row_changed[rows] = True
    region_rows, region_cols = np.divmod(region_keys, n)
    if not bool(np.all(row_changed[region_rows] | col_changed[region_cols])):
        raise ValidationError("region entries must lie in the changed rows or columns")
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


def _read_only_csr(
    data: FloatArray, indices: IntArray, indptr: IntArray, n: int
) -> sparse.csr_matrix:
    """A canonical ``n x n`` CSR over the given arrays, all made read-only."""
    from scipy import sparse  # here, so a program that builds no CSR never loads scipy

    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.setflags(write=False)
    return matrix


class UserPairMatrix:
    """A sparse ``U x U`` matrix of user-pair values with named axes.

    Storage is array-backed: the consolidated state is a pair of parallel
    arrays -- row-major-sorted flat keys ``i * U + j`` and their values --
    plus an ordered list of *pending* write blocks.  Bulk writes
    (:meth:`set_block`, :meth:`from_arrays`) append whole numpy blocks in
    O(1) Python calls; point writes buffer into the same pending queue.
    Reads consolidate lazily: pending blocks are merged with a single
    vectorised sort/dedup pass that keeps the **last** write per key,
    preserving overwrite semantics at O(nnz log nnz) numpy cost instead of
    O(nnz) interpreted dict operations.

    An explicitly stored zero is allowed (meaning "pair observed, value
    zero"), which matters when distinguishing *observed non-trust* from
    *unobserved*; :meth:`support` and friends treat stored entries as
    present regardless of value.

    Point reads (:meth:`get`, :meth:`contains`) binary-search the sorted
    consolidated keys in O(log nnz).  No per-key index is kept, so a read
    right after a write pays no O(nnz) rebuild and a write leaves no index
    behind to free.

    A :class:`scipy.sparse.csr_matrix` view of the consolidated state is
    cached (:meth:`csr`) and invalidated by any write, so repeated sparse
    consumers (propagation, metrics) pay the conversion once.
    """

    def __init__(self, users: LabelIndex | Iterable[str]) -> None:
        self.users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        self._n = len(self.users)
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.float64)
        # pending writes, in order: blocks of (keys, values) arrays plus a
        # cheap tuple buffer for point writes (flushed into a block whenever
        # ordering against a bulk write must be preserved)
        self._pending_blocks: list[tuple[IntArray, FloatArray]] = []
        self._pending_points: list[tuple[int, float]] = []
        # pending additive writes onto keys absent from the consolidated
        # arrays; invariant: non-empty only while the set-write queue above
        # is empty (set-writes flush it, accumulate drains the queue first),
        # so consolidation can merge it as plain base-zero sums
        self._pending_accum: dict[int, float] = {}
        self._csr: sparse.csr_matrix | None = None

    # ------------------------------------------------------------------ writes

    def set(self, source_id: str, target_id: str, value: float) -> None:
        """Store ``value`` for the (source, target) pair."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"pair value must be a number, got {value!r}")
        if not np.isfinite(value):
            raise ValidationError(f"pair value must be finite, got {value!r}")
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        self._flush_accum()
        self._pending_points.append((i * self._n + j, float(value)))
        self._invalidate()

    def set_block(
        self,
        rows: IntArray | Iterable[int],
        cols: IntArray | Iterable[int],
        values: FloatArray | Iterable[float] | float,
    ) -> None:
        """Bulk-store ``values`` at integer positions ``(rows, cols)``.

        ``rows`` and ``cols`` are axis positions (see
        :meth:`LabelIndex.positions` for label conversion); a scalar
        ``values`` broadcasts across all pairs.  Later writes win over
        earlier ones, exactly like repeated :meth:`set` calls.
        """
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
        else:
            values = values.copy()
        if values.size and not np.isfinite(values).all():
            raise ValidationError("pair values must be finite")
        n = self._n
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValidationError(
                    f"positions must lie in [0, {n}); got rows in "
                    f"[{rows.min()}, {rows.max()}], cols in [{cols.min()}, {cols.max()}]"
                )
        self._flush_accum()
        self._flush_points()
        self._pending_blocks.append((rows * n + cols, values))
        self._invalidate()

    def accumulate(self, source_id: str, target_id: str, value: float) -> None:
        """Add ``value`` onto the stored value (treating absent as 0).

        Amortised O(1): existing entries are updated in place (binary
        search on the sorted keys), new pairs buffer into a pending sum
        that the next consolidation folds in.
        """
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        key = i * self._n + j
        if self._pending_blocks or self._pending_points:
            self._consolidate()
        if key in self._pending_accum:
            self._pending_accum[key] += float(value)
            return
        pos = self._find(key)
        if pos is None:
            self._pending_accum[key] = float(value)
        else:
            self._vals[pos] += float(value)
        self._invalidate()

    def discard(self, source_id: str, target_id: str) -> None:
        """Remove a stored pair (no-op when absent)."""
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        key = i * self._n + j
        self._consolidate()
        pos = self._find(key)
        if pos is not None:
            self._keys = np.delete(self._keys, pos)
            self._vals = np.delete(self._vals, pos)
            self._invalidate()

    # ------------------------------------------------------------------ reads

    def get(self, source_id: str, target_id: str, default: float = 0.0) -> float:
        """Stored value for the pair, or ``default`` when absent."""
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        self._consolidate()
        pos = self._find(i * self._n + j)
        return default if pos is None else float(self._vals[pos])

    def contains(self, source_id: str, target_id: str) -> bool:
        """Whether the pair is explicitly stored (even with value 0)."""
        i = self.users.position(source_id)
        j = self.users.position(target_id)
        self._consolidate()
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
        self._consolidate()
        if not self._keys.size:
            return []
        labels = self.users.labels
        return [labels[i] for i in np.unique(self._keys // self._n).tolist()]

    def entries(self) -> Iterator[tuple[str, str, float]]:
        """Iterate over ``(source_id, target_id, value)`` triples (row-major)."""
        self._consolidate()
        labels = self.users.labels
        n = self._n
        for key, value in zip(self._keys.tolist(), self._vals.tolist()):
            yield labels[key // n], labels[key % n], value

    def entries_arrays(self) -> tuple[IntArray, IntArray, FloatArray]:
        """All stored entries as ``(rows, cols, values)`` position arrays.

        Row-major sorted; this is the zero-interpretation bulk counterpart
        of :meth:`entries` and the preferred way to feed downstream numpy
        kernels.
        """
        self._consolidate()
        return self._keys // self._n, self._keys % self._n, self._vals.copy()

    def num_entries(self) -> int:
        """Number of stored pairs (including explicit zeros)."""
        self._consolidate()
        return int(self._keys.size)

    def support(self) -> set[tuple[str, str]]:
        """The set of stored ``(source, target)`` pairs as labels."""
        self._consolidate()
        return self._keys_to_pairs(self._keys)

    def support_keys(self) -> IntArray:
        """Stored pairs as sorted flat integer keys ``i * U + j`` (copy).

        The integer form is what the set operations below use internally;
        it joins against another matrix's keys with ``np.intersect1d`` /
        ``np.setdiff1d`` instead of allocating label-tuple sets.
        """
        self._consolidate()
        return self._keys.copy()

    def density(self) -> float:
        """Stored pairs divided by the ``U * (U - 1)`` possible ordered pairs."""
        possible = self._n * (self._n - 1)
        if possible == 0:
            return 0.0
        return self.num_entries() / possible

    def values(self) -> FloatArray:
        """All stored values as a flat array (row-major order)."""
        self._consolidate()
        return self._vals.copy()

    # ------------------------------------------------------------------ algebra

    def csr(self) -> sparse.csr_matrix:
        """Cached :class:`scipy.sparse.csr_matrix` view (explicit zeros kept).

        The returned matrix is shared: its ``data``, ``indices`` and
        ``indptr`` arrays are read-only, and a :meth:`patched` version that
        kept this matrix's support shares the ``indices`` and ``indptr``
        arrays with it.  It is rebuilt only after a write.  Use
        :meth:`to_csr` for a private mutable copy.
        """
        self._consolidate()
        if self._csr is None:
            n = self._n
            if self._keys.size:
                rows = self._keys // n
                indices = self._keys % n
                indptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
                data = self._vals.copy()
            else:
                indices = np.empty(0, dtype=np.int64)
                indptr = np.zeros(n + 1, dtype=np.int64)
                data = np.empty(0, dtype=np.float64)
            self._csr = _read_only_csr(data, indices, indptr, n)
        return self._csr

    def to_csr(self) -> sparse.csr_matrix:
        """A fresh mutable ``csr_matrix`` copy (explicit zeros kept)."""
        return self.csr().copy()

    @classmethod
    def from_arrays(
        cls,
        users: LabelIndex | Iterable[str],
        rows: IntArray | Iterable[int],
        cols: IntArray | Iterable[int],
        values: FloatArray | Iterable[float] | float,
    ) -> "UserPairMatrix":
        """Build from position arrays in one bulk write."""
        out = cls(users)
        out.set_block(rows, cols, values)
        return out

    @classmethod
    def from_flat_sorted(
        cls,
        users: LabelIndex | Iterable[str],
        keys: IntArray,
        values: FloatArray | Iterable[float],
    ) -> "UserPairMatrix":
        """Build from already-consolidated flat keys ``i * U + j`` in O(nnz).

        The fast-path constructor for callers that hold a row-major-sorted,
        duplicate-free entry list -- e.g. the concatenated shards of a
        sharded matrix.  It skips the O(nnz log nnz) sort/dedup
        pass of :meth:`set_block`; ``keys`` must be strictly increasing and
        lie in ``[0, U*U)``.
        """
        out = cls(users)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if keys.ndim != 1 or vals.ndim != 1 or keys.shape != vals.shape:
            raise ValidationError(
                f"keys and values must be equal-length 1-D arrays, got shapes "
                f"{keys.shape} and {vals.shape}"
            )
        if keys.size:
            if keys[0] < 0 or keys[-1] >= out._n * out._n:
                raise ValidationError(
                    f"keys must lie in [0, {out._n * out._n}); got "
                    f"[{keys[0]}, {keys[-1]}]"
                )
            if keys.size > 1 and not bool(np.all(keys[1:] > keys[:-1])):
                raise ValidationError("keys must be strictly increasing (sorted, unique)")
            if not np.isfinite(vals).all():
                raise ValidationError("pair values must be finite")
        out._keys = keys.copy()
        out._vals = vals.copy()
        return out

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
        """Build from a mapping ``{(source, target): value}`` or triples."""
        out = cls(users)
        if isinstance(pairs, Mapping):
            items: Iterable[tuple[str, str, float]] = (
                (s, t, v) for (s, t), v in pairs.items()
            )
        else:
            items = pairs
        for source, target, value in items:
            out.set(source, target, value)
        return out

    # ------------------------------------------------------------------ patching

    def patched(
        self,
        users: LabelIndex,
        region: "UserPairMatrix",
        *,
        rows: IntArray,
        cols: IntArray,
    ) -> tuple["UserPairMatrix", int]:
        """A new version of this matrix with a recomputed ``region`` merged in.

        ``region`` holds every stored entry of ``(rows x all) | (all x
        cols)`` on the (possibly grown) ``users`` axis; this matrix's
        entries outside that region are carried over unchanged, and this
        matrix itself is left as it is.  Returns ``(patched,
        kept_entries)``.

        When the region's keys are exactly this matrix's keys inside the
        region -- the support held, as it does for almost every arriving
        rating -- only values change: the new version shares this
        matrix's (read-only) key array, copies its values with the
        region's scattered in, and gets a CSR that shares :meth:`csr`'s
        ``indices`` / ``indptr`` with the new data, so propagation does not
        rebuild it.  A support change or a grown axis takes one O(nnz)
        masked merge instead (see :func:`patch_entries`); a region entry
        outside the region raises :class:`ValidationError` there.

        This axis must be a prefix of ``users`` (append-only growth keeps
        flat keys in row-major order: ``j < n_old <= n``).
        """
        if region.users != users:
            raise ValidationError("region must be indexed by the patched user axis")
        n = len(users)
        n_old = self._n
        if n_old > n or self.users.labels != users.labels[:n_old]:
            raise ValidationError("patched axis must extend this matrix's user axis")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        for name, positions in (("rows", rows), ("cols", cols)):
            if positions.size and (positions.min() < 0 or positions.max() >= n):
                raise ValidationError(f"{name} positions must lie in [0, {n})")
        base = self.csr()  # consolidates; the engine's EigenTrust cached it
        region._consolidate()
        self._keys.setflags(write=False)
        patch = patch_entries(
            self._keys,
            self._vals,
            region._keys,
            region._vals,
            rows=rows,
            cols=cols,
            n_old=n_old,
            n=n,
            columns=base.indices,
        )
        out = UserPairMatrix(users)
        out._keys = patch.keys
        out._vals = patch.vals
        if patch.values_only:
            obs.add("matrix.patch.values_only")
            out._csr = _read_only_csr(patch.vals.copy(), base.indices, base.indptr, n)
        else:
            obs.add("matrix.patch.merged")
        return out, patch.kept

    # ------------------------------------------------------------------ set ops

    def intersect_support(self, other: "UserPairMatrix") -> set[tuple[str, str]]:
        """Pairs stored in both matrices (paper's ``R ∩ T`` etc.)."""
        self._require_same_axis(other)
        self._consolidate()
        other._consolidate()
        shared = np.intersect1d(self._keys, other._keys, assume_unique=True)
        return self._keys_to_pairs(shared)

    def subtract_support(self, other: "UserPairMatrix") -> set[tuple[str, str]]:
        """Pairs stored here but not in ``other`` (paper's ``T − R`` etc.)."""
        self._require_same_axis(other)
        self._consolidate()
        other._consolidate()
        only = np.setdiff1d(self._keys, other._keys, assume_unique=True)
        return self._keys_to_pairs(only)

    def restrict_to(self, pairs: set[tuple[str, str]]) -> "UserPairMatrix":
        """A new matrix keeping only the given pairs (values preserved)."""
        self._consolidate()
        out = UserPairMatrix(self.users)
        if pairs and self._keys.size:
            position = self.users.position
            users = self.users
            n = self._n
            # pairs naming users off this axis cannot be stored here; skip
            # them rather than failing the whole restriction
            wanted = np.fromiter(
                (
                    position(s) * n + position(t)
                    for s, t in pairs
                    if s in users and t in users
                ),
                dtype=np.int64,
            )
            mask = np.isin(self._keys, wanted, assume_unique=False)
            out._keys = self._keys[mask].copy()
            out._vals = self._vals[mask].copy()
        return out

    def _require_same_axis(self, other: "UserPairMatrix") -> None:
        if self.users != other.users:
            raise ValidationError("user axes differ; align matrices before set operations")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserPairMatrix):
            return NotImplemented
        if self.users != other.users:
            return False
        self._consolidate()
        other._consolidate()
        return np.array_equal(self._keys, other._keys) and np.array_equal(
            self._vals, other._vals
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UserPairMatrix(users={len(self.users)}, entries={self.num_entries()})"

    # ------------------------------------------------------------------ internals

    def _invalidate(self) -> None:
        self._csr = None

    def _find(self, key: int) -> int | None:
        """Position of ``key`` in the consolidated arrays (binary search)."""
        # the method form skips np.searchsorted's dispatch layer, which
        # costs as much as the search itself on a point read
        pos = int(self._keys.searchsorted(key))
        if pos < self._keys.size and self._keys[pos] == key:
            return pos
        return None

    def _flush_accum(self) -> None:
        if self._pending_accum:
            # pending-accum keys are absent from the consolidated arrays and
            # (by invariant) from the set-write queue, so their sums merge
            # as ordinary base-zero writes
            keys = np.fromiter(
                self._pending_accum.keys(), dtype=np.int64, count=len(self._pending_accum)
            )
            vals = np.fromiter(
                self._pending_accum.values(),
                dtype=np.float64,
                count=len(self._pending_accum),
            )
            self._pending_blocks.append((keys, vals))
            self._pending_accum = {}

    def _flush_points(self) -> None:
        if self._pending_points:
            keys = np.fromiter(
                (k for k, _ in self._pending_points),
                dtype=np.int64,
                count=len(self._pending_points),
            )
            vals = np.fromiter(
                (v for _, v in self._pending_points),
                dtype=np.float64,
                count=len(self._pending_points),
            )
            self._pending_blocks.append((keys, vals))
            self._pending_points = []

    def _consolidate(self) -> None:
        """Merge pending writes into the sorted, deduplicated arrays."""
        if not (self._pending_blocks or self._pending_points or self._pending_accum):
            return
        self._flush_accum()
        self._flush_points()
        keys = np.concatenate([self._keys] + [k for k, _ in self._pending_blocks])
        vals = np.concatenate([self._vals] + [v for _, v in self._pending_blocks])
        self._pending_blocks = []
        # keep the LAST write per key: unique over the reversed array picks
        # the first occurrence there, i.e. the most recent write
        uniq, idx = np.unique(keys[::-1], return_index=True)
        self._keys = uniq
        self._vals = vals[::-1][idx]

    def _row_bounds(self, i: int) -> tuple[int, int]:
        self._consolidate()
        n = self._n
        lo = int(np.searchsorted(self._keys, i * n, side="left"))
        hi = int(np.searchsorted(self._keys, (i + 1) * n, side="left"))
        return lo, hi

    def _keys_to_pairs(self, keys: IntArray) -> set[tuple[str, str]]:
        labels = self.users.labels
        n = self._n
        return {(labels[k // n], labels[k % n]) for k in keys.tolist()}
