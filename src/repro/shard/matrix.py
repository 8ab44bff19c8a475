"""The row-block--sharded, out-of-core user-pair matrix.

:class:`ShardedPairMatrix` is the storage backend that lifts the
``U x U`` web-of-trust artifact out of memory: the consolidated entry
arrays of :class:`repro.matrix.UserPairMatrix` are split into contiguous
row blocks (:class:`repro.shard.layout.ShardLayout`), each block living
either in memory or as a pair of memory-mapped ``.npy`` files inside a
:class:`repro.shard.store.ShardStore`.  A shard's content is only ever
replaced whole, with consolidated entries: by :meth:`set_shard_entries`
(which :meth:`from_pair_matrix` and the sharded deriver call once per
shard) or by :meth:`patch_with`.  A shard whose entries exceed a
configurable byte budget spills to disk at once, so peak heap usage during
a build is one shard, not the whole matrix.

The read contract mirrors ``UserPairMatrix`` where consumers need it --
:meth:`entries_arrays`, :meth:`support_keys`, :meth:`values`,
:meth:`get`/:meth:`contains`, ``==`` against either matrix type -- plus
the shard-native views the out-of-core kernels consume:
:meth:`shard_entries` (zero-copy, possibly memory-mapped) and
:meth:`shard_csr` (a ``rows_in_shard x U`` CSR block).  Because shards
are row blocks, concatenating the shards in order reproduces the
row-major consolidated arrays exactly, which is what makes the sharded
backend a drop-in, bitwise-identical replacement rather than a fork of
the math.
"""

# repro: hot-path

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex
from repro.matrix.pair import (
    PairRegion,
    UserPairMatrix,
    patch_entries,
    read_only_csr,
    row_block_csr,
)
from repro.shard.layout import ShardLayout
from repro.shard.store import FORMAT, USERS_NAME, ShardStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

__all__ = ["ShardedPairMatrix", "ENTRY_BYTES"]

#: Heap bytes per stored entry: one int64 key plus one float64 value.  A
#: shard's cached CSR structure (see :meth:`ShardedPairMatrix.shard_csr`)
#: adds 4 B per entry and 4 B per row, which the spill budget does not count.
ENTRY_BYTES = 16

_EMPTY_KEYS = np.empty(0, dtype=np.int64)
_EMPTY_VALS = np.empty(0, dtype=np.float64)


def _shard_files(shard: int) -> tuple[str, str]:
    return f"shard_{shard:05d}.keys.npy", f"shard_{shard:05d}.vals.npy"


class ShardedPairMatrix:
    """A sparse ``U x U`` pair matrix stored as row-block shards.

    The spill budget (``spill_bytes``) covers a shard's consolidated
    entries only until the shard has a file in the store: a shard
    rewritten after that, e.g. by a patch, stays on the heap until the next
    :meth:`flush` rewrites its file.

    Each shard keeps its CSR structure -- the int32 ``indptr`` and
    ``indices`` of its first :meth:`shard_csr` -- until its keys change, and
    keeps its keys file's checksum only while that file holds its keys.  A
    patch that keeps a shard's support keeps both, so the next EigenTrust
    call and patch skip the structure build and the next checkpoint writes
    only the values file.  The structure costs 4 B per entry plus 4 B per
    row on the heap, outside the spill budget.

    A shard written to the store (a spill or a :meth:`flush`) stays mapped:
    its heap arrays are replaced by memory maps of the files just written,
    and a keys file left in place keeps the keys array that maps it.  So
    neither a checkpoint nor the reads after it load a payload; only the
    shards of a matrix :meth:`open` returns are loaded, on first read.

    :meth:`patch_with` returns a new version instead of rewriting this
    one.  The versions share the store, the untouched shards' arrays and,
    where a patch kept a shard's support, its key array and CSR
    structure.  Only the newest version may write: an older one stays
    readable but rejects :meth:`set_shard_entries`, :meth:`patch_with` and
    :meth:`flush` (see :meth:`supersede`).
    """

    def __init__(
        self,
        users: LabelIndex | Iterable[str],
        layout: ShardLayout | None = None,
        *,
        num_shards: int = 4,
        store: ShardStore | None = None,
        spill_bytes: int | None = None,
    ) -> None:
        self.users = users if isinstance(users, LabelIndex) else LabelIndex(users)
        self._n = len(self.users)
        self.layout = layout or ShardLayout.even(self._n, num_shards)
        if self.layout.n_rows != self._n:
            raise ValidationError(
                f"layout covers {self.layout.n_rows} rows but the user axis "
                f"has {self._n}"
            )
        if spill_bytes is not None and spill_bytes <= 0:
            raise ValidationError(f"spill_bytes must be positive, got {spill_bytes}")
        if spill_bytes is not None and store is None:
            store = ShardStore.temporary()
        self._store = store
        self._spill_bytes = spill_bytes
        shards = self.layout.num_shards
        # per-shard consolidated state: None means "offloaded to disk,
        # reload lazily"; on first touch a memory-mapped view is cached
        self._keys: list[Any] = [_EMPTY_KEYS] * shards
        self._vals: list[Any] = [_EMPTY_VALS] * shards
        self._on_disk = [False] * shards
        self._dirty = [False] * shards
        # each shard's CSR (indptr, indices), kept until its keys change
        self._structure: list[tuple[IntArray, IntArray] | None] = [None] * shards
        # payload and user axis checksums; a keys file's is kept only while
        # the file holds the shard's keys, so its absence means "rewrite the
        # keys", and a new matrix has none for the user axis file either
        self._checksums: dict[str, str] = {}
        self._superseded = False

    # ------------------------------------------------------------------ basics

    @property
    def num_shards(self) -> int:
        return self.layout.num_shards

    @property
    def store(self) -> ShardStore | None:
        return self._store

    def num_entries(self) -> int:
        """Stored pairs across all shards (including explicit zeros)."""
        return sum(
            int(self._shard_arrays(s)[0].shape[0]) for s in range(self.num_shards)
        )

    def shard_nnz(self, shard: int) -> int:
        return int(self._shard_arrays(shard)[0].shape[0])

    # ------------------------------------------------------------------ writes

    def set_shard_entries(self, shard: int, keys: IntArray, vals: FloatArray) -> None:
        """Replace one shard's content with consolidated entries in O(nnz).

        The writer every build goes through
        (:meth:`repro.trust.TrustDeriver.derive_sharded`,
        :meth:`from_pair_matrix`): ``keys`` must be strictly increasing
        flat keys inside the shard's row range.
        """
        self._require_newest()
        lo_key, hi_key = self.layout.key_range(shard, self._n)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if keys.ndim != 1 or vals.ndim != 1 or keys.shape != vals.shape:
            raise ValidationError(
                f"keys and values must be equal-length 1-D arrays, got shapes "
                f"{keys.shape} and {vals.shape}"
            )
        if keys.size:
            if keys[0] < lo_key or keys[-1] >= hi_key:
                raise ValidationError(
                    f"shard {shard} keys must lie in [{lo_key}, {hi_key}); got "
                    f"[{keys[0]}, {keys[-1]}]"
                )
            if keys.size > 1 and not bool(np.all(keys[1:] > keys[:-1])):
                raise ValidationError(
                    "keys must be strictly increasing (sorted, unique)"
                )
            if not np.isfinite(vals).all():
                raise ValidationError("pair values must be finite")
        self._replace_shard(shard, keys, vals)

    @classmethod
    def from_pair_matrix(
        cls,
        matrix: UserPairMatrix,
        layout: ShardLayout | None = None,
        *,
        num_shards: int = 4,
        store: ShardStore | None = None,
        spill_bytes: int | None = None,
    ) -> "ShardedPairMatrix":
        """Shard an in-memory matrix: each row block's entries, written whole.

        The result has ``matrix``'s user axis and stored entries (explicit
        zeros included); each shard goes through :meth:`set_shard_entries`,
        so one over the spill budget is written to the store at once.
        """
        out = cls(
            matrix.users,
            layout,
            num_shards=num_shards,
            store=store,
            spill_bytes=spill_bytes,
        )
        n = out._n
        keys = matrix.support_keys()
        vals = matrix.values()
        for shard, lo, hi in out.layout:
            k_lo, k_hi = np.searchsorted(keys, [lo * n, hi * n])
            out.set_shard_entries(shard, keys[k_lo:k_hi], vals[k_lo:k_hi])
        return out

    # ---------------------------------------------------------------- patching

    def patch_with(self, region: PairRegion) -> tuple["ShardedPairMatrix", int, int]:
        """A new version with a recomputed ``region`` merged in, shard by shard.

        ``region`` holds every stored entry of ``(region.rows x all) |
        (region.block_rows x region.cols)`` on the **same** user axis
        (sharded patching does not grow axes; axis growth re-derives from
        scratch).  The region touches the shards that hold one of its
        ``rows`` or ``block_rows``; each takes its rows' slice of the region
        (:meth:`repro.matrix.pair.PairRegion.row_slice`, binary searches on
        the region's sorted arrays, no copy of its entries) and goes
        through :func:`repro.matrix.pair.patch_entries`, the routine
        :meth:`repro.matrix.UserPairMatrix.patched` runs, over the shard's
        cached CSR structure: where the shard's support held, its key
        array, CSR structure and keys file are kept and only its values are
        copied and rewritten; otherwise its entries are merged and the
        structure and keys file are dropped.  Untouched shards, with their
        entries in ``region.cols``, are shared with the new version without
        any IO, and every shard keeps its
        on-disk flag, so a rewritten shard that already has a file stays on
        the heap until the next :meth:`flush`.

        This matrix is left unchanged and superseded (:meth:`supersede`).
        Returns ``(patched, kept_entries, shards_patched)``.
        """
        self._require_newest()
        if region.users != self.users:
            raise ValidationError("region must be indexed by this matrix's user axis")
        n = self._n
        touched = self.layout.shards_for_rows(np.union1d(region.rows, region.block_rows))
        touched_set = set(touched.tolist())
        kept_total = 0
        with obs.span(
            "shard.patch",
            shards=len(touched_set),
            region_entries=region.num_entries(),
        ):
            self.supersede()
            out = self._successor()
            for s in range(self.num_shards):
                keys, vals = out._keys[s], out._vals[s]
                if s not in touched_set:
                    kept_total += int(keys.shape[0])
                    continue
                lo, hi = self.layout.row_range(s)
                block = out.shard_csr(s)  # EigenTrust cached its structure
                patch = patch_entries(
                    keys,
                    vals,
                    region.row_slice(lo, hi),
                    n_old=n,
                    indices=block.indices,
                    indptr=block.indptr,
                    first_row=lo,
                )
                obs.add(
                    "shard.patch.values_only" if patch.values_only else "shard.patch.merged"
                )
                kept_total += patch.kept
                # decided by the flag: ``patch.keys`` is a new object even when
                # it views the same memory-mapped keys
                out._replace_shard(s, patch.keys, patch.vals, same_keys=patch.values_only)
            obs.add("shard.patched_shards", len(touched_set))
        return out, kept_total, len(touched_set)

    def supersede(self) -> None:
        """Map every shard and make this version read-only.

        Called before a newer version of this matrix takes over the store
        (:meth:`patch_with`, or a full re-derive into the same store).
        Every shard this version has on disk is memory-mapped first, so
        when the newer version later replaces a payload file this version
        keeps reading the bytes it was built from.  Afterwards the writers
        and :meth:`flush` raise :class:`ValidationError`: a flush from here
        would replace payloads the newer version has not mapped yet.
        """
        for s in range(self.num_shards):
            self._shard_arrays(s)
        self._superseded = True

    # ------------------------------------------------------------------- reads

    def shard_entries(self, shard: int) -> tuple[IntArray, FloatArray]:
        """One shard's consolidated ``(keys, values)`` arrays, read-only.

        The returned arrays are shared views -- memory-mapped when the
        shard lives on disk -- and are invalidated by the next write to
        the shard; copy before holding long-term.
        """
        return self._shard_arrays(shard)

    def shard_csr(self, shard: int) -> sparse.csr_matrix:
        """One shard as a read-only ``rows_in_shard x U`` CSR block (local rows).

        The block's values are the shard's own.  Its ``indptr`` and
        ``indices`` are built from the shard's keys on the first call and
        kept until the keys change (:meth:`set_shard_entries`, a patch that
        changes the shard's support, or a new matrix); later calls, and a
        :meth:`patch_with` version that kept the support, wrap the same
        arrays.  Flushes, spills and re-mapping keep them: the keys stay.
        """
        keys, vals = self._shard_arrays(shard)
        lo, hi = self.layout.row_range(shard)
        values = np.asarray(vals, dtype=np.float64)
        structure = self._structure[shard]
        if structure is not None:
            indptr, indices = structure
            return read_only_csr(values, indices, indptr, (hi - lo, self._n))
        block = row_block_csr(
            np.asarray(keys), values, self._n, first_row=lo, rows=hi - lo
        )
        self._structure[shard] = (block.indptr, block.indices)
        return block

    def entries_arrays(self) -> tuple[IntArray, IntArray, FloatArray]:
        """All stored entries as ``(rows, cols, values)`` position arrays.

        Row-major sorted, identical to the in-memory
        :meth:`repro.matrix.UserPairMatrix.entries_arrays`.  This
        materialises every shard -- it is the compatibility reader for
        consumers that genuinely need the whole matrix, not a hot path.
        """
        keys = self.support_keys()
        return keys // self._n, keys % self._n, self.values()

    def support_keys(self) -> IntArray:
        """All stored pairs as sorted flat keys ``i * U + j`` (materialised)."""
        parts = [
            np.asarray(self._shard_arrays(s)[0]) for s in range(self.num_shards)
        ]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )

    def values(self) -> FloatArray:
        """All stored values in row-major order (materialised copy)."""
        parts = [
            np.asarray(self._shard_arrays(s)[1], dtype=np.float64)
            for s in range(self.num_shards)
        ]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )

    def get(self, source_id: str, target_id: str, default: float = 0.0) -> float:
        """Stored value for the pair, or ``default`` when absent."""
        vals, pos = self._find(source_id, target_id)
        return default if pos is None else float(vals.item(pos))

    def contains(self, source_id: str, target_id: str) -> bool:
        """Whether the pair is explicitly stored (even with value 0)."""
        return self._find(source_id, target_id)[1] is not None

    def density(self) -> float:
        """Stored pairs divided by the ``U * (U - 1)`` ordered pairs."""
        possible = self._n * (self._n - 1)
        if possible == 0:
            return 0.0
        return self.num_entries() / possible

    def to_pair_matrix(self) -> UserPairMatrix:
        """Materialise the whole matrix as an in-memory ``UserPairMatrix``."""
        return UserPairMatrix.from_flat_sorted(
            self.users, self.support_keys(), self.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ShardedPairMatrix, UserPairMatrix)):
            return NotImplemented
        return (
            self.users == other.users
            and np.array_equal(self.support_keys(), other.support_keys())
            and np.array_equal(self.values(), other.values())
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ShardedPairMatrix is mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedPairMatrix(users={self._n}, shards={self.num_shards}, "
            f"store={None if self._store is None else str(self._store.root)!r})"
        )

    # ------------------------------------------------------------- persistence

    def flush(self, *, epoch: int = 0) -> dict[str, Any]:
        """Write every dirty shard plus the manifest; returns the manifest.

        Requires a store.  A dirty shard's values file is always rewritten;
        its keys file only when the shard's keys differ from the file's,
        i.e. after a merged patch, :meth:`set_shard_entries`, or in a new
        matrix.  A shard whose patches all kept its support keeps its keys
        file and its checksum untouched.  The user axis file is written only
        by the first flush of a new matrix: the versions :meth:`patch_with`
        returns and a matrix :meth:`open` returns keep its checksum.

        Nothing is read back: each written file's checksum is the digest
        :meth:`ShardStore.write_array` took of its bytes, and the manifest's
        entry counts come from the arrays in hand.  Afterwards every written
        file is memory-mapped in place of the heap arrays, which are
        dropped; a keys file left in place keeps the keys array that maps
        it, and CSR structures are kept, so the next reads load nothing.
        The matrix can be reopened with :meth:`open`.  The store has one
        writer: the keys-file and user-axis bookkeeping assumes no other
        matrix rewrites its files.
        """
        self._require_newest()
        store = self._require_store()
        with obs.span("shard.store.flush", shards=self.num_shards):
            shard_docs = []
            checksums: dict[str, str] = {}
            for s in range(self.num_shards):
                keys_name, vals_name = _shard_files(s)
                if self._dirty[s] or not self._on_disk[s]:
                    self._flush_shard(s)
                checksums[keys_name] = self._checksums[keys_name]
                checksums[vals_name] = self._checksums[vals_name]
                lo, hi = self.layout.row_range(s)
                shard_docs.append(
                    {
                        "index": s,
                        "rows": [lo, hi],
                        "entries": self.shard_nnz(s),  # in hand unless never read
                        "files": {"keys": keys_name, "vals": vals_name},
                    }
                )
            # a patched version keeps its user axis, so the labels file
            # is written only by a matrix that has no checksum for it
            if USERS_NAME not in self._checksums:
                store.write_labels(self.users.labels)
                self._checksums[USERS_NAME] = store.written_checksum(USERS_NAME)
            checksums[USERS_NAME] = self._checksums[USERS_NAME]
            manifest: dict[str, Any] = {
                "format": FORMAT,
                "n_users": self._n,
                "epoch": int(epoch),
                "bounds": list(self.layout.bounds),
                "dtype": {"keys": "int64", "vals": "float64"},
                "entries": sum(doc["entries"] for doc in shard_docs),
                "shards": shard_docs,
                "checksums": checksums,
            }
            store.write_manifest(manifest)
        return manifest

    @classmethod
    def open(cls, store: ShardStore) -> "ShardedPairMatrix":
        """Reopen a flushed matrix from its store (reads stay mmapped)."""
        with obs.span("shard.store.load"):
            manifest = store.read_manifest()
            labels = store.read_labels()
            if len(labels) != manifest["n_users"]:
                raise ValidationError(
                    f"user axis file has {len(labels)} labels but the manifest "
                    f"says {manifest['n_users']}"
                )
            layout = ShardLayout(
                n_rows=int(manifest["n_users"]),
                bounds=tuple(int(b) for b in manifest["bounds"]),
            )
            out = cls(LabelIndex(labels), layout, store=store)
            for s in range(out.num_shards):
                out._keys[s] = None
                out._vals[s] = None
                out._on_disk[s] = True
            # every keys file holds the keys its manifest checksum describes
            out._checksums = dict(manifest.get("checksums", {}))
        return out

    # -------------------------------------------------------------- internals

    def _require_store(self) -> ShardStore:
        if self._store is None:
            raise ValidationError(
                "this ShardedPairMatrix has no store; pass store= (or "
                "spill_bytes=) at construction to enable persistence"
            )
        return self._store

    def _require_newest(self) -> None:
        if self._superseded:
            raise ValidationError(
                "this ShardedPairMatrix version was superseded by a newer one "
                "sharing its store; it is read-only"
            )

    def _successor(self) -> "ShardedPairMatrix":
        """A new version sharing every shard, CSR structure, flag and checksum."""
        out = ShardedPairMatrix(
            self.users, self.layout, store=self._store, spill_bytes=self._spill_bytes
        )
        out._keys = list(self._keys)
        out._vals = list(self._vals)
        out._on_disk = list(self._on_disk)
        out._dirty = list(self._dirty)
        out._structure = list(self._structure)
        out._checksums = dict(self._checksums)
        return out

    def _replace_shard(
        self, shard: int, keys: IntArray, vals: FloatArray, *, same_keys: bool = False
    ) -> None:
        """Install consolidated arrays as the shard's whole content.

        ``same_keys`` says ``keys`` equal the shard's current keys, so its
        CSR structure and keys file stay valid; otherwise both are dropped.
        """
        keys.setflags(write=False)
        vals.setflags(write=False)
        self._keys[shard] = keys
        self._vals[shard] = vals
        self._dirty[shard] = True
        if not same_keys:
            self._checksums.pop(_shard_files(shard)[0], None)
            self._structure[shard] = None
        self._maybe_spill(shard)

    def _estimated_bytes(self, shard: int) -> int:
        if self._keys[shard] is None or self._on_disk[shard]:
            return 0
        return ENTRY_BYTES * int(self._keys[shard].shape[0])

    def _maybe_spill(self, shard: int) -> None:
        if self._spill_bytes is None or self._store is None:
            return
        if self._estimated_bytes(shard) > self._spill_bytes:
            obs.add("shard.spill")
            self._flush_shard(shard)

    def _flush_shard(self, shard: int) -> None:
        """Write a shard held on the heap to its files and map them in its place.

        The keys file is written only when it does not already hold the
        shard's keys (it has no checksum); an unwritten file keeps its
        checksum, and the shard keeps its keys array, which maps that file.
        A written file's checksum is the digest taken as it was written,
        and the heap copy is replaced by a map of the file: nothing is read.
        """
        store = self._require_store()
        keys_name, vals_name = _shard_files(shard)
        if keys_name not in self._checksums:
            store.write_array(keys_name, np.asarray(self._keys[shard]))
            self._checksums[keys_name] = store.written_checksum(keys_name)
            self._keys[shard] = store.map_written(keys_name)
        store.write_array(vals_name, np.asarray(self._vals[shard], dtype=np.float64))
        self._checksums[vals_name] = store.written_checksum(vals_name)
        self._vals[shard] = store.map_written(vals_name)
        self._on_disk[shard] = True
        self._dirty[shard] = False

    def _find(self, source_id: str, target_id: str) -> tuple[FloatArray, int | None]:
        """The pair's shard values and its position in them (``None``: absent)."""
        i = self.users.position(source_id)
        key = i * self._n + self.users.position(target_id)
        keys, vals = self._shard_arrays(self.layout.shard_of_row(i))
        # the method forms skip np.searchsorted's dispatch layer and the
        # memmap subclass's wrapping of an indexed scalar, which together
        # cost more than the search itself on a point read
        pos = int(keys.searchsorted(key))
        if pos < keys.shape[0] and keys.item(pos) == key:
            return vals, pos
        return vals, None

    def _shard_arrays(self, shard: int) -> tuple[IntArray, FloatArray]:
        self.layout._require_shard(shard)
        if self._keys[shard] is None:
            store = self._require_store()
            keys_name, vals_name = _shard_files(shard)
            obs.add("shard.miss")
            self._keys[shard] = store.read_array(keys_name)
            self._vals[shard] = store.read_array(vals_name)
        else:
            obs.add("shard.hit")
        return self._keys[shard], self._vals[shard]
