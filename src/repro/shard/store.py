"""Directory-backed storage for sharded trust artifacts.

A :class:`ShardStore` owns one directory.  Array payloads are plain
``.npy`` files so reads can be memory-mapped (``np.load(mmap_mode="r")``
never pulls the whole shard into the heap); the ``manifest.json``
document records the shard boundaries, dtypes, entry counts, the
community epoch the artifact corresponds to, and a SHA-256 checksum per
payload file.  Every file is replaced whole: it is written to a staging
name and renamed onto its own, so a write that fails leaves the previous
file readable.

Checksums come from two places.  A writer records the digest
:meth:`ShardStore.written_checksum` returns: :meth:`ShardStore.write_array`
and :meth:`ShardStore.write_text` hash the bytes they write, in memory, as
they write them, so recording a checksum reads nothing back.
:meth:`ShardStore.checksum` hashes a file as it is on disk;
:meth:`ShardStore.verify` re-hashes every payload that way against the
manifest -- the integrity gate behind ``repro shard verify`` and the CI
perf smoke.  A writer can also map a payload it just wrote
(:meth:`ShardStore.map_written`) at the header length it wrote, without
parsing the header again.

All IO is surfaced through :mod:`repro.obs`: ``shard.write.bytes`` /
``shard.read.bytes`` counters and ``shard.store.flush`` /
``shard.store.load`` spans.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError

__all__ = ["ShardStore", "MANIFEST_NAME", "FORMAT"]

MANIFEST_NAME = "manifest.json"
USERS_NAME = "users.txt"
FORMAT = "repro.shard/v1"

_HASH_CHUNK = 1 << 18  # stream checksums in 256 KiB chunks: bounded memory


def _npy_header(values: IntArray | FloatArray) -> bytes:
    """The header ``np.save`` writes before a C-contiguous array's bytes.

    Format 1.0, which ``np.save`` picks for every header that fits it (any
    plain numeric array): magic, header length, and the padded header dict.
    The file's bytes are this header followed by the array's own bytes.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(values)
    )
    return header.getvalue()


class _Written(NamedTuple):
    """What a write through this store knows of the file it left."""

    checksum: str  # SHA-256 hex digest of the bytes written, taken in memory
    offset: int = 0  # an array payload's header length: where its values start
    dtype: np.dtype[Any] | None = None
    shape: tuple[int, ...] = ()


class ShardStore:
    """One directory of ``.npy`` shard payloads plus a JSON manifest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # the last write of each file through this object
        self._written: dict[str, _Written] = {}

    @classmethod
    def temporary(cls) -> "ShardStore":
        """A store in a fresh temp directory, removed when unreferenced."""
        root = tempfile.mkdtemp(prefix="repro-shard-")
        store = cls(root)
        weakref.finalize(store, shutil.rmtree, root, True)
        return store

    def path(self, name: str) -> Path:
        """Absolute path of a payload or manifest file inside the store."""
        if "/" in name or "\\" in name or name.startswith("."):
            raise ValidationError(f"store file names must be flat, got {name!r}")
        return self.root / name

    # ------------------------------------------------------------------ arrays

    def write_array(self, name: str, values: IntArray | FloatArray) -> int:
        """Persist one array as the ``.npy`` file ``name``; returns the bytes written.

        The file holds exactly what ``np.save`` writes: :func:`_npy_header`
        and then the array's bytes.  Those bytes are hashed in memory as
        they are written (:meth:`written_checksum`), so a checksum costs no
        read of the file; :meth:`checksum` is the re-read from disk.

        The payload goes to a staging file in the store directory first and
        is then renamed onto ``name`` (``os.replace``).  The rename swaps
        the directory entry, not the bytes: a matrix version that
        memory-mapped the old payload keeps reading the old bytes, so a
        newer version can rewrite a shard that an older one still serves.
        """
        target = self.path(name)
        staging = target.with_name(target.name + ".staging")
        values = np.ascontiguousarray(values)
        header = _npy_header(values)
        digest = hashlib.sha256(header)
        digest.update(values)
        with open(staging, "wb") as handle:
            handle.write(header)
            values.tofile(handle)  # as np.save writes the array's bytes
        os.replace(staging, target)
        self._written[name] = _Written(
            digest.hexdigest(), len(header), values.dtype, values.shape
        )
        size = len(header) + values.nbytes
        obs.add("shard.write.bytes", size)
        obs.add("shard.write.files")
        return size

    def written_checksum(self, name: str) -> str:
        """SHA-256 (hex digest) of ``name`` as this store last wrote it.

        Taken from the bytes in memory by :meth:`write_array` or
        :meth:`write_text`, not read back from disk; it describes the file
        until something else replaces it.
        """
        return self._last_write(name).checksum

    def map_written(self, name: str) -> Any:
        """Memory-map, read-only, the array payload this store last wrote as ``name``.

        The map starts at the header length the write used and has the
        written array's dtype and shape, so the header is not read or
        parsed again; :meth:`read_array` is the validated cold read.
        """
        written = self._last_write(name)
        if written.dtype is None:
            raise ValidationError(f"{name!r} was not written as an array")
        return np.memmap(
            self.path(name),
            dtype=written.dtype,
            mode="r",
            offset=written.offset,
            shape=written.shape,
        )

    def read_array(self, name: str, *, mmap: bool = True) -> Any:
        """Load one array, memory-mapped read-only by default."""
        target = self.path(name)
        if not target.exists():
            raise ValidationError(f"store is missing payload {name!r}")
        obs.add("shard.read.bytes", target.stat().st_size)
        obs.add("shard.read.files")
        if mmap:
            return np.load(target, mmap_mode="r")
        return np.load(target)

    # -------------------------------------------------------------------- text

    def write_text(self, name: str, text: str) -> None:
        """Replace the text file ``name`` whole, as :meth:`write_array` does.

        The UTF-8 bytes go to a staging file that is then renamed onto
        ``name`` (``os.replace``), so a failure leaves the previous file as
        it was; they are hashed in memory as they are written
        (:meth:`written_checksum`).  The metadata writers below all go
        through here; unlike :meth:`write_array` it counts no
        ``shard.write.*`` IO.
        """
        target = self.path(name)
        staging = target.with_name(target.name + ".staging")
        data = text.encode("utf-8")
        staging.write_bytes(data)
        os.replace(staging, target)
        self._written[name] = _Written(hashlib.sha256(data).hexdigest())

    def read_json(self, name: str, format_tag: str) -> dict[str, Any]:
        """Load the JSON object ``name`` whose ``format`` is ``format_tag``.

        Raises :class:`ValidationError` naming the file when it is missing,
        not valid JSON (e.g. truncated), not a JSON object, or of another
        format.
        """
        target = self.path(name)
        if not target.exists():
            raise ValidationError(f"no manifest at {target}")
        try:
            document = json.loads(target.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValidationError(f"{target} is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ValidationError(
                f"{target} is not a {format_tag} manifest "
                f"(a JSON {type(document).__name__}, not an object)"
            )
        if document.get("format") != format_tag:
            raise ValidationError(
                f"{target} is not a {format_tag} manifest "
                f"(format={document.get('format')!r})"
            )
        return document

    # ---------------------------------------------------------------- manifest

    def write_manifest(self, document: dict[str, Any]) -> None:
        self.write_text(
            MANIFEST_NAME, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )

    def read_manifest(self) -> dict[str, Any]:
        return self.read_json(MANIFEST_NAME, FORMAT)

    def has_manifest(self) -> bool:
        return self.path(MANIFEST_NAME).exists()

    # ------------------------------------------------------------------ labels

    def write_labels(self, labels: tuple[str, ...], name: str = USERS_NAME) -> None:
        """Persist an axis, one label per line (order is the axis).

        ``name`` defaults to the user axis file.
        """
        for label in labels:
            if "\n" in label:
                raise ValidationError(f"labels may not contain newlines, got {label!r}")
        self.write_text(name, "".join(f"{label}\n" for label in labels))

    def read_labels(self) -> tuple[str, ...]:
        target = self.path(USERS_NAME)
        if not target.exists():
            raise ValidationError(f"store is missing the user axis file {USERS_NAME}")
        with open(target, "r", encoding="utf-8") as handle:
            return tuple(line.rstrip("\n") for line in handle if line != "\n")

    # --------------------------------------------------------------- integrity

    def checksum(self, name: str) -> str:
        """Streamed SHA-256 (hex digest) of one payload file as it is on disk.

        Reads the whole file back: the check :meth:`verify` runs.  A
        writer records :meth:`written_checksum` instead, the digest taken
        in memory of the bytes it wrote.
        """
        digest = hashlib.sha256()
        buffer = bytearray(_HASH_CHUNK)  # one reusable buffer, no per-chunk bytes
        view = memoryview(buffer)
        with open(self.path(name), "rb", buffering=0) as handle:
            while True:
                read = handle.readinto(buffer)
                if not read:
                    break
                digest.update(view[:read])
        return digest.hexdigest()

    def verify(self) -> list[str]:
        """Names of payloads whose checksum disagrees with the manifest.

        Missing payloads are reported too; an empty list means the store
        is internally consistent.
        """
        manifest = self.read_manifest()
        mismatched: list[str] = []
        with obs.span("shard.store.verify", files=len(manifest.get("checksums", {}))):
            for name, expected in sorted(manifest.get("checksums", {}).items()):
                target = self.path(name)
                if not target.exists() or self.checksum(name) != expected:
                    mismatched.append(name)
        return mismatched

    def _last_write(self, name: str) -> _Written:
        written = self._written.get(name)
        if written is None:
            raise ValidationError(f"{name!r} was not written through this store")
        return written

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardStore({str(self.root)!r})"
