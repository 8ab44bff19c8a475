"""Directory-backed storage for sharded trust artifacts.

A :class:`ShardStore` owns one directory.  Array payloads are plain
``.npy`` files so reads can be memory-mapped (``np.load(mmap_mode="r")``
never pulls the whole shard into the heap); the ``manifest.json``
document records the shard boundaries, dtypes, entry counts, the
community epoch the artifact corresponds to, and a SHA-256 checksum per
payload file.  :meth:`ShardStore.verify` re-hashes every payload against
the manifest -- the integrity gate behind ``repro shard verify`` and the
CI perf smoke.  Every file is replaced whole: it is written to a staging
name and renamed onto its own, so a write that fails leaves the previous
file readable.

All IO is surfaced through :mod:`repro.obs`: ``shard.write.bytes`` /
``shard.read.bytes`` counters and ``shard.store.flush`` /
``shard.store.load`` spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import ValidationError

__all__ = ["ShardStore", "MANIFEST_NAME", "FORMAT"]

MANIFEST_NAME = "manifest.json"
USERS_NAME = "users.txt"
FORMAT = "repro.shard/v1"

_HASH_CHUNK = 1 << 18  # stream checksums in 256 KiB chunks: bounded memory


class ShardStore:
    """One directory of ``.npy`` shard payloads plus a JSON manifest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

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

        The payload goes to a staging file in the store directory first and
        is then renamed onto ``name`` (``os.replace``).  The rename swaps
        the directory entry, not the bytes: a matrix version that
        memory-mapped the old payload keeps reading the old bytes, so a
        newer version can rewrite a shard that an older one still serves.
        """
        target = self.path(name)
        staging = target.with_name(target.name + ".staging")
        with open(staging, "wb") as handle:
            np.save(handle, np.ascontiguousarray(values))
        size = staging.stat().st_size
        os.replace(staging, target)
        obs.add("shard.write.bytes", size)
        obs.add("shard.write.files")
        return int(size)

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

        The text goes to a staging file that is then renamed onto ``name``
        (``os.replace``), so a failure leaves the previous file as it was.
        The metadata writers below all go through here; unlike
        :meth:`write_array` it counts no ``shard.write.*`` IO.
        """
        target = self.path(name)
        staging = target.with_name(target.name + ".staging")
        staging.write_text(text, encoding="utf-8")
        os.replace(staging, target)

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
        """Streamed SHA-256 of one payload file (hex digest)."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardStore({str(self.root)!r})"
