"""Save/load facade for the pipeline's staged outputs.

An :class:`ArtifactStore` is one directory holding a complete derived
state: the web of trust ``T-hat`` as a sharded sub-store (``derived/``),
the dense ``E`` / ``A`` user-by-category matrices, the propagation score
vector, and an ``artifacts.json`` manifest tying them to a community
epoch with per-file checksums.  It is the persistence layer behind
``repro shard build`` / ``inspect`` / ``verify``: a pipeline run can be
written once and reopened later (or on another machine) without paying
the derive again -- reads of the pair matrix stay memory-mapped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex
from repro.matrix.pair import UserPairMatrix
from repro.matrix.user_category import UserCategoryMatrix
from repro.propagation.scores import PropagationScores
from repro.shard.matrix import ShardedPairMatrix
from repro.shard.store import ShardStore

__all__ = ["ArtifactStore", "StoredArtifacts", "ARTIFACTS_NAME", "DERIVED_DIR"]

ARTIFACTS_NAME = "artifacts.json"
DERIVED_DIR = "derived"

_EXPERTISE_NAME = "expertise.npy"
_AFFILIATION_NAME = "affiliation.npy"
_SCORES_NAME = "scores.npy"
_CATEGORIES_NAME = "categories.txt"
_FORMAT = "repro.artifacts/v1"


@dataclass(frozen=True)
class StoredArtifacts:
    """What :meth:`ArtifactStore.load` hands back."""

    expertise: UserCategoryMatrix
    affiliation: UserCategoryMatrix
    derived: ShardedPairMatrix
    scores: PropagationScores
    epoch: int


class ArtifactStore:
    """One directory of persisted pipeline outputs plus a manifest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._flat = ShardStore(self.root)
        self.derived_store = ShardStore(self.root / DERIVED_DIR)

    # -------------------------------------------------------------------- save

    def save(
        self,
        *,
        expertise: UserCategoryMatrix,
        affiliation: UserCategoryMatrix,
        derived: UserPairMatrix | ShardedPairMatrix,
        scores: PropagationScores,
        epoch: int = 0,
        num_shards: int = 4,
    ) -> dict[str, Any]:
        """Persist one consistent set of pipeline outputs; returns the manifest.

        An in-memory ``derived`` matrix is sharded into ``num_shards`` row
        blocks on the way out; a :class:`ShardedPairMatrix` is flushed
        shard by shard (its own store is left untouched).  Every checksum in
        both manifests is the digest taken of the bytes as they were
        written; :meth:`verify` re-hashes the files from disk.
        """
        if expertise.users != derived.users or affiliation.users != derived.users:
            raise ValidationError("artifacts must share one user axis")
        if scores.users != derived.users:
            raise ValidationError("scores must cover the derived matrix's user axis")
        with obs.span("shard.artifacts.save", users=len(derived.users)):
            sharded = self._as_sharded(derived, num_shards)
            derived_manifest = sharded.flush(epoch=epoch)
            checksums: dict[str, str] = {}
            for name, values in (
                (_EXPERTISE_NAME, expertise.values_view()),
                (_AFFILIATION_NAME, affiliation.values_view()),
                (_SCORES_NAME, scores.scores_array()),
            ):
                self._flat.write_array(name, values)
                checksums[name] = self._flat.written_checksum(name)
            self._flat.write_labels(expertise.categories.labels, _CATEGORIES_NAME)
            checksums[_CATEGORIES_NAME] = self._flat.written_checksum(_CATEGORIES_NAME)
            manifest: dict[str, Any] = {
                "format": _FORMAT,
                "epoch": int(epoch),
                "n_users": len(derived.users),
                "n_categories": len(expertise.categories),
                "derived": {
                    "dir": DERIVED_DIR,
                    "entries": derived_manifest["entries"],
                    "shards": len(derived_manifest["shards"]),
                },
                "scores": {
                    "converged": bool(scores.converged),
                    "iterations": scores.iterations,
                    "residual": scores.residual,
                },
                "checksums": checksums,
            }
            self._flat.write_text(
                ARTIFACTS_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
        return manifest

    # -------------------------------------------------------------------- load

    def load(self) -> StoredArtifacts:
        """Reopen a saved artifact set (the pair matrix stays memory-mapped)."""
        with obs.span("shard.artifacts.load"):
            manifest = self.read_manifest()
            derived = ShardedPairMatrix.open(self.derived_store)
            users = derived.users
            categories = LabelIndex(self._read_categories())
            e_values = np.asarray(self._flat.read_array(_EXPERTISE_NAME, mmap=False))
            a_values = np.asarray(self._flat.read_array(_AFFILIATION_NAME, mmap=False))
            s_values = np.asarray(self._flat.read_array(_SCORES_NAME, mmap=False))
            meta = manifest.get("scores", {})
            scores = PropagationScores(
                users,
                s_values,
                converged=bool(meta.get("converged", True)),
                iterations=meta.get("iterations"),
                residual=meta.get("residual"),
            )
            return StoredArtifacts(
                expertise=UserCategoryMatrix(users, categories, e_values),
                affiliation=UserCategoryMatrix(users, categories, a_values),
                derived=derived,
                scores=scores,
                epoch=int(manifest["epoch"]),
            )

    def read_manifest(self) -> dict[str, Any]:
        return self._flat.read_json(ARTIFACTS_NAME, _FORMAT)

    # --------------------------------------------------------------- integrity

    def verify(self) -> list[str]:
        """Payloads whose checksum disagrees with either manifest.

        Covers both the flat artifact files and the ``derived/`` shard
        payloads; an empty list means the whole directory is consistent.
        """
        manifest = self.read_manifest()
        mismatched: list[str] = []
        for name, expected in sorted(manifest.get("checksums", {}).items()):
            target = self.root / name
            if not target.exists() or self._flat.checksum(name) != expected:
                mismatched.append(name)
        mismatched.extend(
            f"{DERIVED_DIR}/{name}" for name in self.derived_store.verify()
        )
        return mismatched

    # --------------------------------------------------------------- internals

    def _as_sharded(
        self, derived: UserPairMatrix | ShardedPairMatrix, num_shards: int
    ) -> ShardedPairMatrix:
        if isinstance(derived, UserPairMatrix):
            return ShardedPairMatrix.from_pair_matrix(
                derived, num_shards=num_shards, store=self.derived_store
            )
        if derived.store is not None and derived.store.root == self.derived_store.root:
            return derived
        copy = ShardedPairMatrix(derived.users, derived.layout, store=self.derived_store)
        for s in range(derived.num_shards):
            keys, vals = derived.shard_entries(s)
            copy.set_shard_entries(s, np.asarray(keys), np.asarray(vals))
        return copy

    def _read_categories(self) -> tuple[str, ...]:
        target = self.root / _CATEGORIES_NAME
        if not target.exists():
            raise ValidationError(f"store is missing {_CATEGORIES_NAME}")
        with open(target, "r", encoding="utf-8") as handle:
            return tuple(line.rstrip("\n") for line in handle if line != "\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"
