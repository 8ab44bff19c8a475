"""The ``repro shard`` subcommand: build / inspect / verify artifact stores.

- ``build`` runs the cold pipeline on a community (synthetic or loaded
  from an Epinions-format directory) and persists every staged output to
  an :class:`repro.shard.artifacts.ArtifactStore` directory;
- ``inspect`` prints the manifest: epoch, axes, shard boundaries, entry
  counts and on-disk bytes;
- ``verify`` re-hashes every payload against the manifest checksums and
  exits non-zero on any mismatch; it accepts either a full artifact
  store (``artifacts.json``) or a bare pair-matrix shard store
  (``manifest.json``, e.g. the perf bench's ``--shard-dir`` output).

:mod:`repro.cli` registers the parsers and imports this module only when
a ``shard`` command runs.
"""

from __future__ import annotations

import argparse
from typing import IO

from repro.shard.artifacts import ArtifactStore

__all__ = ["run_shard"]


def run_shard(args: argparse.Namespace, out: IO[str]) -> int:
    """Dispatch one ``repro shard`` action; returns the exit code."""
    if args.shard_command == "build":
        return _run_build(args, out)
    if args.shard_command == "inspect":
        return _run_inspect(args, out)
    return _run_verify(args, out)


def _run_build(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.cli import _load_community
    from repro.engine import cold_artifacts

    community = _load_community(args)
    artifacts = cold_artifacts(community)
    store = ArtifactStore(args.store)
    manifest = store.save(
        expertise=artifacts.expertise,
        affiliation=artifacts.affiliation,
        derived=artifacts.derived,
        scores=artifacts.scores,
        epoch=community.version,
        num_shards=args.shards,
    )
    print(
        f"wrote {manifest['derived']['entries']} derived pairs in "
        f"{manifest['derived']['shards']} shards "
        f"(epoch {manifest['epoch']}, {manifest['n_users']} users) to {args.store}",
        file=out,
    )
    return 0


def _run_inspect(args: argparse.Namespace, out: IO[str]) -> int:
    from repro.reporting import render_table

    store = ArtifactStore(args.store)
    manifest = store.read_manifest()
    derived_manifest = store.derived_store.read_manifest()
    rows = [
        ["epoch", manifest["epoch"]],
        ["users", manifest["n_users"]],
        ["categories", manifest["n_categories"]],
        ["derived entries", manifest["derived"]["entries"]],
        ["shards", manifest["derived"]["shards"]],
        ["scores converged", manifest["scores"]["converged"]],
        ["scores iterations", manifest["scores"]["iterations"]],
    ]
    print(render_table(["field", "value"], rows, title=f"Artifacts: {args.store}"), file=out)
    shard_rows = []
    for doc in derived_manifest["shards"]:
        lo, hi = doc["rows"]
        keys_file = store.derived_store.path(doc["files"]["keys"])
        vals_file = store.derived_store.path(doc["files"]["vals"])
        size = keys_file.stat().st_size + vals_file.stat().st_size
        shard_rows.append([doc["index"], f"[{lo}, {hi})", doc["entries"], size])
    print(
        render_table(
            ["shard", "rows", "entries", "bytes"], shard_rows, title="Shards"
        ),
        file=out,
    )
    return 0


def _run_verify(args: argparse.Namespace, out: IO[str]) -> int:
    from pathlib import Path

    from repro.shard.artifacts import ARTIFACTS_NAME
    from repro.shard.store import ShardStore

    if (Path(args.store) / ARTIFACTS_NAME).exists():
        store = ArtifactStore(args.store)
        mismatched = store.verify()
        checked = len(store.read_manifest().get("checksums", {}))
        checked += len(store.derived_store.read_manifest().get("checksums", {}))
    else:  # a bare pair-matrix shard store
        shard_store = ShardStore(args.store)
        mismatched = shard_store.verify()
        checked = len(shard_store.read_manifest().get("checksums", {}))
    if mismatched:
        print(f"CHECKSUM MISMATCH: {', '.join(mismatched)}", file=out)
        return 1
    print(f"verified {checked} payloads: all checksums match", file=out)
    return 0
