"""Configuration for the sharded artifact backend.

One frozen :class:`ShardConfig` travels from the CLI / bench flags down
to whatever builds :class:`repro.shard.matrix.ShardedPairMatrix`
instances -- the engine, the sharded deriver, the perf scenario -- so
every layer agrees on the shard count, spill budget and store location.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ValidationError
from repro.shard.layout import ShardLayout
from repro.shard.store import ShardStore

__all__ = ["ShardConfig"]


@dataclass(frozen=True)
class ShardConfig:
    """How to shard the pair matrix and where the shards live.

    Parameters
    ----------
    num_shards:
        Row blocks to split the ``U x U`` matrix into.
    spill_bytes:
        Per-shard heap budget in bytes; a shard whose entries exceed it is
        written to the store as soon as its content is set.  ``None``
        keeps shards in memory until an explicit flush.  The budget covers
        a shard until it has a file: a shard rewritten after that (an
        engine patch) stays on the heap until the next flush.
    root:
        Store directory.  ``None`` uses a fresh temporary directory that
        is removed when the store is garbage-collected.
    """

    num_shards: int = 4
    spill_bytes: int | None = None
    root: str | Path | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.spill_bytes is not None and self.spill_bytes <= 0:
            raise ValidationError(
                f"spill_bytes must be positive, got {self.spill_bytes}"
            )

    def make_store(self, subdir: str | None = None) -> ShardStore:
        """Open (or create) the configured store directory."""
        if self.root is None:
            return ShardStore.temporary()
        root = Path(self.root)
        if subdir is not None:
            root = root / subdir
        return ShardStore(root)

    def layout_for(self, n_rows: int) -> ShardLayout:
        """The even row-block layout this config implies for ``n_rows``."""
        return ShardLayout.even(n_rows, self.num_shards)
