"""Row-block shard layout for the user-pair matrix.

A :class:`ShardLayout` partitions the ``U`` rows of a ``U x U`` pair
matrix into contiguous row blocks.  Row-block sharding is what keeps
every shard-local operation exact: each matrix row lives wholly inside
one shard, so per-row reductions (row sums, normalisation, the keep/drop
masks of region patching) never cross a shard boundary, and the
concatenation of the shards' row-major entries *is* the row-major entry
list of the whole matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.common.arrays import IntArray
from repro.common.errors import ValidationError

__all__ = ["ShardLayout"]


@dataclass(frozen=True)
class ShardLayout:
    """Contiguous row-block boundaries over an ``n_rows``-row matrix.

    ``bounds`` holds ``num_shards + 1`` monotonically increasing row
    starts with ``bounds[0] == 0`` and ``bounds[-1] == n_rows``; shard
    ``s`` covers rows ``[bounds[s], bounds[s + 1])``.
    """

    n_rows: int
    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise ValidationError(f"n_rows must be >= 0, got {self.n_rows}")
        if len(self.bounds) < 2:
            raise ValidationError("layout needs at least one shard (two bounds)")
        if self.bounds[0] != 0 or self.bounds[-1] != self.n_rows:
            raise ValidationError(
                f"bounds must run from 0 to n_rows={self.n_rows}, got "
                f"[{self.bounds[0]}, {self.bounds[-1]}]"
            )
        if any(b > a for a, b in zip(self.bounds[1:], self.bounds)):
            raise ValidationError("bounds must be monotonically increasing")

    # ------------------------------------------------------------- constructors

    @classmethod
    def even(cls, n_rows: int, num_shards: int) -> "ShardLayout":
        """Split ``n_rows`` into ``num_shards`` near-equal row blocks.

        ``num_shards`` is clamped to ``n_rows`` (every shard gets at
        least one row when there are any rows at all).
        """
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        shards = max(1, min(num_shards, n_rows)) if n_rows else 1
        edges = np.linspace(0, n_rows, shards + 1).astype(np.int64)
        return cls(n_rows=n_rows, bounds=tuple(int(e) for e in edges))

    # ------------------------------------------------------------------ queries

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    def row_range(self, shard: int) -> tuple[int, int]:
        """The ``[lo, hi)`` row range of ``shard``."""
        self._require_shard(shard)
        return self.bounds[shard], self.bounds[shard + 1]

    def rows_in(self, shard: int) -> int:
        lo, hi = self.row_range(shard)
        return hi - lo

    def shard_of_rows(self, rows: IntArray) -> IntArray:
        """The shard index of each row position (vectorised)."""
        edges = np.asarray(self.bounds[1:-1], dtype=np.int64)
        return np.searchsorted(edges, np.asarray(rows, dtype=np.int64), side="right")

    def shard_of_row(self, row: int) -> int:
        """The shard index of one row position (a point read's lookup)."""
        return bisect_right(self.bounds, row) - 1

    def shards_for_rows(self, rows: IntArray) -> IntArray:
        """Sorted unique shard indices containing any of ``rows``."""
        if np.asarray(rows).size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.shard_of_rows(rows))

    def key_range(self, shard: int, n_cols: int) -> tuple[int, int]:
        """The flat-key range ``[lo * n_cols, hi * n_cols)`` of ``shard``."""
        lo, hi = self.row_range(shard)
        return lo * n_cols, hi * n_cols

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(shard, lo, hi)`` triples in row order."""
        for s in range(self.num_shards):
            yield s, self.bounds[s], self.bounds[s + 1]

    def _require_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ValidationError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
