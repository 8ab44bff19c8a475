"""repro.shard -- sharded, out-of-core storage for the trust artifacts.

The paper's ``T-hat`` web of trust is the one quadratically-growing
artifact; this package keeps it on disk in row-block shards so derive
and incremental patching run with bounded peak memory, and propagation
reads each spilled shard once per call:

- :class:`ShardLayout` -- contiguous row-block boundaries;
- :class:`ShardStore` -- a directory of memory-mappable ``.npy`` payloads
  with a checksummed JSON manifest; a writer's checksums are digests of
  the bytes as written, and ``verify`` re-hashes the files from disk;
- :class:`ShardedPairMatrix` -- the bitwise-identical sharded backend
  for :class:`repro.matrix.UserPairMatrix`, read through the same API;
  each shard's content is written whole (``set_shard_entries``,
  ``from_pair_matrix``, ``patch_with``), and a shard whose patches keep
  its support keeps its CSR structure and its keys file, so propagation
  and checkpoints after a values-only patch touch only values, and a
  shard written by a spill or a flush stays mapped, so nothing is read
  back.  ``patch_with`` takes the derived region as it comes
  (:class:`repro.matrix.pair.PairRegion`) and hands each touched shard its
  rows' slice of it, found by binary search; untouched shards are shared;
- :class:`ShardConfig` -- shard count / spill budget / store location;
- :class:`ArtifactStore` -- save/load facade for whole pipeline outputs.

The shard-aware compute paths live with their kernels:
:meth:`repro.trust.TrustDeriver.derive_sharded`, the row-block sweep in
:func:`repro.propagation.eigen_trust` (one block per shard), and the
per-shard patching mode of :class:`repro.engine.Engine`.
"""

from repro.shard.artifacts import ArtifactStore, StoredArtifacts
from repro.shard.config import ShardConfig
from repro.shard.layout import ShardLayout
from repro.shard.matrix import ShardedPairMatrix
from repro.shard.store import ShardStore

__all__ = [
    "ArtifactStore",
    "ShardConfig",
    "ShardLayout",
    "ShardStore",
    "ShardedPairMatrix",
    "StoredArtifacts",
]
