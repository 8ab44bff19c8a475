"""Delta-driven incremental pipeline engine.

The :class:`Engine` subscribes to a community's change log and keeps the
staged artifacts (columns -> E -> A -> T-hat -> propagation scores)
synchronous with the mutating community, recomputing only what each batch
of deltas invalidates.  Every update is bitwise equal to a cold build of
the same records, in memory or sharded -- see ``repro/engine/engine.py``
for the contract and ``repro/trust/derive.py`` for the kernel determinism
it rests on.
"""

from repro.engine.engine import (
    Engine,
    EngineArtifacts,
    UpdateStats,
    cold_artifacts,
)
from repro.engine.replay import (
    CommunityRecords,
    clone_community,
    extract_records,
    split_rating_stream,
)

__all__ = [
    "Engine",
    "EngineArtifacts",
    "UpdateStats",
    "cold_artifacts",
    "CommunityRecords",
    "clone_community",
    "extract_records",
    "split_rating_stream",
]
