"""Incremental pipeline engine over a growing community.

The :class:`Engine` keeps the staged artifacts (columns -> E -> A -> T-hat
-> propagation scores) synchronous with a community whose records only
grow, recomputing only what the records added since its previous update
invalidate.  Every update is bitwise equal to a cold build of the same
records, in memory or sharded -- see ``repro/engine/engine.py`` for the
contract and ``repro/trust/derive.py`` for the kernel determinism it
rests on.
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
