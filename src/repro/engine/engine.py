"""The staged incremental engine: columns -> E -> A -> T-hat -> propagation.

:class:`Engine` owns the pipeline's staged artifacts and keeps them in
sync with a mutating :class:`repro.community.Community`.  The community's
records only grow, so what changed is read from them: each
:meth:`Engine.update` recomputes only what the records added since the
previous update invalidate:

- **columns** -- the community's own count-keyed cache splices appended
  ratings into its category segments;
- **E** (Step 1) -- :class:`repro.reputation.IncrementalExpertise`
  re-solves only the categories whose review or rating count moved, in
  one call of the same batched kernel a cold fit runs;
- **A** (Step 2) -- rebuilt from the columnar counts (cheap, array-only);
- **T-hat** (Step 3) -- re-derived only on the changed region
  ``(changed A rows x all) | (all x changed E rows)``
  (:meth:`repro.trust.TrustDeriver.derive_region`) and patched into a new
  version of the cached matrix, which stays as it was;
- **propagation** -- reused outright when ``T-hat`` did not move, rerun
  cold otherwise.

The contract, property-tested in ``tests/engine`` on both backends: every
update's artifacts are **bitwise equal** to a cold build on a fresh
replica of the same records.  That works because eq. 5 reads exactly
``A[i, :]`` and ``E[j, :]`` per entry, the derive kernel's per-element
reduction order is shape-independent, and the Step-1 kernel gives every
category the same bits whichever subset of categories it solves -- see
``repro/trust/derive.py`` for the kernel notes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.affinity import AffinityEstimator
from repro.common.arrays import FloatArray, IntArray
from repro.community import Community
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.propagation import PropagationScores, eigen_trust
from repro.reputation import ExpertiseResult
from repro.reputation.estimator import ExpertiseEstimator
from repro.reputation.incremental import IncrementalExpertise
from repro.shard.config import ShardConfig
from repro.shard.matrix import ShardedPairMatrix
from repro.shard.store import ShardStore
from repro.trust import TrustDeriver

__all__ = [
    "Engine",
    "EngineArtifacts",
    "UpdateStats",
    "cold_artifacts",
]


@dataclass(frozen=True)
class UpdateStats:
    """What one :meth:`Engine.update` actually did.

    ``deltas_applied`` is the number of records added since the previous
    update, or since the engine was made.
    """

    deltas_applied: int
    categories_resolved: int
    categories_skipped: int
    pairs_rederived: int
    pairs_reused: int
    propagation_rerun: bool


@dataclass(frozen=True)
class EngineArtifacts:
    """The staged pipeline outputs, all of one community state.

    ``derived`` is a :class:`repro.shard.ShardedPairMatrix` when the
    engine runs with a :class:`repro.shard.ShardConfig`, an in-memory
    :class:`repro.matrix.UserPairMatrix` otherwise; the two compare
    bitwise against each other, so :meth:`differences` works across
    backends.
    """

    expertise_result: ExpertiseResult
    affiliation: UserCategoryMatrix
    derived: UserPairMatrix | ShardedPairMatrix
    scores: PropagationScores

    @property
    def expertise(self) -> UserCategoryMatrix:
        return self.expertise_result.expertise

    def differences(self, other: "EngineArtifacts") -> list[str]:
        """Names of artifacts that are not bitwise identical to ``other``'s."""
        diffs: list[str] = []
        if self.expertise != other.expertise:
            diffs.append("expertise")
        if self.affiliation != other.affiliation:
            diffs.append("affiliation")
        if self.derived != other.derived:
            diffs.append("derived")
        if self.scores.users != other.scores.users or not np.array_equal(
            self.scores.scores_array(), other.scores.scores_array()
        ):
            diffs.append("scores")
        return diffs

    def bitwise_equal(self, other: "EngineArtifacts") -> bool:
        """True when E, A, T-hat and the propagation scores all match."""
        return not self.differences(other)


def _changed_rows(old: FloatArray, new: FloatArray) -> IntArray:
    """Row positions of ``new`` that differ from ``old``, zero-padded.

    ``old`` may be smaller on either axis (append-only growth); absent
    entries compare as 0, matching what a user/category with no activity
    contributes.
    """
    if old.shape == new.shape:
        padded = old
    else:
        padded = np.zeros_like(new)
        padded[: old.shape[0], : old.shape[1]] = old
    return np.nonzero((padded != new).any(axis=1))[0].astype(np.int64)


class Engine:
    """Keeps the full pipeline synchronous with a mutating community.

    Usage::

        engine = Engine(community)
        artifacts = engine.update()      # cold build
        community.add_rating(...)        # the records grow
        artifacts = engine.update()      # incremental: only what changed

    Every update is bitwise equal to a cold build: dirty Step-1 categories
    are solved cold and propagation reruns cold whenever ``T-hat`` moved.
    An update consumes nothing the community holds, so any number of
    engines and trackers can follow one community.

    Parameters
    ----------
    shard_config:
        When set, ``T-hat`` lives in a :class:`repro.shard.ShardedPairMatrix`
        backed by this config's store: cold builds stream shard by shard
        (:meth:`repro.trust.TrustDeriver.derive_sharded`), propagation
        reads each spilled shard once per call, and incremental updates
        patch only the shards an update's derive region touches, without
        materialising the whole matrix.  Each patch returns a new matrix
        version that shares the untouched shards with the previous one;
        the previous version stays readable, so artifacts an earlier
        update returned never change.  A patched shard whose support held
        also shares its CSR structure and keys file, so propagation
        rebuilds no index arrays and a checkpoint (``derived.flush``)
        rewrites only its values; the structures cost 4 B per stored
        entry plus 4 B per row on the heap, outside the spill budget.
        Axis growth (new users or categories) falls back to a full sharded
        re-derive.
    """

    def __init__(
        self, community: Community, *, shard_config: ShardConfig | None = None
    ) -> None:
        self._community = community
        self._tracker = IncrementalExpertise(community)
        self._affinity = AffinityEstimator()
        self._deriver = TrustDeriver()
        self._shard_config = shard_config
        self._shard_store: ShardStore | None = (
            shard_config.make_store() if shard_config is not None else None
        )
        # the version UpdateStats.deltas_applied counts from
        self._cursor = community.version
        self._artifacts: EngineArtifacts | None = None
        self._last_stats: UpdateStats | None = None

    # ------------------------------------------------------------------ status

    @property
    def community(self) -> Community:
        return self._community

    @property
    def artifacts(self) -> EngineArtifacts | None:
        """The artifacts of the last :meth:`update` (``None`` before any)."""
        return self._artifacts

    @property
    def last_stats(self) -> UpdateStats | None:
        """What the last :meth:`update` recomputed vs reused."""
        return self._last_stats

    # ------------------------------------------------------------------ update

    def update(self) -> EngineArtifacts:
        """Bring every staged artifact up to the community's current version."""
        epoch = self._community.version
        deltas_applied = epoch - self._cursor
        with obs.span("engine.update", epoch=epoch, deltas=deltas_applied):
            obs.add("engine.deltas_applied", deltas_applied)
            self._cursor = epoch

            self._community.columns()  # refreshed from the appended records
            expertise_result = self._tracker.refresh()
            resolved = len(self._tracker.last_resolved)
            affiliation = self._affinity.fit(self._community)

            expertise = expertise_result.expertise
            previous = self._artifacts
            if previous is None:
                derived = self._derive_full(affiliation, expertise)
                pairs_reused = 0
            else:
                derived, pairs_reused = self._rederive(previous, affiliation, expertise)
            if previous is not None and derived is previous.derived:
                scores, rerun = previous.scores, False
            else:
                scores, rerun = eigen_trust(derived), True
            stats = UpdateStats(
                deltas_applied=deltas_applied,
                categories_resolved=resolved,
                categories_skipped=len(expertise.categories) - resolved,
                pairs_rederived=derived.num_entries() - pairs_reused if rerun else 0,
                pairs_reused=pairs_reused,
                propagation_rerun=rerun,
            )
            obs.add("engine.derive.pairs_rederived", stats.pairs_rederived)
            obs.add("engine.derive.pairs_reused", stats.pairs_reused)
            artifacts = EngineArtifacts(expertise_result, affiliation, derived, scores)
            self._artifacts = artifacts
            self._last_stats = stats
            return artifacts

    # ------------------------------------------------------------------ stages

    def _rederive(
        self,
        previous: EngineArtifacts,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
    ) -> tuple[UserPairMatrix | ShardedPairMatrix, int]:
        """``T-hat`` for the new ``E`` and ``A``, and how many entries it kept.

        Returns ``previous.derived`` itself when neither moved, a patched
        version when only a small region did, and a full re-derive
        otherwise.  A patch derives the changed region once and hands it
        to the previous matrix, which stays as it was:
        :meth:`repro.matrix.UserPairMatrix.patched` in memory,
        :meth:`repro.shard.ShardedPairMatrix.patch_with` on shards, which
        rewrites only the shards the region touches and shares the rest
        without IO.  Where the region kept the support (almost every
        arriving rating), both share the previous keys and CSR structure
        and copy only the values.
        """
        old_a = previous.affiliation.values_view()
        new_a = affiliation.values_view()
        grew_categories = old_a.shape[1] != new_a.shape[1]
        grew_users = old_a.shape[0] != new_a.shape[0]
        if grew_categories or (self._shard_config is not None and grew_users):
            # a new category extends every reduction in eq. 5 (and the
            # sharded patch cannot grow its axis);
            # re-derive in full rather than reason about padded
            # accumulation orders
            return self._derive_full(affiliation, expertise, previous=previous.derived), 0
        rows = _changed_rows(old_a, new_a)
        cols = _changed_rows(previous.expertise.values_view(), expertise.values_view())
        if rows.size == 0 and cols.size == 0 and not grew_users:
            return previous.derived, previous.derived.num_entries()
        if (rows.size + cols.size) * 2 >= len(affiliation.users):
            # the changed region covers most of the matrix: a plain full
            # derive is cheaper than region + patch and equally bitwise
            return self._derive_full(affiliation, expertise, previous=previous.derived), 0
        region = self._deriver.derive_region(affiliation, expertise, rows=rows, cols=cols)
        if isinstance(previous.derived, ShardedPairMatrix):
            derived, kept, touched = previous.derived.patch_with(region, rows=rows, cols=cols)
            obs.add("engine.shard.shards_patched", touched)
            obs.add("engine.shard.shards_untouched", previous.derived.num_shards - touched)
            return derived, kept
        return previous.derived.patched(affiliation.users, region, rows=rows, cols=cols)

    def _derive_full(
        self,
        affiliation: UserCategoryMatrix,
        expertise: UserCategoryMatrix,
        *,
        previous: UserPairMatrix | ShardedPairMatrix | None = None,
    ) -> UserPairMatrix | ShardedPairMatrix:
        """A full ``T-hat`` build on the configured backend.

        A sharded ``previous`` version is superseded first: the new build
        rewrites payloads in the same store, and ``previous`` must keep
        serving the bytes it was built from.
        """
        if self._shard_config is None:
            return self._deriver.derive(affiliation, expertise)
        if isinstance(previous, ShardedPairMatrix):
            previous.supersede()
        return self._deriver.derive_sharded(
            affiliation,
            expertise,
            layout=self._shard_config.layout_for(len(affiliation.users)),
            store=self._shard_store,
            spill_bytes=self._shard_config.spill_bytes,
        )


def cold_artifacts(community: Community) -> EngineArtifacts:
    """One cold, cache-free pipeline pass -- the engine's reference output.

    Deliberately built from the batch estimators rather than the engine's
    own machinery, so a bitwise comparison against :meth:`Engine.update`
    also re-proves, on the community at hand, that re-solving a subset of
    categories gives the same Step-1 bits as solving all of them.
    """
    expertise_result = ExpertiseEstimator().fit(community)
    affiliation = AffinityEstimator().fit(community)
    derived = TrustDeriver().derive(affiliation, expertise_result.expertise)
    return EngineArtifacts(expertise_result, affiliation, derived, eigen_trust(derived))
