"""Structured mutation records: the community's change log.

Every successful :class:`repro.community.Community` mutator appends one
:class:`Delta` to the community's :class:`ChangeLog` (lint rule R7 enforces
this).  Downstream consumers -- :class:`repro.reputation.IncrementalExpertise`
and the staged :class:`repro.engine.Engine` -- subscribe by remembering the
log's ``epoch`` and asking for :meth:`ChangeLog.since` their cursor, instead
of reacting to a blind version bump with a full rebuild.

Epochs are monotonically increasing: the first delta after a log's
starting epoch gets the next one.  An empty community's log starts at
epoch 0.  A community built whole (:meth:`repro.community.Community.from_columns`)
has no subscriber that could hold a cursor into its build, so its log
starts at its record count with nothing to replay: the state of a log
compacted at build time.  The log is append-only and per-community, so a
cursor taken from one community is meaningless on another.

Long-running communities would otherwise accumulate one :class:`Delta`
per mutation forever, so a coordinator that knows every subscriber has
caught up (the staged :class:`repro.engine.Engine` after an update) can
:meth:`ChangeLog.compact` the consumed prefix.  Compaction never renames
epochs -- it only forgets deltas at or below the new :attr:`ChangeLog.floor`
-- and :meth:`since` rejects cursors from before the floor, so a stale
subscriber fails loudly (and should fall back to a full rebuild) rather
than silently missing mutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from repro.common.errors import ValidationError

__all__ = ["Delta", "DeltaKind", "ChangeLog"]

#: What a delta records: the kind of the one entity added.
DeltaKind = Literal["user", "category", "object", "review", "rating", "trust"]

_KINDS: frozenset[str] = frozenset(
    {"user", "category", "object", "review", "rating", "trust"}
)

@dataclass(frozen=True, slots=True)
class Delta:
    """One recorded mutation.

    Attributes
    ----------
    epoch:
        Position in the log (1-based, strictly increasing).
    kind:
        What was added.
    user_id:
        The acting user, where one exists: the registered user, the review
        writer, the rater, or the truster.
    category_id:
        The affected category, where one exists -- this is what dirty-set
        inference keys on (reviews and ratings always carry it).
    target_id:
        The added entity's own id (object/review id, the rated review, or
        the trustee).
    """

    epoch: int
    kind: DeltaKind
    user_id: str | None = None
    category_id: str | None = None
    target_id: str | None = None


class ChangeLog:
    """Append-only log of :class:`Delta` records with monotonic epochs.

    A compacted log keeps only deltas with ``epoch > floor``; epochs are
    global positions and never shift.
    """

    __slots__ = ("_deltas", "_floor")

    def __init__(self, epoch: int = 0) -> None:
        if epoch < 0:
            raise ValidationError(f"a log cannot start at epoch {epoch}")
        self._deltas: list[Delta] = []
        self._floor = epoch

    @property
    def epoch(self) -> int:
        """Epoch of the newest delta (0 when the log is empty)."""
        return self._floor + len(self._deltas)

    @property
    def floor(self) -> int:
        """Oldest epoch still replayable: :meth:`since` accepts cursors
        ``>= floor``.  The starting epoch until the first :meth:`compact`."""
        return self._floor

    def record(
        self,
        kind: DeltaKind,
        *,
        user_id: str | None = None,
        category_id: str | None = None,
        target_id: str | None = None,
    ) -> Delta:
        """Append one delta and return it (its epoch is ``self.epoch``)."""
        if kind not in _KINDS:
            raise ValidationError(f"unknown delta kind {kind!r}")
        delta = Delta(
            epoch=self.epoch + 1,
            kind=kind,
            user_id=user_id,
            category_id=category_id,
            target_id=target_id,
        )
        self._deltas.append(delta)
        return delta

    def since(self, epoch: int) -> tuple[Delta, ...]:
        """All deltas with ``delta.epoch > epoch`` (oldest first).

        ``since(floor)`` replays every retained delta; ``since(self.epoch)``
        is empty.  A cursor ahead of the log is rejected -- it can only
        come from a different community's log -- and a cursor below the
        compaction :attr:`floor` is rejected too, because deltas it never
        saw have been dropped (the caller must resynchronise in full).
        """
        if epoch < self._floor or epoch > self.epoch:
            raise ValidationError(
                f"epoch {epoch} outside this log's range "
                f"[{self._floor}, {self.epoch}]"
            )
        return tuple(self._deltas[epoch - self._floor :])

    def compact(self, upto: int | None = None) -> int:
        """Forget deltas with ``epoch <= upto``; returns how many were dropped.

        ``upto`` defaults to the newest epoch (drop everything).  Only a
        coordinator that knows every subscriber's cursor has passed
        ``upto`` may call this -- a subscriber left behind will have its
        next :meth:`since` rejected and must rebuild from scratch.
        """
        if upto is None:
            upto = self.epoch
        if upto < 0 or upto > self.epoch:
            raise ValidationError(
                f"compaction point {upto} outside this log's range "
                f"[0, {self.epoch}]"
            )
        if upto <= self._floor:
            return 0
        dropped = upto - self._floor
        del self._deltas[:dropped]
        self._floor = upto
        return dropped

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self._deltas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChangeLog(epoch={self.epoch})"
