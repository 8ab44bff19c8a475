"""``repro.obs`` -- tracing, kernel metrics and convergence telemetry.

The instrumented kernels call the module-level helpers below; they
delegate to the process's *active* recorder, which defaults to the
zero-overhead :class:`NullRecorder`.  A caller that wants a trace swaps a
:class:`Recorder` in for the duration of the traced work::

    from repro import obs

    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        artifacts = run_pipeline(profile, seed)
    recorder.write("trace.json")

and renders it afterwards with ``python -m repro.obs.report trace.json``.

Instrumentation idioms
----------------------
- ``with obs.span("step1.refresh", users=n):`` -- hierarchical timing;
  spans must be entered via the context manager (lint rule R6).
- ``obs.add("community.columns.hit")`` -- monotonic counters.
- ``obs.observe("step1.sweeps", n)`` -- value histograms.
- ``obs.convergence("propagation.eigentrust", iterations=i, ...)`` --
  per-kernel convergence records.
- ``if obs.tracing_active():`` -- gate per-item telemetry loops so the
  null-recorder path never pays them.

``REPRO_TRACE=0`` (read once at import, like ``REPRO_CHECKS``) pins the
null recorder: :func:`set_recorder` / :func:`use_recorder` become no-ops
and instrumentation can never be switched on in that process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.recorder import (
    TRACE_ENABLED,
    Attr,
    ConvergenceRecord,
    NullRecorder,
    Recorder,
    SpanContext,
    SpanRecord,
    TraceRecorder,
    convergence_failures,
)

__all__ = [
    "TRACE_ENABLED",
    "ConvergenceRecord",
    "NullRecorder",
    "Recorder",
    "SpanContext",
    "SpanRecord",
    "TraceRecorder",
    "add",
    "convergence",
    "convergence_failures",
    "get_recorder",
    "observe",
    "set_recorder",
    "span",
    "tracing_active",
    "use_recorder",
]

_NULL = NullRecorder()
_active: TraceRecorder = _NULL


def get_recorder() -> TraceRecorder:
    """The currently active recorder (the null recorder by default)."""
    return _active


def set_recorder(recorder: TraceRecorder | None) -> None:
    """Install ``recorder`` as the active recorder (``None`` resets).

    A no-op when tracing was compiled out with ``REPRO_TRACE=0``.
    """
    global _active
    if not TRACE_ENABLED:
        return
    _active = recorder if recorder is not None else _NULL


@contextmanager
def use_recorder(recorder: TraceRecorder | None) -> Iterator[TraceRecorder]:
    """Scoped :func:`set_recorder`: restores the previous recorder on exit."""
    previous = _active
    set_recorder(recorder)
    try:
        yield _active
    finally:
        set_recorder(previous)


def tracing_active() -> bool:
    """Whether the active recorder actually records (gate telemetry loops)."""
    return _active.active


def span(name: str, **attributes: Attr) -> SpanContext:
    """A context manager timing one span on the active recorder."""
    # repro: allow(R6): delegation shim -- the caller's with-statement enters it
    return _active.span(name, **attributes)


def add(name: str, amount: int | float = 1) -> None:
    """Increment a monotonic counter on the active recorder."""
    _active.add(name, amount)


def observe(name: str, value: float) -> None:
    """Record one histogram observation on the active recorder."""
    _active.observe(name, value)


def convergence(
    kernel: str,
    *,
    iterations: int,
    residual: float,
    tolerance: float,
    converged: bool,
    **attributes: Attr,
) -> None:
    """Record one kernel convergence outcome on the active recorder."""
    _active.convergence(
        kernel,
        iterations=iterations,
        residual=residual,
        tolerance=tolerance,
        converged=converged,
        **attributes,
    )
