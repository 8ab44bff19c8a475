"""Exception hierarchy for the ``repro`` library.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class.  Subclasses mark
*which layer* failed:

- :class:`ValidationError` -- a caller passed an out-of-contract argument.
- :class:`IntegrityError` -- a community record broke an integrity rule
  (duplicate key, reference to an unknown record, a second review of one
  object by one writer, a self-rating).
- :class:`ConvergenceError` -- an iterative solver exhausted its iteration
  budget without reaching its tolerance.
- :class:`DatasetError` -- a dataset file or generator configuration was
  malformed.
- :class:`ConfigError` -- an experiment/benchmark configuration was
  inconsistent.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument violated the documented contract of a public API."""


class IntegrityError(ReproError):
    """A community record broke a key, reference or domain rule."""


class ConvergenceError(ReproError):
    """An iterative fixed-point computation failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        The final residual (L-infinity change between sweeps).
    tolerance:
        The tolerance that was requested.
    """

    def __init__(self, message: str, *, iterations: int, residual: float, tolerance: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.tolerance = tolerance


class DatasetError(ReproError):
    """A dataset file was malformed or a generator profile is unusable."""


class ConfigError(ReproError):
    """An experiment or benchmark configuration is internally inconsistent."""
