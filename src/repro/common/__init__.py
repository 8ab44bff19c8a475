"""Shared low-level utilities used by every subsystem.

This package deliberately contains nothing domain specific: error types,
deterministic random-number helpers, validation helpers and identifier
conventions.  Higher layers (:mod:`repro.community`, :mod:`repro.reputation`,
...) build on top of it.
"""

from repro.common.arrays import AnyArray, BoolArray, FloatArray, IntArray
from repro.common.contracts import (
    ArraySpec,
    ContractError,
    array_spec,
    checked_arrays,
    contracts_enabled,
)
from repro.common.errors import (
    ConfigError,
    ConvergenceError,
    DatasetError,
    IntegrityError,
    ReproError,
    ValidationError,
)
from repro.common.identifiers import (
    IdAllocator,
    category_id,
    object_id,
    review_id,
    user_id,
)
from repro.common.rng import RngFactory, spawn_rng
from repro.common.validation import (
    require,
    require_fraction,
    require_in_range,
    require_non_negative,
    require_positive,
    require_type,
)

__all__ = [
    "AnyArray",
    "BoolArray",
    "FloatArray",
    "IntArray",
    "ArraySpec",
    "ContractError",
    "array_spec",
    "checked_arrays",
    "contracts_enabled",
    "ReproError",
    "ValidationError",
    "IntegrityError",
    "ConvergenceError",
    "DatasetError",
    "ConfigError",
    "RngFactory",
    "spawn_rng",
    "require",
    "require_type",
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_fraction",
    "IdAllocator",
    "user_id",
    "category_id",
    "object_id",
    "review_id",
]
