"""Shared numpy array type aliases (and one index helper) for the numeric core.

The strict-typed packages (:mod:`repro.matrix`, :mod:`repro.community`,
:mod:`repro.propagation`, :mod:`repro.reputation`) annotate every array
they construct with an explicit dtype; these aliases name the three dtypes
the kernels actually use so signatures stay readable and ``mypy --strict``
can see through them.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = ["FloatArray", "IntArray", "BoolArray", "AnyArray", "concat_ranges"]

#: 1-D/2-D ``float64`` arrays (values, qualities, reputations, scores).
FloatArray = npt.NDArray[np.float64]

#: ``int64`` index/key arrays (axis positions, flat pair keys, counts).
IntArray = npt.NDArray[np.int64]

#: Boolean masks over an axis.
BoolArray = npt.NDArray[np.bool_]

#: Escape hatch for arrays whose dtype is produced by numpy ops that the
#: stubs type as ``Any`` (e.g. ``np.searchsorted`` boundaries).
AnyArray = npt.NDArray[Any]


def concat_ranges(starts: IntArray, lengths: IntArray) -> IntArray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``.

    Vectorised: the positions of several contiguous segments (e.g. some
    categories' slices of a category-major axis), in segment order.
    """
    offsets = np.cumsum(lengths) - lengths
    return np.asarray(
        np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum())),
        dtype=np.int64,
    )
