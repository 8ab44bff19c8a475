"""Shared numpy array type aliases (and a few index helpers) for the numeric core.

The strict-typed packages (:mod:`repro.matrix`, :mod:`repro.community`,
:mod:`repro.propagation`, :mod:`repro.reputation`) annotate every array
they construct with an explicit dtype; these aliases name the three dtypes
the kernels actually use so signatures stay readable and ``mypy --strict``
can see through them.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

__all__ = [
    "FloatArray",
    "IntArray",
    "BoolArray",
    "AnyArray",
    "concat_ranges",
    "first_true",
    "lookup",
    "repeats",
]

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


def repeats(keys: IntArray) -> BoolArray:
    """``True`` where a key already occurred at an earlier position.

    The first occurrence of every key is ``False``: the mask a duplicate
    check reads, and ``~repeats(keys)`` keeps the first of each key.
    """
    _, first = np.unique(keys, return_index=True)
    mask = np.ones(keys.size, dtype=bool)
    mask[first] = False
    return mask


def first_true(mask: BoolArray) -> int | None:
    """The position of the first ``True`` in ``mask`` (``None`` if none)."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def lookup(ids: Sequence[str], index: dict[str, int]) -> IntArray:
    """``index[id]`` of every id as an ``int64`` array, ``-1`` where it has none."""
    return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
