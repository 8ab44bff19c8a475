"""Model-based property tests: UserPairMatrix against a plain-dict model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import LabelIndex, UserPairMatrix

USERS = [f"u{i}" for i in range(5)]
#: The axis a ``patched`` merge grows onto (one user appended).
GROWN = LabelIndex(USERS + ["u5"])

operations = st.lists(
    st.tuples(
        st.sampled_from(["set", "accumulate", "discard"]),
        st.integers(0, 4),
        st.integers(0, 4),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=80,
)


class TestPairMatrixAgainstDictModel:
    @given(operations)
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_model(self, ops):
        matrix = UserPairMatrix(USERS)
        model: dict[tuple[str, str], float] = {}

        for op, i, j, value in ops:
            source, target = USERS[i], USERS[j]
            if op == "set":
                matrix.set(source, target, value)
                model[(source, target)] = float(value)
            elif op == "accumulate":
                matrix.accumulate(source, target, value)
                model[(source, target)] = model.get((source, target), 0.0) + float(value)
            else:
                matrix.discard(source, target)
                model.pop((source, target), None)

        assert matrix.num_entries() == len(model)
        assert matrix.support() == set(model)
        for (source, target), expected in model.items():
            assert matrix.get(source, target) == pytest.approx(expected)
            assert matrix.contains(source, target)
        # row views agree
        for source in USERS:
            expected_row = {
                t: v for (s, t), v in model.items() if s == source
            }
            actual_row = matrix.row(source)
            assert set(actual_row) == set(expected_row)
            for target, v in expected_row.items():
                assert actual_row[target] == pytest.approx(v)
        # csr round trip preserves everything stored (zeros kept explicitly)
        rebuilt = UserPairMatrix.from_csr(matrix.to_csr(), matrix.users, keep_zeros=True)
        non_zero_support = {pair for pair, v in model.items() if v != 0.0}
        assert non_zero_support <= rebuilt.support() <= set(model)

    @given(operations)
    @settings(max_examples=50, deadline=None)
    def test_density_consistent(self, ops):
        matrix = UserPairMatrix(USERS)
        for op, i, j, value in ops:
            if op == "set":
                matrix.set(USERS[i], USERS[j], value)
        assert matrix.density() == pytest.approx(matrix.num_entries() / (5 * 4))


writes = st.lists(
    st.tuples(
        st.sampled_from(["set", "set_block", "accumulate", "discard"]),
        st.integers(0, 5),
        st.integers(0, 5),
        # explicit zeros are stored pairs and must read back as 0.0
        st.one_of(
            st.just(0.0),
            st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
        ),
    ),
    max_size=30,
)

region_entries = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.0, 0.5, 2.0])),
    max_size=12,
)

positions = st.lists(st.integers(0, 5), max_size=3, unique=True)


def apply_writes(matrix, ops):
    """Apply ``ops`` with a read after each, so every write follows a read."""
    labels = matrix.users.labels
    for op, i, j, value in ops:
        source, target = labels[i % len(labels)], labels[j % len(labels)]
        if op == "set":
            matrix.set(source, target, value)
        elif op == "set_block":
            matrix.set_block([i % len(labels)], [j % len(labels)], [value])
        elif op == "accumulate":
            matrix.accumulate(source, target, value)
        else:
            matrix.discard(source, target)
        matrix.get(target, source)


class TestPointReadsAfterWrites:
    @given(writes, region_entries, positions, positions, writes)
    @settings(max_examples=100, deadline=None)
    def test_get_and_contains_match_entries(self, before, region, rows, cols, after):
        matrix = UserPairMatrix(USERS)
        apply_writes(matrix, before)

        # one patched merge onto a grown axis: the region holds only pairs
        # in the patched rows or columns, as the merge requires
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        region = [(i, j, v) for i, j, v in region if i in rows or j in cols]
        patch = UserPairMatrix.from_arrays(
            GROWN,
            [i for i, _, _ in region],
            [j for _, j, _ in region],
            [v for _, _, v in region],
        )
        matrix.get("u0", "u1")
        matrix, _ = matrix.patched(GROWN, patch, rows=rows, cols=cols)
        apply_writes(matrix, after)

        stored = {(s, t): v for s, t, v in matrix.entries()}
        sentinel = -12345.0
        for source in GROWN.labels:
            for target in GROWN.labels:
                expected = stored.get((source, target), sentinel)
                assert matrix.get(source, target, sentinel) == expected
                assert matrix.contains(source, target) == ((source, target) in stored)
