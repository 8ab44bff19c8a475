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


#: A 6-user axis for the patch properties; the dense oracle is 6 x 6.
PATCH_AXIS = LabelIndex([f"u{i}" for i in range(6)])

patch_values = st.one_of(
    st.just(0.0), st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
)
cells = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), patch_values), max_size=24
)
patch_positions = st.lists(st.integers(0, 5), max_size=3, unique=True)
version_writes = st.lists(
    st.tuples(
        st.sampled_from(["set", "set_block", "accumulate", "discard"]),
        st.integers(0, 5),
        st.integers(0, 5),
        patch_values,
    ),
    min_size=1,
    max_size=4,
)


def dense_state(matrix):
    """``(stored mask, values)`` of ``matrix`` as dense 6 x 6 arrays."""
    rows, cols, vals = matrix.entries_arrays()
    stored = np.zeros((6, 6), dtype=bool)
    values = np.zeros((6, 6))
    stored[rows, cols] = True
    values[rows, cols] = vals
    return stored, values


def snapshot(matrix):
    """Everything a holder of ``matrix`` can read, copied."""
    return matrix.support_keys(), matrix.values(), matrix.csr().toarray()


def assert_snapshot(matrix, expected):
    for got, want in zip(snapshot(matrix), expected):
        assert np.array_equal(got, want)


class TestPatchedVersions:
    @given(
        cells,
        patch_positions,
        patch_positions,
        st.booleans(),
        cells,
        st.booleans(),
        version_writes,
    )
    @settings(max_examples=150, deadline=None)
    def test_patch_matches_dense_oracle_and_versions_stay_apart(
        self, base_cells, rows, cols, keep_support, changes, write_base, writes
    ):
        n = len(PATCH_AXIS)
        base = UserPairMatrix.from_arrays(
            PATCH_AXIS,
            [i for i, _, _ in base_cells],
            [j for _, j, _ in base_cells],
            [v for _, _, v in base_cells],
        )
        stored, values = dense_state(base)
        in_region = np.zeros((n, n), dtype=bool)
        in_region[rows, :] = True
        in_region[:, cols] = True

        # the recomputed region: new values at the base's in-region keys,
        # and, for a support change, in-region cells added or dropped
        new_stored = stored.copy()
        new_values = values.copy()
        for k, (i, j, v) in enumerate(changes):
            if not in_region[i, j]:
                continue
            if keep_support:
                if stored[i, j]:
                    new_values[i, j] = v
            else:
                new_stored[i, j] = not new_stored[i, j] if k % 2 else True
                new_values[i, j] = v
        new_values[~new_stored] = 0.0
        r, c = np.nonzero(new_stored & in_region)
        region = UserPairMatrix.from_arrays(PATCH_AXIS, r, c, new_values[r, c])

        before = snapshot(base)
        patched, kept = base.patched(
            PATCH_AXIS,
            region,
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
        )

        # the dense scatter oracle, bitwise
        got_stored, got_values = dense_state(patched)
        assert np.array_equal(got_stored, new_stored)
        assert np.array_equal(got_values, new_values)
        assert kept == int((stored & ~in_region).sum())
        assert_snapshot(base, before)

        # the key array (and the CSR structure) is shared exactly when the
        # support held, and whatever is shared is read-only
        support_kept = bool(np.array_equal(new_stored, stored))
        assert (patched._keys is base._keys) == support_kept
        if support_kept:
            assert not base._keys.flags.writeable
            for name in ("indices", "indptr"):
                shared = getattr(patched.csr(), name)
                # an empty array shares no memory with anything
                assert np.shares_memory(shared, getattr(base.csr(), name)) or not shared.size
                assert not shared.flags.writeable
            assert not patched.csr().data.flags.writeable

        # a write to either version leaves the other as it was, and leaves
        # the CSR the written version handed out before
        target, other = (base, patched) if write_base else (patched, base)
        other.csr()
        held = snapshot(other)
        handed_out = target.csr()
        handed_out_dense = handed_out.toarray()
        apply_writes(target, writes)
        assert_snapshot(other, held)
        assert np.array_equal(handed_out.toarray(), handed_out_dense)
