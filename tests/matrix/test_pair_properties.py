"""Model-based property tests: UserPairMatrix against a plain-dict model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import LabelIndex, UserPairMatrix
from repro.matrix.pair import PairRegion

USERS = [f"u{i}" for i in range(5)]
#: The axis a ``patched`` merge grows onto (one user appended).
GROWN = LabelIndex(USERS + ["u5"])

#: pairs on the 5-user axis, many given more than once; explicit zeros are
#: stored pairs and must read back as 0.0
triples = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.one_of(
            st.just(0.0),
            st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
        ),
    ),
    max_size=80,
)


def build(axis, cells):
    """``from_arrays`` over ``(row, col, value)`` cells, in the order given."""
    return UserPairMatrix.from_arrays(
        axis, [i for i, _, _ in cells], [j for _, j, _ in cells], [v for _, _, v in cells]
    )


def last_write_wins(labels, cells):
    """The dict model: each pair holds the last value given for it."""
    model: dict[tuple[str, str], float] = {}
    for i, j, value in cells:
        model[(labels[i], labels[j])] = float(value)
    return model


def assert_point_reads_match(matrix, model):
    """``get`` / ``contains`` on every pair of the axis agree with ``model``."""
    sentinel = -12345.0
    for source in matrix.users.labels:
        for target in matrix.users.labels:
            expected = model.get((source, target), sentinel)
            assert matrix.get(source, target, sentinel) == expected
            assert matrix.contains(source, target) == ((source, target) in model)


class TestPairMatrixAgainstDictModel:
    @given(triples)
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_model(self, cells):
        matrix = build(USERS, cells)
        model = last_write_wins(USERS, cells)

        assert matrix.num_entries() == len(model)
        assert matrix.support() == set(model)
        assert {(s, t): v for s, t, v in matrix.entries()} == model
        assert_point_reads_match(matrix, model)
        # the label constructor keeps the last value too
        labelled = [(USERS[i], USERS[j], float(v)) for i, j, v in cells]
        assert UserPairMatrix.from_pairs(USERS, labelled) == matrix
        # row views agree
        for source in USERS:
            expected_row = {t: v for (s, t), v in model.items() if s == source}
            assert matrix.row(source) == expected_row
            assert matrix.row_size(source) == len(expected_row)
        # csr round trip preserves everything stored (zeros kept explicitly)
        rebuilt = UserPairMatrix.from_csr(matrix.to_csr(), matrix.users, keep_zeros=True)
        assert rebuilt == matrix
        rebuilt = UserPairMatrix.from_csr(matrix.to_csr(), matrix.users)
        assert rebuilt.support() == {pair for pair, v in model.items() if v != 0.0}

    @given(triples)
    @settings(max_examples=50, deadline=None)
    def test_density_consistent(self, cells):
        matrix = build(USERS, cells)
        assert matrix.density() == len(last_write_wins(USERS, cells)) / (5 * 4)


region_entries = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.0, 0.5, 2.0])),
    max_size=12,
)

positions = st.lists(st.integers(0, 5), max_size=3, unique=True)


class TestPointReadsAfterWrites:
    @given(triples, region_entries, positions, positions)
    @settings(max_examples=100, deadline=None)
    def test_get_and_contains_match_entries(self, cells, region, rows, cols):
        base = build(USERS, cells)
        model = last_write_wins(USERS, cells)
        assert_point_reads_match(base, model)

        # one patched merge onto a grown axis: the region holds only pairs
        # in the patched rows or columns, as the merge requires, and may
        # give a pair twice
        region = [(i, j, v) for i, j, v in region if i in rows or j in cols]
        labels = GROWN.labels
        patched, _ = base.patched(
            GROWN,
            PairRegion.from_entries(
                GROWN,
                rows=np.asarray(rows, dtype=np.int64),
                cols=np.asarray(cols, dtype=np.int64),
                sources=[i for i, _, _ in region],
                targets=[j for _, j, _ in region],
                values=[v for _, _, v in region],
            ),
        )
        expected = {
            (s, t): v
            for (s, t), v in model.items()
            if GROWN.position(s) not in rows and GROWN.position(t) not in cols
        }
        expected.update(last_write_wins(labels, region))
        assert_point_reads_match(patched, expected)
        assert_point_reads_match(base, model)


#: A 6-user axis for the patch properties; the dense oracle is 6 x 6.
PATCH_AXIS = LabelIndex([f"u{i}" for i in range(6)])

patch_values = st.one_of(
    st.just(0.0), st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
)
cells = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), patch_values), max_size=24
)
patch_positions = st.lists(st.integers(0, 5), max_size=3, unique=True)


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
    @given(cells, patch_positions, patch_positions, st.booleans(), cells)
    @settings(max_examples=150, deadline=None)
    def test_patch_matches_dense_oracle_and_versions_stay_apart(
        self, base_cells, rows, cols, keep_support, changes
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
        region = PairRegion.from_entries(
            PATCH_AXIS,
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            sources=r,
            targets=c,
            values=new_values[r, c],
        )

        before = snapshot(base)
        patched, kept = base.patched(PATCH_AXIS, region)

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

        # whatever a holder is handed is a copy or read-only: writing every
        # copy leaves both versions, and the CSRs they handed out, as they were
        held = [snapshot(base), snapshot(patched)]
        for version in (base, patched):
            csr = version.csr()
            for array in (version._keys, version._vals, csr.data, csr.indices, csr.indptr):
                assert not array.flags.writeable
            for array in (version.support_keys(), version.values(), *version.entries_arrays()):
                array[...] = 7
        assert_snapshot(base, held[0])
        assert_snapshot(patched, held[1])
