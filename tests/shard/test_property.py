"""Property tests: the sharded path is bitwise-equal to the in-memory one.

Random communities (affiliation/expertise pairs), random shard layouts
and random spill budgets -- ``derive_sharded`` must equal ``derive``
entry for entry, eigentrust over the sharded matrix must reproduce the
dense scores and iteration count exactly, and ``from_pair_matrix`` must
hold exactly the source matrix's entries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.propagation import eigen_trust
from repro.shard import ShardLayout, ShardStore
from repro.shard.matrix import ENTRY_BYTES, ShardedPairMatrix
from repro.trust import TrustDeriver


@st.composite
def communities(draw):
    """A random (affiliation, expertise) pair on a shared user axis."""
    num_users = draw(st.integers(2, 12))
    num_categories = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    density = draw(st.floats(0.1, 1.0))

    def unit_matrix():
        values = rng.random((num_users, num_categories))
        return values * (rng.random((num_users, num_categories)) < density)

    users = [f"u{i}" for i in range(num_users)]
    categories = [f"c{j}" for j in range(num_categories)]
    A = UserCategoryMatrix(users, categories, unit_matrix())
    E = UserCategoryMatrix(users, categories, unit_matrix())
    return A, E


@st.composite
def pair_matrices(draw):
    """A random pair matrix whose stored entries include explicit zeros."""
    num_users = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    stored = rng.random((num_users, num_users)) < draw(st.floats(0.0, 1.0))
    values = rng.random((num_users, num_users))
    values[rng.random((num_users, num_users)) < 0.3] = 0.0
    rows, cols = np.nonzero(stored)
    users = [f"u{i}" for i in range(num_users)]
    return UserPairMatrix.from_arrays(users, rows, cols, values[rows, cols])


def spill_budgets():
    return st.one_of(st.none(), st.just(ENTRY_BYTES), st.integers(1, 10_000))


@st.composite
def sharding(draw):
    """A (num_shards, spill_bytes | None) configuration."""
    num_shards = draw(st.integers(1, 6))
    spill = draw(spill_budgets())
    return num_shards, spill


class TestDeriveSharded:
    @given(communities(), sharding())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_derive(self, matrices, config):
        A, E = matrices
        num_shards, spill = config
        deriver = TrustDeriver()
        dense = deriver.derive(A, E)
        sharded = deriver.derive_sharded(
            A, E, num_shards=num_shards, spill_bytes=spill
        )
        assert sharded == dense
        for a, b in zip(sharded.entries_arrays(), dense.entries_arrays()):
            np.testing.assert_array_equal(a, b)

    @given(communities(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_layout_bitwise_equal(self, matrices, data):
        """Uneven, hand-drawn shard bounds must not change a single bit."""
        A, E = matrices
        n = len(A.users)
        cuts = data.draw(
            st.lists(st.integers(0, n), max_size=4).map(sorted), label="cuts"
        )
        bounds = tuple(dict.fromkeys([0, *cuts, n]))
        layout = ShardLayout(n_rows=n, bounds=bounds)
        deriver = TrustDeriver()
        dense = deriver.derive(A, E)
        assert deriver.derive_sharded(A, E, layout=layout) == dense

    @given(communities(), sharding())
    @settings(max_examples=30, deadline=None)
    def test_flush_open_round_trip_bitwise(self, tmp_path_factory, matrices, config):
        A, E = matrices
        num_shards, spill = config
        store = ShardStore(tmp_path_factory.mktemp("prop") / "s")
        sharded = TrustDeriver().derive_sharded(
            A, E, num_shards=num_shards, store=store, spill_bytes=spill
        )
        sharded.flush()
        assert ShardedPairMatrix.open(store) == TrustDeriver().derive(A, E)


class TestEigentrustSharded:
    @given(communities(), sharding())
    @settings(max_examples=40, deadline=None)
    def test_scores_and_iterations_match_dense(self, matrices, config):
        A, E = matrices
        num_shards, spill = config
        deriver = TrustDeriver()
        dense = deriver.derive(A, E)
        sharded = deriver.derive_sharded(
            A, E, num_shards=num_shards, spill_bytes=spill
        )
        reference = eigen_trust(dense)
        streamed = eigen_trust(sharded)
        np.testing.assert_array_equal(
            streamed.scores_array(), reference.scores_array()
        )
        assert streamed.iterations == reference.iterations
        assert streamed.converged == reference.converged


class TestFromPairMatrix:
    @given(pair_matrices(), st.data(), spill_budgets())
    @settings(max_examples=60, deadline=None)
    def test_holds_the_source_and_round_trips_bitwise(
        self, tmp_path_factory, matrix, data, spill
    ):
        n = len(matrix.users)
        # repeated cuts give row-less shards
        cuts = data.draw(
            st.lists(st.integers(0, n), max_size=4).map(sorted), label="cuts"
        )
        layout = ShardLayout(n_rows=n, bounds=(0, *cuts, n))
        store = ShardStore(tmp_path_factory.mktemp("from_pair") / "s")
        sharded = ShardedPairMatrix.from_pair_matrix(
            matrix, layout, store=store, spill_bytes=spill
        )
        assert sharded == matrix
        for shard in range(sharded.num_shards):
            keys, _ = sharded.shard_entries(shard)
            lo, hi = layout.key_range(shard, n)
            assert np.all((np.asarray(keys) >= lo) & (np.asarray(keys) < hi))

        sharded.flush()
        assert store.verify() == []
        reopened = ShardedPairMatrix.open(store)
        assert reopened.users == matrix.users
        assert reopened.layout == layout
        assert reopened.support_keys().tobytes() == matrix.support_keys().tobytes()
        assert reopened.values().tobytes() == matrix.values().tobytes()
