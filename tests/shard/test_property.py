"""Property tests: the sharded path is bitwise-equal to the in-memory one.

Random communities (affiliation/expertise pairs), random shard layouts
and random spill budgets -- ``derive_sharded`` must equal ``derive``
entry for entry, eigentrust over the sharded matrix must reproduce the
dense scores and iteration count exactly, and ``from_pair_matrix`` must
hold exactly the source matrix's entries.  Random interleavings of
patches, flushes, re-derives and reopens must keep every version's
eigentrust bitwise the dense one, whatever CSR structure and keys files
the versions share.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import LabelIndex, UserCategoryMatrix, UserPairMatrix
from repro.matrix.pair import PairRegion
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


#: One step of a sharded matrix's life (see ``TestVersionHistory``).
_STEPS = ("values", "support", "flush", "supersede", "reopen")


class TestVersionHistory:
    @given(
        st.integers(2, 10),
        st.data(),
        st.sampled_from([None, ENTRY_BYTES, 400]),
        st.lists(st.tuples(st.sampled_from(_STEPS), st.integers(0, 2**31)), max_size=8),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_eigentrust_stays_bitwise_dense_after_every_step(
        self, tmp_path_factory, n, data, spill, steps, seed
    ):
        # repeated cuts give row-less shards
        cuts = data.draw(st.lists(st.integers(0, n), max_size=3).map(sorted), label="cuts")
        layout = ShardLayout(n_rows=n, bounds=(0, *cuts, n))
        users = [f"u{i}" for i in range(n)]
        rng = np.random.default_rng(seed)
        stored = rng.random((n, n)) < 0.5
        dense = np.where(stored, rng.random((n, n)), np.nan)
        store = ShardStore(tmp_path_factory.mktemp("history") / "s")

        def as_flat(values):
            rows, cols = np.nonzero(~np.isnan(values))
            return UserPairMatrix.from_arrays(users, rows, cols, values[rows, cols])

        sharded = ShardedPairMatrix.from_pair_matrix(
            as_flat(dense), layout, store=store, spill_bytes=spill
        )
        history = [(sharded, dense)]
        for step, step_seed in steps:
            step_rng = np.random.default_rng(step_seed)
            if step in ("values", "support"):
                rows = np.unique(step_rng.integers(0, n, step_rng.integers(1, 3)))
                cols = np.unique(step_rng.integers(0, n, step_rng.integers(0, 2)))
                in_region = np.zeros((n, n), dtype=bool)
                in_region[rows, :] = True
                in_region[:, cols] = True
                new = np.where(in_region, step_rng.random((n, n)), dense)
                new[in_region & np.isnan(dense)] = np.nan
                if step == "support":
                    i, j = step_rng.integers(0, n, 2)
                    in_region[i, :] = True
                    rows = np.union1d(rows, [i])
                    new[i, j] = np.nan if not np.isnan(dense[i, j]) else 0.5
                r, c = np.nonzero(in_region & ~np.isnan(new))
                region = PairRegion.from_entries(
                    LabelIndex(users), rows=rows, cols=cols, sources=r, targets=c,
                    values=new[r, c],
                )
                sharded, _, _ = sharded.patch_with(region)
                dense = new
            elif step == "flush":
                sharded.flush(epoch=len(history))
                assert store.verify() == []
            elif step == "supersede":
                # a full re-derive into the same store
                sharded.supersede()
                sharded = ShardedPairMatrix.from_pair_matrix(
                    as_flat(dense), layout, store=store, spill_bytes=spill
                )
            else:  # reopen a checkpoint
                sharded.flush(epoch=len(history))
                sharded.supersede()
                sharded = ShardedPairMatrix.open(store)
            history.append((sharded, dense))

            flat = as_flat(dense)
            assert sharded == flat
            reference = eigen_trust(flat)
            streamed = eigen_trust(sharded)
            assert streamed.scores_array().tobytes() == reference.scores_array().tobytes()
            assert streamed.iterations == reference.iterations
            assert streamed.residual == reference.residual

        sharded.flush(epoch=len(history))
        assert store.verify() == []
        assert ShardedPairMatrix.open(store) == as_flat(dense)
        # a version once handed out never changes
        for version, values in history:
            assert version == as_flat(values)
