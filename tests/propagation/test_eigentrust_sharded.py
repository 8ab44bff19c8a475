"""Tests for out-of-core EigenTrust over a ``ShardedPairMatrix``."""

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.matrix.labels import LabelIndex
from repro.propagation import eigen_trust
from repro.shard.matrix import ENTRY_BYTES, ShardedPairMatrix


def matching_webs(num_users=24, seed=2, density=0.3, num_shards=3, spill_bytes=None):
    """A matching (UserPairMatrix, ShardedPairMatrix) trust web pair."""
    users = LabelIndex([f"u{i}" for i in range(num_users)])
    rng = np.random.default_rng(seed)
    dense = rng.random((num_users, num_users)) * (
        rng.random((num_users, num_users)) < density
    )
    np.fill_diagonal(dense, 0.0)
    rows, cols = np.nonzero(dense)
    flat = UserPairMatrix.from_arrays(users, rows, cols, dense[rows, cols])
    sharded = ShardedPairMatrix.from_pair_matrix(
        flat, num_shards=num_shards, spill_bytes=spill_bytes
    )
    return flat, sharded


def assert_scores_identical(reference, streamed):
    np.testing.assert_array_equal(
        streamed.scores_array(), reference.scores_array()
    )
    assert streamed.iterations == reference.iterations
    assert streamed.converged == reference.converged


class TestParity:
    @pytest.mark.parametrize("num_shards", [1, 3, 5])
    def test_bitwise_equal_to_dense(self, num_shards):
        flat, sharded = matching_webs(num_shards=num_shards)
        assert_scores_identical(eigen_trust(flat), eigen_trust(sharded))

    def test_spilled_store_path_identical(self):
        flat, sharded = matching_webs(spill_bytes=ENTRY_BYTES)
        assert sharded.store is not None
        assert_scores_identical(eigen_trust(flat), eigen_trust(sharded))

    def test_dangling_users_identical(self):
        """Users with no outgoing edges exercise the dangling-mass term."""
        users = LabelIndex(["a", "b", "c", "d"])
        flat = UserPairMatrix.from_pairs(
            users, [("a", "b", 1.0), ("b", "c", 0.5)]  # c and d dangle
        )
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=2)
        reference = eigen_trust(flat)
        assert_scores_identical(reference, eigen_trust(sharded))
        assert reference.converged

    def test_empty_shards_identical(self):
        """Shards with no entries at all are skipped, not mis-summed."""
        users = LabelIndex([f"u{i}" for i in range(9)])
        flat = UserPairMatrix.from_pairs(
            users, [("u0", "u8", 1.0), ("u8", "u0", 1.0)]  # middle shard is empty at 3 shards
        )
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=3)
        assert_scores_identical(eigen_trust(flat), eigen_trust(sharded))

    def test_pretrust_identical(self):
        flat, sharded = matching_webs()
        pretrust = {"u0": 0.5, "u3": 0.5}
        assert_scores_identical(
            eigen_trust(flat, pretrust=pretrust),
            eigen_trust(sharded, pretrust=pretrust),
        )


class TestValidation:
    def test_negative_weights_rejected(self):
        users = LabelIndex(["a", "b", "c", "d"])
        flat = UserPairMatrix.from_pairs(
            users, [("c", "d", -0.5)]  # negative entry in the second shard
        )
        sharded = ShardedPairMatrix.from_pair_matrix(flat, num_shards=2)
        with pytest.raises(ValidationError, match="non-negative"):
            eigen_trust(sharded)

    def test_empty_matrix_scores_all_users(self):
        users = LabelIndex(["a", "b"])
        scores = eigen_trust(ShardedPairMatrix(users, num_shards=2))
        assert scores.scores_array().shape == (2,)
        assert float(scores.scores_array().sum()) == pytest.approx(1.0)


class TestShardIO:
    def test_spilled_payloads_read_once_and_nothing_written(self):
        """One call reads each stored shard's keys and values at most once.

        A spill maps the files it wrote, so the spilled matrix reads
        nothing; the same store reopened has mapped nothing yet, so there
        the call reads every payload.
        """
        _, spilled = matching_webs(num_users=40, num_shards=4, spill_bytes=ENTRY_BYTES)
        spilled.flush()
        reopened = ShardedPairMatrix.open(spilled.store)
        for sharded, reads in ((spilled, 0), (reopened, 2 * reopened.num_shards)):
            recorder = obs.Recorder()
            with obs.use_recorder(recorder):
                scores = eigen_trust(sharded)
            counters = recorder.counters
            assert scores.iterations > 2
            assert counters.get("shard.write.files", 0) == 0
            assert counters.get("shard.read.files", 0) == reads
            assert (
                counters["propagation.eigentrust.shard_sweeps"]
                == scores.iterations * sharded.num_shards
            )

    def test_in_memory_input_counts_no_shard_sweeps(self):
        flat, _ = matching_webs()
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            eigen_trust(flat)
        assert "propagation.eigentrust.shard_sweeps" not in recorder.counters
