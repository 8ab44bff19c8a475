"""The values-only check of a region patch, on both backends.

Each case derives ``T-hat`` in full for a ``before`` state, derives the
changed region of an ``after`` state, and patches it in memory
(:meth:`UserPairMatrix.patched`) and on shards
(:meth:`ShardedPairMatrix.patch_with`).  Both must equal a full derive of
``after`` bit for bit, and the patch counters say whether the support was
taken as held (``values_only``) or merged.
"""

import numpy as np
import pytest

from repro import obs
from repro.community import Review
from repro.datasets import CommunityProfile, generate_community
from repro.engine import Engine, clone_community, cold_artifacts, split_rating_stream
from repro.matrix import UserCategoryMatrix
from repro.obs.recorder import Recorder
from repro.shard import ShardConfig
from repro.shard.matrix import ShardedPairMatrix
from repro.trust import TrustDeriver

USERS = [f"u{i}" for i in range(6)]
CATEGORIES = ["c0", "c1"]


def state(affinity, expertise):
    return (
        UserCategoryMatrix(USERS, CATEGORIES, np.array(affinity, dtype=float)),
        UserCategoryMatrix(USERS, CATEGORIES, np.array(expertise, dtype=float)),
    )


def patch_both(before, after, *, rows, cols):
    """The patch counters of each backend; both results must be a full derive's.

    The region is derived for the categories whose expertise moved.
    """
    deriver = TrustDeriver()
    base = deriver.derive(*before)
    expected = deriver.derive(*after)
    moved = before[1].values_view() != after[1].values_view()
    region = deriver.derive_region(
        *after,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        categories=np.flatnonzero(moved.any(axis=0)),
    )
    counters = {}
    recorder = Recorder()
    with obs.use_recorder(recorder):
        patched, kept = base.patched(expected.users, region)
    assert patched.support_keys().tobytes() == expected.support_keys().tobytes()
    assert patched.values().tobytes() == expected.values().tobytes()
    counters.update(recorder.counters)

    sharded = ShardedPairMatrix.from_pair_matrix(base, num_shards=2)
    recorder = Recorder()
    with obs.use_recorder(recorder):
        sharded_patched, sharded_kept, _ = sharded.patch_with(region)
    assert sharded_patched.support_keys().tobytes() == expected.support_keys().tobytes()
    assert sharded_patched.values().tobytes() == expected.values().tobytes()
    assert sharded_kept == kept
    counters.update(recorder.counters)
    return counters


#: Everyone cares about both categories but u0, who cares about c0 only.
AFFINITY = [[1, 0], [1, 1], [1, 1], [1, 1], [1, 1], [1, 1]]
EXPERTISE = [[0.4, 0.4], [0.3, 0.3], [0.5, 0], [0, 0.5], [0.2, 0.1], [0.1, 0.6]]


def counts(counters, prefix):
    return (
        counters.get(f"{prefix}.values_only", 0),
        counters.get(f"{prefix}.merged", 0),
    )


class TestValuesOnlyCheck:
    def test_new_values_on_the_same_support_are_values_only(self):
        after = [list(row) for row in EXPERTISE]
        after[2], after[3] = [0.7, 0], [0, 0.7]
        counters = patch_both(
            state(AFFINITY, EXPERTISE), state(AFFINITY, after), rows=[1], cols=[2, 3]
        )
        assert counts(counters, "matrix.patch") == (1, 0)
        assert counts(counters, "shard.patch") == (2, 0)

    def test_same_count_in_other_columns_merges(self):
        # u2 and u3 swap expertise: u0 keeps one entry among the changed
        # columns, but in the other column; every other row keeps both
        after = [list(row) for row in EXPERTISE]
        after[2], after[3] = EXPERTISE[3], EXPERTISE[2]
        counters = patch_both(
            state(AFFINITY, EXPERTISE), state(AFFINITY, after), rows=[], cols=[2, 3]
        )
        assert counts(counters, "matrix.patch") == (0, 1)
        # u0's shard merges; the other shard's support held
        assert counts(counters, "shard.patch") == (1, 1)

    def test_inactive_changed_row_holding_base_entries_merges(self):
        # u0's affinity drops to zero: its row stores nothing any more
        after = [list(row) for row in AFFINITY]
        after[0] = [0, 0]
        counters = patch_both(
            state(AFFINITY, EXPERTISE), state(after, EXPERTISE), rows=[0], cols=[]
        )
        assert counts(counters, "matrix.patch") == (0, 1)
        assert counts(counters, "shard.patch") == (0, 1)

    def test_rows_without_affinity_in_the_moved_category_keep_their_entries(self):
        # only c1's expertise moves; u0 cares about c0 only, so its entries
        # in the changed columns keep their bits and the block skips it
        after = [list(row) for row in EXPERTISE]
        after[1], after[5] = [0.3, 0.2], [0.1, 0.7]
        region = TrustDeriver().derive_region(
            *state(AFFINITY, after),
            rows=np.empty(0, dtype=np.int64),
            cols=np.array([1, 5]),
            categories=np.array([1]),
        )
        assert region.block_rows.tolist() == [1, 2, 3, 4, 5]
        base = TrustDeriver().derive(*state(AFFINITY, EXPERTISE))
        assert base.contains("u0", "u1") and base.contains("u0", "u5")
        counters = patch_both(
            state(AFFINITY, EXPERTISE), state(AFFINITY, after), rows=[], cols=[1, 5]
        )
        assert counts(counters, "matrix.patch") == (1, 0)
        assert counts(counters, "shard.patch") == (2, 0)

    def test_column_gaining_entries_merges(self):
        # u2 had no expertise, so nobody trusted u2; now everybody does
        before = [list(row) for row in EXPERTISE]
        before[2] = [0, 0]
        counters = patch_both(
            state(AFFINITY, before), state(AFFINITY, EXPERTISE), rows=[], cols=[2]
        )
        assert counts(counters, "matrix.patch") == (0, 1)
        assert counts(counters, "shard.patch") == (0, 2)


@pytest.fixture(scope="module")
def generated_community():
    return generate_community(CommunityProfile(num_users=60), seed=11).community


def test_row_only_region_leaves_the_other_shards_shared(generated_community):
    """A review nobody rated yet moves its writer's affinity row only."""
    base = clone_community(generated_community)
    engine = Engine(base, shard_config=ShardConfig(num_shards=4))
    first = engine.update().derived
    writer = base.user_ids()[3]
    reviewed = set(base.record_columns().review_object.tolist())
    target = next(
        o for k, o in enumerate(base.record_columns().objects) if k not in reviewed
    )
    recorder = Recorder()
    with obs.use_recorder(recorder):
        base.add_review(Review("unrated", writer, target))
        second = engine.update().derived
    assert recorder.counters["engine.shard.shards_patched"] == 1
    assert recorder.counters["engine.shard.shards_untouched"] == 3
    owner = first.layout.shard_of_row(base.user_ids().index(writer))
    for s in range(4):
        shared = second.shard_entries(s)[1] is first.shard_entries(s)[1]
        assert shared == (s != owner)
    reference = cold_artifacts(clone_community(base))
    assert engine.artifacts.differences(reference) == []



@pytest.mark.parametrize(
    "shard_config", [None, ShardConfig(num_shards=4)], ids=["memory", "sharded"]
)
def test_arrival_leaves_rows_without_affinity_in_its_category_as_they_were(
    generated_community, shard_config, monkeypatch
):
    """A rating re-solves its review's category; active users with no
    affinity there keep their entries in the changed columns untouched,
    and the patched ``T-hat`` is still a full derive's, bit for bit."""
    base, stream = split_rating_stream(generated_community, 1)
    engine = Engine(base, shard_config=shard_config)
    rows, cols, _ = engine.update().derived.entries_arrays()
    regions = []
    derive_region = TrustDeriver.derive_region

    def keep(self, *args, **kwargs):
        regions.append(derive_region(self, *args, **kwargs))
        return regions[-1]

    monkeypatch.setattr(TrustDeriver, "derive_region", keep)
    base.add_rating(stream[0])
    artifacts = engine.update()
    (region,) = regions
    a = artifacts.affiliation.values_view()
    active = np.flatnonzero(a.sum(axis=1) > 0.0)
    skipped = np.setdiff1d(active, np.union1d(region.rows, region.block_rows))
    held = np.isin(rows, skipped) & np.isin(cols, region.cols)
    assert skipped.size and held.any()
    reference = cold_artifacts(clone_community(base))
    assert artifacts.differences(reference) == []
