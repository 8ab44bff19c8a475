"""Tests for the row-block shard layout."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.shard import ShardLayout


class TestConstruction:
    def test_even_split_covers_all_rows(self):
        layout = ShardLayout.even(10, 4)
        assert layout.bounds[0] == 0
        assert layout.bounds[-1] == 10
        assert layout.num_shards == 4
        assert sum(layout.rows_in(s) for s in range(4)) == 10

    def test_even_split_is_near_equal(self):
        layout = ShardLayout.even(100, 3)
        sizes = [layout.rows_in(s) for s in range(layout.num_shards)]
        assert max(sizes) - min(sizes) <= 1

    def test_even_clamps_shards_to_rows(self):
        layout = ShardLayout.even(2, 8)
        assert layout.num_shards == 2
        assert all(layout.rows_in(s) >= 1 for s in range(layout.num_shards))

    def test_even_zero_rows_single_empty_shard(self):
        layout = ShardLayout.even(0, 4)
        assert layout.num_shards == 1
        assert layout.rows_in(0) == 0

    def test_even_rejects_nonpositive_shards(self):
        with pytest.raises(ValidationError):
            ShardLayout.even(10, 0)

    def test_bounds_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            ShardLayout(n_rows=5, bounds=(1, 5))

    def test_bounds_must_end_at_n_rows(self):
        with pytest.raises(ValidationError):
            ShardLayout(n_rows=5, bounds=(0, 4))

    def test_bounds_must_be_monotonic(self):
        with pytest.raises(ValidationError):
            ShardLayout(n_rows=5, bounds=(0, 3, 2, 5))

    def test_negative_rows_rejected(self):
        with pytest.raises(ValidationError):
            ShardLayout(n_rows=-1, bounds=(0, -1))


class TestQueries:
    def test_row_range(self):
        layout = ShardLayout(n_rows=10, bounds=(0, 3, 7, 10))
        assert layout.row_range(0) == (0, 3)
        assert layout.row_range(1) == (3, 7)
        assert layout.row_range(2) == (7, 10)

    def test_row_range_rejects_out_of_range_shard(self):
        layout = ShardLayout.even(10, 2)
        with pytest.raises(ValidationError):
            layout.row_range(2)
        with pytest.raises(ValidationError):
            layout.row_range(-1)

    def test_shard_of_rows_assigns_every_row_once(self):
        layout = ShardLayout(n_rows=10, bounds=(0, 3, 7, 10))
        shards = layout.shard_of_rows(np.arange(10, dtype=np.int64))
        expected = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        assert shards.tolist() == expected

    def test_shard_of_rows_boundary_rows_belong_to_upper_shard(self):
        layout = ShardLayout(n_rows=10, bounds=(0, 5, 10))
        shards = layout.shard_of_rows(np.asarray([4, 5], dtype=np.int64))
        assert shards.tolist() == [0, 1]

    @pytest.mark.parametrize("bounds", [(0, 8), (0, 3, 5, 8), (0, 0, 4, 4, 8, 8)])
    def test_shard_of_row_matches_the_vectorised_lookup(self, bounds):
        layout = ShardLayout(n_rows=8, bounds=bounds)
        expected = layout.shard_of_rows(np.arange(8, dtype=np.int64)).tolist()
        assert [layout.shard_of_row(row) for row in range(8)] == expected

    def test_shards_for_rows_unique_sorted(self):
        layout = ShardLayout(n_rows=10, bounds=(0, 3, 7, 10))
        touched = layout.shards_for_rows(np.asarray([9, 0, 1, 8], dtype=np.int64))
        assert touched.tolist() == [0, 2]

    def test_shards_for_rows_empty(self):
        layout = ShardLayout.even(10, 2)
        assert layout.shards_for_rows(np.empty(0, dtype=np.int64)).size == 0

    def test_key_range_scales_rows_by_columns(self):
        layout = ShardLayout(n_rows=10, bounds=(0, 3, 7, 10))
        assert layout.key_range(1, 10) == (30, 70)

    def test_iteration_yields_ordered_triples(self):
        layout = ShardLayout(n_rows=10, bounds=(0, 3, 7, 10))
        assert list(layout) == [(0, 0, 3), (1, 3, 7), (2, 7, 10)]

    def test_layout_is_frozen(self):
        layout = ShardLayout.even(10, 2)
        with pytest.raises(AttributeError):
            layout.n_rows = 5
