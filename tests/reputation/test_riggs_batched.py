"""Equivalence of the batched Step-1 kernel with the `solve_category` oracle.

`solve_all_categories` must reproduce the per-category oracle *bitwise*,
whichever subset of categories it solves: the category-major columnar
layout preserves each category's scan order, so every bincount
accumulation sums the same floats in the same order.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConvergenceError, ValidationError
from repro.community import CommunityColumns
from repro.datasets import CommunityProfile, generate_community
from repro.perf.reference import solve_category
from repro.reputation import RiggsConfig, solve_all_categories

CONFIGS = {
    "default": RiggsConfig(),
    "unweighted": RiggsConfig(weight_by_rater_reputation=False),
    "no_discount": RiggsConfig(experience_discount_enabled=False),
    "damped": RiggsConfig(damping=0.3),
}


def random_community(seed, num_users=80):
    return generate_community(CommunityProfile(num_users=num_users), seed=seed).community


@functools.lru_cache(maxsize=None)
def columns_with_empty_category(seed):
    """A random community's columns plus one category nobody reviewed in."""
    community = random_community(seed)
    community.add_category("empty")
    return community.columns()


@functools.lru_cache(maxsize=None)
def full_solve(seed, config_name):
    return solve_all_categories(columns_with_empty_category(seed), CONFIGS[config_name])


def assert_fixed_points_identical(batch_fp, oracle_fp):
    assert batch_fp.review_quality == oracle_fp.review_quality
    assert batch_fp.rater_reputation == oracle_fp.rater_reputation
    assert batch_fp.rating_counts == oracle_fp.rating_counts
    assert batch_fp.iterations == oracle_fp.iterations
    assert batch_fp.residual == oracle_fp.residual


class TestBatchedEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle_bitwise(self, seed, config_name):
        community = random_community(seed)
        config = CONFIGS[config_name]
        batch = solve_all_categories(community.columns(), config)
        for category_id in community.category_ids():
            oracle = solve_category(community.rating_triples(category_id), config)
            assert_fixed_points_identical(batch.fixed_point(category_id), oracle)

    def test_slot_arrays_align_with_dict_view(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns())
        labels = batch.users.labels
        by_slot = {
            (labels[u], int(c)): r
            for u, c, r in zip(
                batch.rater_slot_user.tolist(),
                batch.rater_slot_category_idx.tolist(),
                batch.reputation.tolist(),
            )
        }
        movies = list(two_category_community.columns().categories).index("movies")
        fp = batch.fixed_point("movies")
        for rater_id, reputation in fp.rater_reputation.items():
            assert by_slot[(rater_id, movies)] == reputation

    def test_unknown_category_rejected(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns())
        with pytest.raises(ValidationError):
            batch.fixed_point("gardening")


class TestSubsetSolve:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_subset_matches_full_solve(self, seed, config_name, data):
        columns = columns_with_empty_category(seed)
        labels = columns.categories.labels
        positions = data.draw(
            st.lists(st.integers(0, len(labels) - 1), max_size=2 * len(labels)),
            label="categories",
        )
        batch = solve_all_categories(
            columns, CONFIGS[config_name], categories=positions
        )
        full = full_solve(seed, config_name)
        assert batch.solved_categories.tolist() == sorted(set(positions))
        for c, category_id in enumerate(labels):
            if c in positions:
                assert_fixed_points_identical(
                    batch.fixed_point(category_id), full.fixed_point(category_id)
                )
            else:
                # a batch answers only for what it solved
                with pytest.raises(ValidationError, match="not solved"):
                    batch.fixed_point(category_id)

    def test_empty_subset(self, two_category_community):
        batch = solve_all_categories(two_category_community.columns(), categories=[])
        assert batch.solved_categories.size == 0
        assert batch.iterations.size == 0 and batch.reputation.size == 0
        with pytest.raises(ValidationError, match="not solved"):
            batch.fixed_point("movies")

    @pytest.mark.parametrize("positions", [[-1], [2], [0, 5]])
    def test_off_axis_positions_rejected(self, two_category_community, positions):
        with pytest.raises(ValidationError, match="category positions"):
            solve_all_categories(two_category_community.columns(), categories=positions)

    def test_duplicate_pair_rejected_in_solved_rows_only(self, two_category_community):
        # add_rating forbids a second (rater, review) rating, so plant one in
        # a snapshot built from arrays (as a bulk import could)
        base = two_category_community.columns()
        bob = base.users.position("bob")
        ra1 = base.review_ids.index("ra1")
        columns = CommunityColumns(
            users=base.users,
            categories=base.categories,
            review_ids=base.review_ids,
            review_writer_idx=base.review_writer_idx,
            review_category_idx=base.review_category_idx,
            rater_idx=np.append(base.rater_idx, bob),
            rating_review_idx=np.append(base.rating_review_idx, ra1),
            rating_values=np.append(base.rating_values, 0.4),
        )
        movies = base.categories.position("movies")
        books = base.categories.position("books")
        with pytest.raises(ValidationError, match="duplicate"):
            solve_all_categories(columns, categories=[movies])
        # the rows of other categories are not read, let alone validated
        batch = solve_all_categories(columns, categories=[books])
        assert_fixed_points_identical(
            batch.fixed_point("books"),
            solve_category(two_category_community.rating_triples("books")),
        )


class TestDegenerateCategories:
    def test_empty_category_yields_empty_fixed_point(self, two_category_community):
        two_category_community.add_category("music")  # no objects, no reviews
        batch = solve_all_categories(two_category_community.columns())
        fp = batch.fixed_point("music")
        assert fp.review_quality == {}
        assert fp.rater_reputation == {}
        assert fp.iterations == 0
        # the populated categories are unaffected by the empty segment
        oracle = solve_category(two_category_community.rating_triples("movies"))
        assert_fixed_points_identical(batch.fixed_point("movies"), oracle)

    def test_singleton_category(self, two_category_community):
        # books has a single review rated twice -- the smallest nonempty case
        batch = solve_all_categories(two_category_community.columns())
        oracle = solve_category(two_category_community.rating_triples("books"))
        assert_fixed_points_identical(batch.fixed_point("books"), oracle)

    def test_community_with_no_ratings(self):
        from repro.community import Community

        empty = Community.from_records(
            name="empty",
            users=["a", "b"],
            categories=["movies"],
            objects=[],
            reviews=[],
            ratings=[],
            trust=[],
        )
        batch = solve_all_categories(empty.columns())
        fp = batch.fixed_point("movies")
        assert fp.review_quality == {} and fp.rater_reputation == {}


class TestConvergenceFailure:
    def test_raises_like_the_oracle(self):
        community = random_community(4)
        strict = RiggsConfig(tolerance=1e-9, max_iterations=1)
        with pytest.raises(ConvergenceError):
            solve_all_categories(community.columns(), strict)
        with pytest.raises(ConvergenceError):
            for category_id in community.category_ids():
                solve_category(community.rating_triples(category_id), strict)
