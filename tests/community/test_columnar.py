"""Tests for the cached columnar view of a community's reviews and ratings."""

import numpy as np
import pytest

from repro.community import (
    CommunityColumns,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)


def scan_direct_connections(community):
    """Record-scan oracle for the relation R (first-seen order, insertion values)."""
    writers = {review.review_id: review.writer_id for review in community.iter_reviews()}
    pairs = {}
    for rating in community.iter_ratings():
        pairs.setdefault((rating.rater_id, writers[rating.review_id]), []).append(
            rating.value
        )
    return pairs


class TestEncoding:
    def test_axes_cover_community(self, two_category_community):
        columns = two_category_community.columns()
        assert list(columns.users) == two_category_community.user_ids()
        assert list(columns.categories) == ["movies", "books"]
        assert columns.num_reviews == 4
        assert columns.num_ratings == 6

    def test_review_axis_is_category_major(self, two_category_community):
        columns = two_category_community.columns()
        assert np.array_equal(
            columns.review_category_idx, np.sort(columns.review_category_idx)
        )
        # movies reviews (ra1, ra2, rb1) precede the books review (rc1)
        assert columns.review_ids == ("ra1", "ra2", "rb1", "rc1")
        assert columns.reviews_slice("movies") == slice(0, 3)
        assert columns.reviews_slice("books") == slice(3, 4)

    def test_writer_column_matches_reviews(self, two_category_community):
        columns = two_category_community.columns()
        labels = columns.users.labels
        writers = [labels[i] for i in columns.review_writer_idx.tolist()]
        assert writers == ["alice", "alice", "bob", "carol"]

    def test_rating_columns_keep_insertion_order(self, two_category_community):
        columns = two_category_community.columns()
        labels = columns.users.labels
        raters = [labels[i] for i in columns.rater_idx.tolist()]
        assert raters == ["bob", "dave", "bob", "dave", "alice", "dave"]
        assert columns.rating_values.tolist() == [1.0, 0.8, 0.8, 0.4, 0.6, 0.6]


class TestReaders:
    def test_rating_triples_match_legacy_shape(self, two_category_community):
        columns = two_category_community.columns()
        assert columns.rating_triples("movies") == [
            ("bob", "ra1", 1.0),
            ("dave", "ra1", 0.8),
            ("bob", "ra2", 0.8),
            ("dave", "rb1", 0.4),
        ]
        assert columns.rating_triples("books") == [
            ("alice", "rc1", 0.6),
            ("dave", "rc1", 0.6),
        ]

    def test_counts_first_seen_order(self, two_category_community):
        columns = two_category_community.columns()
        assert columns.writing_counts("movies") == {"alice": 2, "bob": 1}
        assert columns.rating_counts("movies") == {"bob": 2, "dave": 2}
        assert list(columns.rating_counts("movies")) == ["bob", "dave"]

    def test_count_matrices(self, two_category_community):
        columns = two_category_community.columns()
        writing = columns.writing_counts_matrix()
        rating = columns.rating_counts_matrix()
        users = columns.users
        movies = columns.categories.position("movies")
        assert writing[users.position("alice"), movies] == 2
        assert writing[users.position("eve"), :].sum() == 0
        assert rating[users.position("dave"), :].sum() == 3

    def test_direct_connections_match_row_scan(self, two_category_community):
        columns = two_category_community.columns()
        expected = scan_direct_connections(two_category_community)
        got = columns.direct_connections()
        assert got == expected
        assert list(got) == list(expected)  # first-seen key order too

    def test_direct_connection_arrays_drop_self_pairs(self, two_category_community):
        # add_rating forbids self-ratings, so plant one in a snapshot built
        # from arrays (as a bulk import could) -- the pair layer must drop it
        base = two_category_community.columns()
        alice = base.users.position("alice")
        ra1 = base.review_ids.index("ra1")
        columns = CommunityColumns(
            users=base.users,
            categories=base.categories,
            review_ids=base.review_ids,
            review_writer_idx=base.review_writer_idx,
            review_category_idx=base.review_category_idx,
            rater_idx=np.append(base.rater_idx, alice),
            rating_review_idx=np.append(base.rating_review_idx, ra1),
            rating_values=np.append(base.rating_values, 0.8),
        )
        rater, writer, counts, means = columns.direct_connection_arrays()
        labels = columns.users.labels
        pairs = {
            (labels[r], labels[w]): (int(c), float(m))
            for r, w, c, m in zip(rater, writer, counts, means)
        }
        assert ("alice", "alice") not in pairs
        assert pairs[("bob", "alice")] == (2, pytest.approx(0.9))
        with_self = columns.direct_connection_arrays(include_self=True)
        n_self = sum(1 for r, w in zip(with_self[0], with_self[1]) if r == w)
        assert n_self == 1


class TestCaching:
    def test_cache_hit_returns_same_object(self, two_category_community):
        assert two_category_community.columns() is two_category_community.columns()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.add_user("frank"),
            lambda c: c.add_category("music"),
            lambda c: c.add_review(Review("rb9", "bob", "m2")),
            lambda c: c.add_rating(ReviewRating("carol", "ra1", 0.2)),
        ],
    )
    def test_encoded_mutations_rebuild_snapshot(self, two_category_community, mutate):
        before = two_category_community.columns()
        version = two_category_community.version
        mutate(two_category_community)
        assert two_category_community.version == version + 1
        assert two_category_community.columns() is not before

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.add_object(ReviewedObject("m9", "movies")),
            lambda c: c.add_trust(TrustStatement("carol", "bob")),
        ],
    )
    def test_unencoded_mutations_keep_snapshot(self, two_category_community, mutate):
        # objects and trust statements never enter the columnar view, so
        # their (announced) deltas are pure cache hits
        before = two_category_community.columns()
        mutate(two_category_community)
        assert two_category_community.columns() is before

    def test_mutation_is_reflected_in_new_view(self, two_category_community):
        two_category_community.columns()
        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.2))
        assert two_category_community.columns().rating_counts("movies")["carol"] == 1

    def test_from_community_standalone_snapshot(self, two_category_community):
        snapshot = CommunityColumns.from_community(two_category_community)
        two_category_community.add_user("frank")
        assert "frank" not in snapshot.users
        assert "frank" in two_category_community.columns().users


class TestCommunityDelegation:
    def test_community_methods_route_through_columns(self, two_category_community):
        community = two_category_community
        columns = community.columns()
        for category in community.category_ids():
            assert community.rating_triples(category) == columns.rating_triples(category)
            assert community.writing_counts(category) == columns.writing_counts(category)
            assert community.rating_counts(category) == columns.rating_counts(category)
        assert community.direct_connections() == columns.direct_connections()
