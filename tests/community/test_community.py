"""Tests for the Community aggregate."""

import pytest

from repro.common.errors import IntegrityError, ValidationError
from repro.community import (
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.engine import clone_community


@pytest.fixture
def community():
    """A small two-category community.

    c1 (movies): object o1 reviewed by u1 (r1) and u2 (r2); o2 reviewed by u1 (r3).
    c2 (books):  object o3 reviewed by u3 (r4).
    Ratings: u2->r1 (0.8), u3->r1 (1.0), u1->r2 (0.6), u2->r4 (0.4).
    Trust: u2 -> u1.
    """
    c = Community("test")
    for user in ("u1", "u2", "u3"):
        c.add_user(user)
    c.add_category("c1", "movies")
    c.add_category("c2", "books")
    c.add_object(ReviewedObject("o1", "c1"))
    c.add_object(ReviewedObject("o2", "c1"))
    c.add_object(ReviewedObject("o3", "c2"))
    c.add_review(Review("r1", "u1", "o1"))
    c.add_review(Review("r2", "u2", "o1"))
    c.add_review(Review("r3", "u1", "o2"))
    c.add_review(Review("r4", "u3", "o3"))
    c.add_rating(ReviewRating("u2", "r1", 0.8))
    c.add_rating(ReviewRating("u3", "r1", 1.0))
    c.add_rating(ReviewRating("u1", "r2", 0.6))
    c.add_rating(ReviewRating("u2", "r4", 0.4))
    c.add_trust(TrustStatement("u2", "u1"))
    return c


class TestRegistration:
    def test_counts(self, community):
        assert community.num_users() == 3
        assert community.num_categories() == 2
        assert community.num_reviews() == 4
        assert community.num_ratings() == 4
        assert community.num_trust_edges() == 1

    def test_duplicate_user_rejected(self, community):
        with pytest.raises(IntegrityError):
            community.add_user("u1")

    def test_object_requires_existing_category(self, community):
        with pytest.raises(IntegrityError):
            community.add_object(ReviewedObject("oX", "ghost"))

    def test_user_ids_order(self, community):
        assert community.user_ids() == ["u1", "u2", "u3"]

    def test_has_user(self, community):
        assert community.has_user("u1")
        assert not community.has_user("ghost")


class TestDomainRules:
    def test_one_review_per_writer_object(self, community):
        with pytest.raises(IntegrityError, match="unique"):
            community.add_review(Review("r9", "u1", "o1"))

    def test_review_requires_existing_object(self, community):
        with pytest.raises(IntegrityError, match="unknown object"):
            community.add_review(Review("r9", "u1", "ghost"))

    def test_review_requires_existing_writer(self, community):
        with pytest.raises(IntegrityError):
            community.add_review(Review("r9", "ghost", "o3"))

    def test_no_self_rating(self, community):
        with pytest.raises(IntegrityError, match="own review"):
            community.add_rating(ReviewRating("u1", "r1", 0.8))

    def test_one_rating_per_rater_review(self, community):
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            community.add_rating(ReviewRating("u2", "r1", 0.2))

    def test_rating_requires_existing_review(self, community):
        with pytest.raises(IntegrityError, match="unknown review"):
            community.add_rating(ReviewRating("u2", "ghost", 0.2))

    def test_trust_requires_existing_users(self, community):
        with pytest.raises(IntegrityError):
            community.add_trust(TrustStatement("u1", "ghost"))

    def test_duplicate_trust_rejected(self, community):
        with pytest.raises(IntegrityError):
            community.add_trust(TrustStatement("u2", "u1"))


class TestCategoryScopedReads:
    def test_reviews_in_category(self, community):
        ids = {r.review_id for r in community.reviews_in_category("c1")}
        assert ids == {"r1", "r2", "r3"}

    def test_review_category_inherited_from_object(self, community):
        assert community.review_category("r1") == "c1"
        assert community.review_category("r4") == "c2"

    def test_review_writer(self, community):
        assert community.review_writer("r2") == "u2"

    def test_unknown_review_raises(self, community):
        with pytest.raises(ValidationError):
            community.review_category("ghost")

    def test_unknown_category_raises(self, community):
        with pytest.raises(ValidationError):
            community.reviews_in_category("ghost")

    def test_num_reviews_per_category(self, community):
        assert community.num_reviews("c1") == 3
        assert community.num_reviews("c2") == 1

    def test_num_ratings_per_category(self, community):
        assert community.num_ratings("c1") == 3
        assert community.num_ratings("c2") == 1

    def test_object_ids_scoped(self, community):
        assert community.object_ids("c1") == ["o1", "o2"]


class TestRatingsAccess:
    def test_ratings_of_review(self, community):
        assert community.ratings_of_review("r1") == [("u2", 0.8), ("u3", 1.0)]

    def test_ratings_of_unrated_review(self, community):
        assert community.ratings_of_review("r3") == []

    def test_reviews_by_writer_scoped(self, community):
        assert set(community.reviews_by_writer("u1")) == {"r1", "r3"}
        assert community.reviews_by_writer("u1", "c1") == ["r1", "r3"]
        assert community.reviews_by_writer("u1", "c2") == []

    def test_ratings_by_rater_scoped(self, community):
        assert community.ratings_by_rater("u2") == [("r1", 0.8), ("r4", 0.4)]
        assert community.ratings_by_rater("u2", "c2") == [("r4", 0.4)]


class TestActivityCounts:
    def test_writing_counts(self, community):
        assert community.writing_counts("c1") == {"u1": 2, "u2": 1}
        assert community.writing_counts("c2") == {"u3": 1}

    def test_rating_counts(self, community):
        assert community.rating_counts("c1") == {"u2": 1, "u3": 1, "u1": 1}
        assert community.rating_counts("c2") == {"u2": 1}


class TestPairwiseRelations:
    def test_direct_connections(self, community):
        pairs = community.direct_connections()
        assert pairs[("u2", "u1")] == [0.8]
        assert pairs[("u3", "u1")] == [1.0]
        assert pairs[("u1", "u2")] == [0.6]
        assert pairs[("u2", "u3")] == [0.4]
        assert len(pairs) == 4

    def test_multiple_ratings_same_pair_accumulate(self, community):
        # u2 also rates r3 (another review by u1)
        community.add_rating(ReviewRating("u2", "r3", 0.2))
        pairs = community.direct_connections()
        assert pairs[("u2", "u1")] == [0.8, 0.2]

    def test_trust_edges(self, community):
        assert community.trust_edges() == [("u2", "u1")]
        assert community.trusts("u2", "u1")
        assert not community.trusts("u1", "u2")


class TestBulkConstruction:
    def test_from_records_roundtrip(self, community):
        rebuilt = Community.from_records(
            users=community.user_ids(),
            categories=community.category_ids(),
            objects=[
                ReviewedObject("o1", "c1"),
                ReviewedObject("o2", "c1"),
                ReviewedObject("o3", "c2"),
            ],
            reviews=list(community.iter_reviews()),
            ratings=list(community.iter_ratings()),
            trust=[TrustStatement(s, t) for s, t in community.trust_edges()],
        )
        assert rebuilt.summary() == community.summary()
        assert rebuilt.direct_connections() == community.direct_connections()

    def test_summary_keys(self, community):
        assert set(community.summary()) == {
            "users",
            "categories",
            "objects",
            "reviews",
            "ratings",
            "trust",
        }

    def test_database_integrity_clean(self, community):
        # replaying every record re-checks each key and reference in add_*
        replica = clone_community(community)
        assert replica.summary() == community.summary()
