"""Tests for hold-out splitting."""

import pytest

from repro.common.errors import ValidationError
from repro.common.rng import spawn_rng
from repro.community import (
    Category,
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)
from repro.datasets import CommunityProfile, generate_community
from repro.datasets.splits import holdout_ratings
from repro.engine import clone_community


def _holdout_oracle(community, fraction, seed=0, *, keep_trust=True):
    """``holdout_ratings`` as it was: every rating rebuilt as a model object
    through ``iter_ratings()``, the train community through ``from_records``."""
    ratings = list(community.iter_ratings())
    rng = spawn_rng(seed, "holdout")
    count = max(1, int(round(fraction * len(ratings))))
    held_idx = set(rng.choice(len(ratings), size=count, replace=False).tolist())
    held_out = [rating for i, rating in enumerate(ratings) if i in held_idx]
    kept = [rating for i, rating in enumerate(ratings) if i not in held_idx]
    train = Community.from_records(
        name=community.name + "_train",
        users=community.iter_users(),
        categories=community.iter_categories(),
        objects=community.iter_objects(),
        reviews=community.iter_reviews(),
        ratings=kept,
        trust=(
            [TrustStatement(source, target) for source, target in community.trust_edges()]
            if keep_trust
            else ()
        ),
    )
    return train, held_out


def _records(community):
    """Everything a community holds, names and titles included."""
    return (
        community.name,
        community.version,
        list(community.iter_users()),
        list(community.iter_categories()),
        list(community.iter_objects()),
        list(community.iter_reviews()),
        list(community.iter_ratings()),
        community.trust_edges(),
    )


@pytest.fixture(scope="module")
def dataset():
    profile = CommunityProfile(
        num_users=80, category_names=("a", "b"), objects_per_category=20,
        num_advisors=5, num_top_reviewers=5,
    )
    return generate_community(profile, seed=9)


class TestHoldoutRatings:
    def test_partition_sizes(self, dataset):
        total = dataset.community.num_ratings()
        train, held = holdout_ratings(dataset.community, 0.2, seed=1)
        assert len(held) == int(round(0.2 * total))
        assert train.num_ratings() + len(held) == total

    def test_original_untouched(self, dataset):
        before = dataset.community.num_ratings()
        holdout_ratings(dataset.community, 0.3, seed=1)
        assert dataset.community.num_ratings() == before

    def test_structure_preserved(self, dataset):
        train, _ = holdout_ratings(dataset.community, 0.2, seed=1)
        assert train.num_users() == dataset.community.num_users()
        assert train.num_reviews() == dataset.community.num_reviews()
        assert train.num_trust_edges() == dataset.community.num_trust_edges()
        # replaying every record re-checks each key and reference in add_*
        assert clone_community(train).summary() == train.summary()

    def test_held_out_reviews_exist_in_train(self, dataset):
        train, held = holdout_ratings(dataset.community, 0.25, seed=2)
        for rating in held:
            train.review_writer(rating.review_id)  # raises if absent

    def test_deterministic(self, dataset):
        _, held_a = holdout_ratings(dataset.community, 0.2, seed=3)
        _, held_b = holdout_ratings(dataset.community, 0.2, seed=3)
        assert held_a == held_b

    def test_seed_changes_split(self, dataset):
        _, held_a = holdout_ratings(dataset.community, 0.2, seed=3)
        _, held_b = holdout_ratings(dataset.community, 0.2, seed=4)
        assert held_a != held_b

    def test_drop_trust(self, dataset):
        train, _ = holdout_ratings(dataset.community, 0.2, seed=1, keep_trust=False)
        assert train.num_trust_edges() == 0

    @pytest.mark.parametrize("keep_trust", [True, False])
    @pytest.mark.parametrize(
        ("seed", "fraction"), [(0, 0.2), (1, 0.05), (7, 0.5), (11, 0.9), (3, 0.001)]
    )
    def test_matches_the_record_by_record_split(self, dataset, seed, fraction, keep_trust):
        train, held = holdout_ratings(
            dataset.community, fraction, seed=seed, keep_trust=keep_trust
        )
        expected_train, expected_held = _holdout_oracle(
            dataset.community, fraction, seed=seed, keep_trust=keep_trust
        )
        assert held == expected_held
        assert _records(train) == _records(expected_train)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction(self, dataset, fraction):
        with pytest.raises(ValidationError):
            holdout_ratings(dataset.community, fraction)

    def test_too_few_ratings(self):
        with pytest.raises(ValidationError, match="at least 2"):
            holdout_ratings(Community("empty"), 0.5)


class TestHoldoutRecords:
    @pytest.fixture
    def named(self):
        return Community.from_records(
            name="named",
            users=[User("alice", "Alice"), User("bob", "Bob"), User("dan", "Dan")],
            categories=[Category("c1", "Movies"), Category("c2", None)],
            objects=[
                ReviewedObject("o1", "c1", "Alien"),
                ReviewedObject("o2", "c2", None),
            ],
            reviews=[Review("r1", "alice", "o1"), Review("r2", "bob", "o2")],
            ratings=[
                ReviewRating("bob", "r1", 0.8),
                ReviewRating("dan", "r1", 0.4),
                ReviewRating("alice", "r2", 1.0),
                ReviewRating("dan", "r2", 0.6),
            ],
            trust=[TrustStatement("bob", "alice"), TrustStatement("dan", "bob")],
        )

    @pytest.mark.parametrize("keep_trust", [True, False])
    def test_train_keeps_every_record_but_held_out_ratings(self, named, keep_trust):
        train, held = holdout_ratings(named, 0.5, seed=1, keep_trust=keep_trust)
        assert list(train.iter_users()) == list(named.iter_users())
        assert [u.name for u in train.iter_users()] == ["Alice", "Bob", "Dan"]
        assert list(train.iter_categories()) == list(named.iter_categories())
        assert list(train.iter_objects()) == list(named.iter_objects())
        assert list(train.iter_reviews()) == list(named.iter_reviews())
        kept = list(train.iter_ratings())
        assert held and not set(held) & set(kept)
        assert sorted(kept + held, key=repr) == sorted(named.iter_ratings(), key=repr)
        assert train.trust_edges() == (named.trust_edges() if keep_trust else [])

    @pytest.mark.parametrize("keep_trust", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_record_by_record_split(self, named, seed, keep_trust):
        train, held = holdout_ratings(named, 0.5, seed=seed, keep_trust=keep_trust)
        expected_train, expected_held = _holdout_oracle(
            named, 0.5, seed=seed, keep_trust=keep_trust
        )
        assert held == expected_held
        assert _records(train) == _records(expected_train)
