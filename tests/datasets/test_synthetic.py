"""Tests for the synthetic community generator."""

import numpy as np
import pytest

from repro.datasets import CommunityProfile, generate_community
from repro.engine import clone_community

SMALL = CommunityProfile(
    num_users=120,
    category_names=("movies", "books", "music", "games"),
    objects_per_category=25,
    num_advisors=8,
    num_top_reviewers=10,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_community(SMALL, seed=13)


class TestDeterminism:
    def test_same_seed_same_dataset(self, dataset):
        again = generate_community(SMALL, seed=13)
        assert again.community.summary() == dataset.community.summary()
        assert again.advisors == dataset.advisors
        assert again.top_reviewers == dataset.top_reviewers
        assert again.community.trust_edges() == dataset.community.trust_edges()
        assert list(again.community.iter_ratings()) == list(
            dataset.community.iter_ratings()
        )

    def test_different_seed_different_dataset(self, dataset):
        other = generate_community(SMALL, seed=14)
        assert other.community.trust_edges() != dataset.community.trust_edges()

    def test_latents_reproducible(self, dataset):
        again = generate_community(SMALL, seed=13)
        np.testing.assert_array_equal(again.latents.interest, dataset.latents.interest)
        np.testing.assert_array_equal(
            again.latents.writer_skill, dataset.latents.writer_skill
        )


class TestStructure:
    def test_population_sizes(self, dataset):
        assert dataset.community.num_users() == SMALL.num_users
        assert dataset.community.num_categories() == 4
        assert len(dataset.community.object_ids()) == 4 * 25

    def test_category_names_applied(self, dataset):
        names = {category.name for category in dataset.community.iter_categories()}
        assert names == {"movies", "books", "music", "games"}

    def test_reviews_and_ratings_exist(self, dataset):
        assert dataset.community.num_reviews() > 50
        assert dataset.community.num_ratings() > dataset.community.num_reviews()

    def test_trust_edges_exist(self, dataset):
        assert dataset.community.num_trust_edges() > 0

    def test_integrity_holds(self, dataset):
        # replaying every record re-checks each key and reference in add_*
        replica = clone_community(dataset.community)
        assert replica.summary() == dataset.community.summary()

    def test_designations_sized_and_distinct(self, dataset):
        assert len(dataset.advisors) == SMALL.num_advisors
        assert len(set(dataset.advisors)) == SMALL.num_advisors
        assert len(dataset.top_reviewers) == SMALL.num_top_reviewers

    def test_true_quality_covers_all_reviews(self, dataset):
        review_ids = {r.review_id for r in dataset.community.iter_reviews()}
        assert set(dataset.true_review_quality) == review_ids
        for quality in dataset.true_review_quality.values():
            assert 0.0 < quality <= 1.0

    def test_describe_keys(self, dataset):
        described = dataset.describe()
        assert described["users"] == SMALL.num_users
        assert 0.0 < described["trust_density"] < 1.0


class TestGenerativeSemantics:
    def test_advisors_are_active_raters(self, dataset):
        counts: dict[str, int] = {}
        for rating in dataset.community.iter_ratings():
            counts[rating.rater_id] = counts.get(rating.rater_id, 0) + 1
        median = float(np.median([c for c in counts.values()]))
        for advisor in dataset.advisors:
            assert counts.get(advisor, 0) >= median

    def test_top_reviewers_write(self, dataset):
        writers = {r.writer_id for r in dataset.community.iter_reviews()}
        assert set(dataset.top_reviewers) <= writers

    def test_nobody_rates_own_review(self, dataset):
        for rating in dataset.community.iter_ratings():
            writer = dataset.community.review_writer(rating.review_id)
            assert writer != rating.rater_id

    def test_trust_edges_point_at_writers(self, dataset):
        writers = {r.writer_id for r in dataset.community.iter_reviews()}
        for _, trustee in dataset.community.trust_edges():
            assert trustee in writers

    def test_ratings_follow_quality(self, dataset):
        """Observed mean rating must correlate positively with true quality."""
        received: dict[str, list[float]] = {}
        for rating in dataset.community.iter_ratings():
            received.setdefault(rating.review_id, []).append(rating.value)
        pairs = [
            (dataset.true_review_quality[rid], float(np.mean(vals)))
            for rid, vals in received.items()
            if len(vals) >= 3
        ]
        assert len(pairs) > 10
        true_q, observed = zip(*pairs)
        corr = np.corrcoef(true_q, observed)[0, 1]
        assert corr > 0.5

    def test_trust_prefers_aligned_writers(self, dataset):
        """Trusted writers have higher latent alignment than untrusted ones."""
        latents = dataset.latents
        trusted_scores, untrusted_scores = [], []
        writers = {r.writer_id for r in dataset.community.iter_reviews()}
        trust = set(dataset.community.trust_edges())
        rng = np.random.default_rng(0)
        users = dataset.community.user_ids()
        for source, target in list(trust)[:300]:
            trusted_scores.append(latents.expertise_alignment(source, target))
            random_writer = rng.choice(sorted(writers - {source}))
            untrusted_scores.append(latents.expertise_alignment(source, random_writer))
        assert np.mean(trusted_scores) > np.mean(untrusted_scores)

    def test_activity_is_heavy_tailed(self, dataset):
        counts = {}
        for rating in dataset.community.iter_ratings():
            counts[rating.rater_id] = counts.get(rating.rater_id, 0) + 1
        values = sorted(counts.values(), reverse=True)
        # the top rater is far above the median -- zipf shape
        assert values[0] >= 10 * np.median(values)


class TestSmallPopulations:
    def test_single_user_community(self):
        profile = CommunityProfile(
            num_users=1, category_names=("c",), objects_per_category=3,
            num_advisors=1, num_top_reviewers=1,
        )
        ds = generate_community(profile, seed=1)
        # one user cannot rate (own reviews only) nor trust anyone
        assert ds.community.num_ratings() == 0
        assert ds.community.num_trust_edges() == 0

    def test_two_users(self):
        profile = CommunityProfile(
            num_users=2, category_names=("c",), objects_per_category=5,
            num_advisors=2, num_top_reviewers=2,
        )
        ds = generate_community(profile, seed=3)
        assert ds.community.num_users() == 2
        assert clone_community(ds.community).summary() == ds.community.summary()

    def test_designations_capped_by_active_users(self):
        profile = CommunityProfile(
            num_users=3, category_names=("c",), objects_per_category=4,
            num_advisors=10, num_top_reviewers=10,
        )
        ds = generate_community(profile, seed=5)
        assert len(ds.advisors) <= 3
        assert len(ds.top_reviewers) <= 3
