"""Tests for dataset statistics."""

from collections import Counter

import numpy as np
import pytest

from repro.datasets import CommunityProfile, dataset_stats, generate_community


class TestDatasetStats:
    def test_counts(self, two_category_community):
        stats = dataset_stats(two_category_community)
        assert stats.num_users == 5
        assert stats.num_categories == 2
        assert stats.num_objects == 3
        assert stats.num_reviews == 4
        assert stats.num_ratings == 6
        assert stats.num_trust_edges == 3

    def test_densities(self, two_category_community):
        stats = dataset_stats(two_category_community)
        # 5 direct pairs and 3 trust edges over 5*4 ordered pairs
        assert stats.rating_density == pytest.approx(5 / 20)
        assert stats.trust_density == pytest.approx(3 / 20)

    def test_ratings_per_review_counts_only_rated(self, two_category_community):
        stats = dataset_stats(two_category_community)
        # ra1 got 2, ra2 1, rb1 1, rc1 2 -> mean over the 4 rated reviews = 1.5
        assert stats.ratings_per_review == pytest.approx(6 / 4)

    def test_per_category_breakdown(self, two_category_community):
        stats = dataset_stats(two_category_community)
        by_name = {c.name: c for c in stats.per_category}
        movies = by_name["movies"]
        assert movies.num_reviews == 3
        assert movies.num_ratings == 4  # bob->ra1, dave->ra1, bob->ra2, dave->rb1
        assert movies.num_writers == 2
        assert movies.num_raters == 2
        books = by_name["books"]
        assert books.num_reviews == 1
        assert books.num_raters == 2

    def test_latents_validation(self):
        import numpy as np

        from repro.common.errors import ValidationError
        from repro.datasets import LatentTraits
        from repro.matrix import LabelIndex

        users = LabelIndex(["u1", "u2"])
        cats = LabelIndex(["c1"])
        good = LatentTraits(
            users=users,
            categories=cats,
            interest=np.array([[1.0], [1.0]]),
            writer_skill=np.array([0.5, 0.5]),
            rater_reliability=np.array([0.5, 0.5]),
            generosity=np.array([0.5, 0.5]),
        )
        assert good.skill_of("u1") == 0.5
        assert good.interest_of("u2") == {"c1": 1.0}
        with pytest.raises(ValidationError):
            LatentTraits(
                users=users,
                categories=cats,
                interest=np.array([[1.0]]),  # wrong shape
                writer_skill=np.array([0.5, 0.5]),
                rater_reliability=np.array([0.5, 0.5]),
                generosity=np.array([0.5, 0.5]),
            )
        with pytest.raises(ValidationError):
            LatentTraits(
                users=users,
                categories=cats,
                interest=np.array([[1.0], [1.0]]),
                writer_skill=np.array([0.5, 1.5]),  # out of range
                rater_reliability=np.array([0.5, 0.5]),
                generosity=np.array([0.5, 0.5]),
            )

    def test_column_counts_equal_a_record_scan(self):
        community = generate_community(CommunityProfile(num_users=60), seed=11).community
        stats = dataset_stats(community)
        n = community.num_users()
        pairs = [p for p in community.direct_connections() if p[0] != p[1]]
        assert stats.rating_density == len(pairs) / (n * (n - 1))
        received = Counter(r.review_id for r in community.iter_ratings())
        assert stats.ratings_per_review == float(np.mean(list(received.values())))
