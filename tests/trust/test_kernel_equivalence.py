"""Equivalence of the vectorised kernels against naive reference loops.

The naive implementations here are the *specification*: eq. 5 written as
the paper states it (a triple loop) and Step-1 assembly written entry by
entry.  The vectorised kernels must agree on randomised communities,
including ``min_value`` thresholds, zero-affinity rows and the
``include_self`` edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import CommunityProfile, generate_community
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.perf import reference_derive_trust, reference_fit_expertise
from repro.reputation import ExpertiseEstimator
from repro.trust import TrustDeriver


def naive_eq5(
    affiliation: UserCategoryMatrix,
    expertise: UserCategoryMatrix,
    *,
    min_value: float = 0.0,
    include_self: bool = False,
) -> dict[tuple[str, str], float]:
    """Eq. 5 as written in the paper: one Python loop per (i, j, c)."""
    a = affiliation.values_view()
    e = expertise.values_view()
    users = list(affiliation.users)
    result: dict[tuple[str, str], float] = {}
    for i, source in enumerate(users):
        denominator = sum(a[i])
        if denominator <= 0.0:
            continue
        for j, target in enumerate(users):
            if i == j and not include_self:
                continue
            value = sum(a[i, c] * e[j, c] for c in range(a.shape[1])) / denominator
            if value > min_value:
                result[(source, target)] = value
    return result


def random_matrices(rng, n, c, zero_affinity_fraction=0.3):
    users = [f"u{i}" for i in range(n)]
    cats = [f"c{j}" for j in range(c)]
    a = rng.random((n, c))
    a[rng.random(n) < zero_affinity_fraction] = 0.0  # zero-affinity rows
    e = rng.random((n, c))
    e[rng.random(n) < 0.2] = 0.0  # users with no expertise anywhere
    return (
        UserCategoryMatrix(users, cats, a),
        UserCategoryMatrix(users, cats, e),
    )


class TestDeriveEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("min_value", [0.0, 0.2])
    @pytest.mark.parametrize("include_self", [False, True])
    def test_matches_naive_eq5(self, seed, min_value, include_self):
        rng = np.random.default_rng(seed)
        affiliation, expertise = random_matrices(rng, n=30, c=4)
        derived = TrustDeriver(min_value=min_value, include_self=include_self).derive(
            affiliation, expertise
        )
        expected = naive_eq5(
            affiliation, expertise, min_value=min_value, include_self=include_self
        )
        assert derived.support() == set(expected)
        for (source, target), value in expected.items():
            assert derived.get(source, target) == pytest.approx(value)

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_identical_to_seed_implementation(self, seed):
        rng = np.random.default_rng(100 + seed)
        affiliation, expertise = random_matrices(rng, n=40, c=5)
        vectorised = TrustDeriver().derive(affiliation, expertise)
        seed_impl = reference_derive_trust(affiliation, expertise)
        assert vectorised == seed_impl  # exact float equality, same support

    def test_blocked_equals_unblocked(self):
        rng = np.random.default_rng(13)
        affiliation, expertise = random_matrices(rng, n=37, c=3)
        assert TrustDeriver(block_size=4).derive(
            affiliation, expertise
        ) == TrustDeriver(block_size=10_000).derive(affiliation, expertise)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 12),
        c=st.integers(1, 5),
        min_value=st.sampled_from([0.0, 0.1, 0.5]),
        include_self=st.booleans(),
    )
    def test_property_random_communities(self, seed, n, c, min_value, include_self):
        rng = np.random.default_rng(seed)
        affiliation, expertise = random_matrices(rng, n=n, c=c)
        derived = TrustDeriver(min_value=min_value, include_self=include_self).derive(
            affiliation, expertise
        )
        expected = naive_eq5(
            affiliation, expertise, min_value=min_value, include_self=include_self
        )
        assert derived.support() == set(expected)
        for (source, target), value in expected.items():
            assert derived.get(source, target) == pytest.approx(value)


class TestStepOneEquivalence:
    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_fit_matches_seed_assembly(self, seed):
        dataset = generate_community(CommunityProfile(num_users=60), seed=seed)
        bulk = ExpertiseEstimator().fit(dataset.community)
        reference = reference_fit_expertise(dataset.community)
        assert bulk.expertise == reference.expertise
        assert bulk.rater_reputation == reference.rater_reputation
        assert bulk.iterations() == reference.iterations()
