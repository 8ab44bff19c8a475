"""Tests for web-of-trust structural analysis."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.matrix import UserPairMatrix
from repro.trust.analysis import WebAnalysis, coverage_comparison, web_analysis


def web(users, pairs):
    return UserPairMatrix.from_pairs(users, [(source, target, 1.0) for source, target in pairs])


class TestWebAnalysis:
    def test_empty_axis(self):
        result = web_analysis(web([], []))
        assert result.num_users == 0
        assert result.reachable_pair_fraction == 0.0

    def test_chain_reachability(self):
        # a->b->c: reachable ordered pairs = (a,b), (a,c), (b,c) of 6
        result = web_analysis(web(["a", "b", "c"], [("a", "b"), ("b", "c")]))
        assert result.reachable_pair_fraction == pytest.approx(0.5)
        assert result.sources_fraction == pytest.approx(2 / 3)
        # path lengths: 1, 2, 1 -> mean 4/3
        assert result.mean_path_length == pytest.approx(4 / 3)

    def test_full_cycle(self):
        users = ["a", "b", "c"]
        result = web_analysis(
            web(users, [("a", "b"), ("b", "c"), ("c", "a")])
        )
        assert result.reachable_pair_fraction == pytest.approx(1.0)
        assert result.largest_scc_fraction == pytest.approx(1.0)

    def test_no_edges(self):
        result = web_analysis(web(["a", "b"], []))
        assert result.num_edges == 0
        assert result.sources_fraction == 0.0
        assert result.largest_scc_fraction == 0.0

    def test_sampling_close_to_exact(self):
        users = [f"u{i}" for i in range(40)]
        pairs = [(f"u{i}", f"u{(i + 1) % 40}") for i in range(40)]  # ring
        exact = web_analysis(web(users, pairs), samples=1000)
        sampled = web_analysis(web(users, pairs), samples=10, seed=1)
        # a directed ring reaches every ordered pair
        assert exact.reachable_pair_fraction == pytest.approx(1.0)
        # a ring is symmetric: any sample gives the exact value
        assert sampled.reachable_pair_fraction == pytest.approx(
            exact.reachable_pair_fraction
        )

    def test_samples_validation(self):
        with pytest.raises(ValidationError):
            web_analysis(web(["a"], []), samples=0)


class TestCoverageComparison:
    def test_denser_web_covers_more(self):
        users = [f"u{i}" for i in range(12)]
        sparse = web(users, [("u0", "u1"), ("u2", "u3")])
        dense_pairs = [
            (users[i], users[j]) for i in range(12) for j in range(12)
            if i != j and (i + j) % 2 == 0
        ]
        dense = web(users, dense_pairs)
        result = coverage_comparison(sparse, dense, samples=50)
        assert (
            result["derived"].reachable_pair_fraction
            > result["explicit"].reachable_pair_fraction
        )
        assert result["derived"].sources_fraction > result["explicit"].sources_fraction


def brute_force_analysis(web):
    """Every field of :class:`WebAnalysis` from a BFS per user.

    Exact when every source is sampled.  Every stored entry is an edge,
    explicit zeros and self-loops included.
    """
    users = list(web.users)
    n = len(users)
    if n == 0:
        return WebAnalysis(0, 0, 0.0, 0.0, 0.0, 0.0)
    successors = {user: [] for user in users}
    for source, target, _ in web.entries():
        successors[source].append(target)
    hops = {}
    for root in users:
        seen = {root: 0}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nxt in successors[node]:
                if nxt not in seen:
                    seen[nxt] = seen[node] + 1
                    queue.append(nxt)
        hops[root] = seen
    sources = [user for user in users if successors[user]]
    pairs = sum(len(hops[source]) - 1 for source in sources)
    length_sum = sum(d for source in sources for d in hops[source].values())
    num_edges = sum(len(targets) for targets in successors.values())
    # the sampled estimator's arithmetic, with every source sampled
    reachable = pairs / len(sources) * len(sources) / max(n * (n - 1), 1) if sources else 0.0
    reach = np.array([[user in hops[root] for user in users] for root in users])
    largest_scc = int((reach & reach.T).sum(axis=1).max())
    return WebAnalysis(
        num_users=n,
        num_edges=num_edges,
        sources_fraction=len(sources) / n,
        reachable_pair_fraction=reachable,
        mean_path_length=length_sum / pairs if pairs else 0.0,
        largest_scc_fraction=largest_scc / n if n > 1 and num_edges else 0.0,
    )


@st.composite
def random_webs(draw):
    """Up to 12 users; explicit zeros, self-loops and isolated users occur."""
    n = draw(st.integers(0, 12))
    users = [f"u{i}" for i in range(n)]
    if not n:
        return UserPairMatrix(users)
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.0, 0.25, 1.0]),
            ),
            max_size=3 * n,
        )
    )
    return UserPairMatrix.from_pairs(users, [(users[i], users[j], v) for i, j, v in cells])


class TestAgainstBruteForce:
    @given(random_webs(), st.integers(0, 3), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_every_field_equals_the_oracle(self, web, extra, seed):
        # samples >= the number of sources: every source is a BFS root
        samples = max(1, len(web.source_ids()) + extra)
        assert web_analysis(web, samples=samples, seed=seed) == brute_force_analysis(web)
