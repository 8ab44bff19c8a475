"""Regression tests: every UserPairMatrix mutator invalidates the csr cache.

The csr() cache is a shared view of the consolidated state; a mutator
that forgets to drop it would hand stale matrices to the propagation and
metrics layers (the invariant the R1 lint rule encodes).
"""

import numpy as np
import pytest

from repro.matrix import UserPairMatrix

USERS = ["u0", "u1", "u2"]


@pytest.fixture
def warm_matrix():
    """A consolidated matrix with its csr cache populated."""
    matrix = UserPairMatrix(USERS)
    matrix.set_block([0, 1], [1, 2], [0.5, 0.25])
    matrix.csr()
    assert matrix._csr is not None
    return matrix


class TestMutatorInvalidation:
    def test_set_drops_both_caches(self, warm_matrix):
        warm_matrix.set("u2", "u0", 0.75)
        assert warm_matrix._csr is None

    def test_set_block_drops_both_caches(self, warm_matrix):
        warm_matrix.set_block([2], [1], [0.75])
        assert warm_matrix._csr is None

    def test_accumulate_new_pair_drops_both_caches(self, warm_matrix):
        warm_matrix.accumulate("u2", "u0", 0.1)
        assert warm_matrix._csr is None

    def test_accumulate_in_place_drops_csr(self, warm_matrix):
        # the fast path updates the value array in place, so the csr data
        # is stale even though no key moved
        warm_matrix.accumulate("u0", "u1", 0.1)
        assert warm_matrix._csr is None
        assert warm_matrix.get("u0", "u1") == pytest.approx(0.6)

    def test_discard_drops_both_caches(self, warm_matrix):
        warm_matrix.discard("u0", "u1")
        assert warm_matrix._csr is None

    def test_discard_of_absent_pair_keeps_caches(self, warm_matrix):
        csr = warm_matrix._csr
        warm_matrix.discard("u2", "u2")
        assert warm_matrix._csr is csr


class TestRebuiltViewsAreFresh:
    """The cache is not just dropped -- the rebuilt views see the write."""

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda m: m.set("u0", "u1", 0.9), 0.9),
            (lambda m: m.set_block([0], [1], [0.9]), 0.9),
            (lambda m: m.accumulate("u0", "u1", 0.4), 0.9),
        ],
        ids=["set", "set_block", "accumulate"],
    )
    def test_csr_reflects_mutation(self, warm_matrix, mutate, expected):
        mutate(warm_matrix)
        assert warm_matrix.csr().toarray()[0, 1] == pytest.approx(expected)

    def test_csr_reflects_discard(self, warm_matrix):
        warm_matrix.discard("u0", "u1")
        dense = warm_matrix.csr().toarray()
        assert dense[0, 1] == 0.0
        assert not warm_matrix.contains("u0", "u1")

    def test_accumulate_onto_pending_state_consolidates_first(self):
        # accumulate after buffered point writes must fold them in before
        # taking the in-place fast path
        matrix = UserPairMatrix(USERS)
        matrix.set("u0", "u1", 0.5)
        matrix.accumulate("u0", "u1", 0.25)
        assert matrix.get("u0", "u1") == pytest.approx(0.75)
        assert matrix.csr()[0, 1] == pytest.approx(0.75)

    def test_cached_csr_is_read_only(self, warm_matrix):
        with pytest.raises(ValueError):
            warm_matrix.csr().data[0] = 99.0
        assert np.all(warm_matrix.to_csr().data == warm_matrix.csr().data)
