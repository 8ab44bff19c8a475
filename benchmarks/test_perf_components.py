"""Performance benchmarks of the framework's computational kernels.

Not a paper artefact: these measure the cost of each pipeline stage so
regressions in the fixed-point solver, affiliation counting or the
derivation product are caught.
"""

import numpy as np
import pytest

from repro.affinity import AffinityEstimator
from repro.datasets import CommunityProfile, generate_community
from repro.matrix import UserPairMatrix
from repro.perf import run_kernel_bench
from repro.propagation import eigen_trust
from repro.reputation import ExpertiseEstimator, solve_all_categories
from repro.trust import TrustDeriver, direct_connection_matrix


@pytest.fixture(scope="module")
def perf_dataset():
    return generate_community(CommunityProfile(num_users=400), seed=5)


@pytest.fixture(scope="module")
def perf_matrices(perf_dataset):
    community = perf_dataset.community
    expertise = ExpertiseEstimator().fit(community)
    affiliation = AffinityEstimator().fit(community)
    return affiliation, expertise.expertise


def test_perf_riggs_fixed_point(perf_dataset, benchmark):
    # one category through the batched kernel: what a stream arrival re-solves
    columns = perf_dataset.community.columns()
    result = benchmark(solve_all_categories, columns, categories=[0])
    assert result.iterations[0] >= 1


def test_perf_expertise_all_categories(perf_dataset, benchmark):
    result = benchmark.pedantic(
        ExpertiseEstimator().fit, args=(perf_dataset.community,), rounds=2, iterations=1
    )
    assert result.expertise.shape[0] == 400


def test_perf_affiliation(perf_dataset, benchmark):
    matrix = benchmark(AffinityEstimator().fit, perf_dataset.community)
    assert matrix.shape[0] == 400


def test_perf_trust_derivation(perf_matrices, benchmark):
    affiliation, expertise = perf_matrices
    derived = benchmark(TrustDeriver().derive, affiliation, expertise)
    assert derived.num_entries() > 0


def test_perf_direct_connections(perf_dataset, benchmark):
    matrix = benchmark(direct_connection_matrix, perf_dataset.community)
    assert matrix.num_entries() > 0


def test_perf_propagation_eigentrust(perf_dataset, benchmark):
    connections = direct_connection_matrix(perf_dataset.community)
    connections.csr()  # warm the cache, as pipeline consumers would
    scores = benchmark(eigen_trust, connections)
    assert len(scores) == 400


def test_perf_bulk_matrix_construction(benchmark):
    rng = np.random.default_rng(3)
    n, nnz = 1000, 50_000
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    values = rng.random(nnz)
    users = [f"u{i}" for i in range(n)]

    def build():
        matrix = UserPairMatrix.from_arrays(users, rows, cols, values)
        return matrix.to_csr()

    csr = benchmark(build)
    assert csr.nnz > 0


def test_bench_emitter_quick_mode(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    document = run_kernel_bench(num_users=120, quick=True, out_path=str(out))
    assert out.exists()
    assert document["derive_matrices_identical"]
    assert document["step1_matrices_identical"]
    assert document["incremental_identical"]
    assert document["shard_identical"]
    assert document["shard_propagation_identical"]
    assert document["shard_checksums_ok"]
    assert set(document["kernels"]) == {
        "derive",
        "step1_fit",
        "step1_fit_batched",
        "propagation_eigentrust",
        "incremental",
        "shard",
    }
    incremental = document["kernels"]["incremental"]
    assert incremental["batch"] == 1
    assert incremental["stream"] >= 1
    shard = document["kernels"]["shard"]
    assert shard["shards"] >= 1
    assert shard["sharded_peak_bytes"] > 0


def test_perf_generation_scales(benchmark):
    profile = CommunityProfile(num_users=200)
    dataset = benchmark.pedantic(
        generate_community, args=(profile,), kwargs={"seed": 1}, rounds=2, iterations=1
    )
    assert dataset.community.num_users() == 200
