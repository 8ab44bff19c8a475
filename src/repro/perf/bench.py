"""Micro-benchmark of the sparse kernel layer, with a ``BENCH_perf.json`` emitter.

Times the vectorised hot paths against the frozen seed implementations in
:mod:`repro.perf.reference` on a synthetic community:

- **derive** -- Step 3, eq. 5 (``T-hat = W @ E.T`` materialisation);
- **step1_fit** -- Step 1, eqs. 1-3, cold: first batched fit on a fresh
  community, including the columnar-view build;
- **step1_fit_batched** -- Step 1 with the columnar view already cached
  (the steady-state cost when anything else has touched the community's
  columns first), best-of ``repeats``;
- **propagation_eigentrust** -- one global propagation pass over ``R``;
- **incremental** -- the delta-driven :class:`repro.engine.Engine`: the
  newest ratings of a typical (median-size) category arrive one at a
  time -- the steady-state workload the engine exists for -- and each
  ``Engine.update()`` is timed against a full cold build of the same
  state on a fresh replica; the stream is replayed in at least three
  passes, each followed by its cold build, and the mean update is set
  against the best build.  Each pass's final state is checked bitwise
  against its cold build (``incremental_identical``), and
  ``--check`` enforces a minimum update-vs-cold speedup
  (``--min-update-speedup``, default 2x);
- **shard** -- the out-of-core backend: ``T-hat`` is derived once
  in-memory and once shard-by-shard with a per-shard spill budget
  (:meth:`repro.trust.TrustDeriver.derive_sharded`), comparing wall
  time and -- via :mod:`tracemalloc` -- the peak *incremental* heap of
  the pair-matrix build stage.  The sharded matrix must be bitwise
  equal to the in-memory one, sharded eigentrust must reproduce the
  dense scores bitwise, and the flushed store must pass checksum
  verification; ``--check`` enforces all three plus a peak-memory
  ceiling (``--max-shard-peak-ratio``, default 0.5x the in-memory
  build at the default 4-shard split).

Run it as a module::

    python -m repro.perf.bench --users 2000 --seed 7 --out BENCH_perf.json

``--quick`` shrinks the community for CI smoke runs.  The derive and
step1 kernels are additionally checked for exact equality against the
references, so the speedup never comes at the cost of a changed result;
``--check`` (with ``--min-step1-speedup``) turns those checks into a
nonzero exit status for CI.

Besides the timing loops, every run makes one *instrumented, untimed*
pass over the optimised kernels under a :class:`repro.obs.Recorder` and
embeds the per-kernel span statistics, counters and convergence records
under the document's ``observability`` key.  ``--trace PATH`` writes the
full span tree of that pass as a trace JSON, and ``--check`` also fails
when any iterative kernel reported ``converged=False``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
import tracemalloc
from typing import Callable

import numpy as np

from repro import obs
from repro.affinity import AffinityEstimator
from repro.common.validation import require_positive
from repro.community import Community
from repro.datasets import CommunityProfile, generate_community
from repro.engine import Engine, clone_community, cold_artifacts, split_rating_stream
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.obs.report import aggregate_spans
from repro.perf.reference import (
    reference_derive_trust,
    reference_eigen_trust,
    reference_fit_expertise,
)
from repro.propagation import eigen_trust
from repro.reputation import ExpertiseEstimator
from repro.shard import ShardLayout, ShardStore
from repro.shard.matrix import ENTRY_BYTES, ShardedPairMatrix
from repro.trust import TrustDeriver, direct_connection_matrix

__all__ = ["run_kernel_bench"]


def _best_of(callable_: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _traced_pass(
    community: Community,
    affiliation: UserCategoryMatrix,
    expertise: UserCategoryMatrix,
    connections: UserPairMatrix,
) -> dict:
    """One instrumented, untimed pass over each kernel.

    Runs outside the timing loops so the recorder never perturbs the
    measured speedups; under ``REPRO_TRACE=0`` the recorder stays null and
    the document comes back empty.
    """
    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        ExpertiseEstimator().fit(community)
        TrustDeriver().derive(affiliation, expertise)
        eigen_trust(connections)
        sharded = TrustDeriver().derive_sharded(
            affiliation, expertise, store=ShardStore.temporary()
        )
        eigen_trust(sharded)
        sharded.flush()
    return recorder.to_dict()


def _peak_incremental_bytes(callable_: Callable[[], object]) -> tuple[int, object]:
    """Peak heap growth of one call, in bytes, via :mod:`tracemalloc`.

    The baseline is subtracted, so pre-existing allocations (the inputs)
    do not count; memory-mapped shard pages are not heap and never count,
    which is exactly the accounting the out-of-core backend is about.
    """
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = callable_()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(0, peak - baseline), result


def _bench_shard(
    affiliation: UserCategoryMatrix,
    expertise: UserCategoryMatrix,
    dense: UserPairMatrix,
    *,
    num_shards: int,
    spill_bytes: int,
    shard_dir: str | None,
    repeats: int,
) -> tuple[dict, bool, bool, bool]:
    """Compare the sharded ``T-hat`` build against the in-memory one.

    Returns ``(timing entry, derive identical, propagation identical,
    checksums ok)``.  The peak-memory figures cover only the pair-matrix
    build stage (the quadratic artifact); the dense inputs are alive in
    both measurements and excluded by the baseline.
    """
    deriver = TrustDeriver()
    entries = dense.num_entries()
    if spill_bytes <= 0:
        # auto budget: half an (even) shard's entries, so every completed
        # shard spills and the heap never holds more than ~one shard
        spill_bytes = max(ENTRY_BYTES, ENTRY_BYTES * entries // max(1, num_shards) // 2)
    layout = ShardLayout.even(len(affiliation.users), num_shards)

    def build_sharded() -> ShardedPairMatrix:
        store = ShardStore(shard_dir) if shard_dir else ShardStore.temporary()
        return deriver.derive_sharded(
            affiliation, expertise, layout=layout, store=store, spill_bytes=spill_bytes
        )

    dense_s, _ = _best_of(lambda: deriver.derive(affiliation, expertise), repeats)
    sharded_s, _ = _best_of(build_sharded, repeats)
    dense_peak, dense_again = _peak_incremental_bytes(
        lambda: deriver.derive(affiliation, expertise)
    )
    del dense_again
    sharded_peak, sharded_obj = _peak_incremental_bytes(build_sharded)
    assert isinstance(sharded_obj, ShardedPairMatrix)
    sharded: ShardedPairMatrix = sharded_obj

    identical = sharded == dense
    dense_scores = eigen_trust(dense)
    sharded_scores = eigen_trust(sharded)
    propagation_identical = bool(
        np.array_equal(dense_scores.scores_array(), sharded_scores.scores_array())
    ) and dense_scores.iterations == sharded_scores.iterations
    sharded.flush(epoch=0)
    store = sharded.store
    assert store is not None
    checksums_ok = store.verify() == []

    entry = {
        "before_s": round(dense_s, 6),
        "after_s": round(sharded_s, 6),
        "speedup": round(dense_s / sharded_s, 2) if sharded_s > 0 else None,
        "dense_peak_bytes": int(dense_peak),
        "sharded_peak_bytes": int(sharded_peak),
        "peak_ratio": round(sharded_peak / dense_peak, 4) if dense_peak else None,
        "shards": num_shards,
        "spill_bytes": int(spill_bytes),
        "entries": entries,
    }
    return entry, identical, propagation_identical, checksums_ok


def _bench_incremental(
    community: Community, *, stream_size: int, batch: int, repeats: int
) -> tuple[dict, bool]:
    """Time ``Engine.update()`` on a localised rating stream vs cold builds.

    Withholds the newest ``stream_size`` ratings of the median-size
    category -- the typical category a steady-state rating lands in (the
    largest category, where near half the community writes, is the
    adversarial case: each re-solve perturbs that many expertise entries)
    -- then replays them through an engine ``batch`` ratings per update.
    The replay runs ``repeats`` times, each pass on a fresh replica of the
    base and followed by a timed cold build of its final state, so the
    update timings and the cold builds share the host's speed phases (more
    arrivals instead would change the mix of arrivals timed).  Returns
    ``(timing entry, incremental_identical)`` where the timing compares
    the *mean* update over every pass against the best cold build (replica
    construction untimed), and every pass's final state must equal its
    cold build bitwise.
    """
    by_size = sorted(community.category_ids(), key=community.num_ratings)
    median = by_size[len(by_size) // 2]
    available = community.num_ratings(median)
    stream_size = min(stream_size, max(1, available - 1))
    base, stream = split_rating_stream(community, stream_size, category_id=median)

    update_times: list[float] = []
    cold_s = float("inf")
    identical = True
    for _ in range(repeats):
        replica = clone_community(base)  # untimed: replaying records is not pipeline work
        engine = Engine(replica)
        engine.update()  # cold build, untimed
        for start in range(0, len(stream), batch):
            for rating in stream[start : start + batch]:
                replica.add_rating(rating)
            begin = time.perf_counter()
            engine.update()
            update_times.append(time.perf_counter() - begin)
        final = clone_community(replica)
        begin = time.perf_counter()
        cold = cold_artifacts(final)
        cold_s = min(cold_s, time.perf_counter() - begin)
        assert engine.artifacts is not None
        identical = identical and engine.artifacts.bitwise_equal(cold)
    update_s = sum(update_times) / len(update_times) if update_times else 0.0

    entry = {
        "before_s": round(cold_s, 6),
        "after_s": round(update_s, 6),
        "speedup": round(cold_s / update_s, 2) if update_s > 0 else None,
        "stream": len(stream),
        "passes": repeats,
        "batch": batch,
        "category": median,
    }
    return entry, identical


def run_kernel_bench(
    *,
    num_users: int = 2000,
    seed: int = 7,
    repeats: int = 3,
    out_path: str | None = None,
    quick: bool = False,
    trace_path: str | None = None,
    num_shards: int = 4,
    shard_spill_bytes: int = 0,
    shard_dir: str | None = None,
) -> dict:
    """Benchmark the kernel layer and optionally write ``BENCH_perf.json``.

    Returns the result document.  ``quick`` drops the community to 400
    users and a single repeat -- a smoke configuration for CI.
    """
    require_positive("num_users", num_users)
    require_positive("repeats", repeats)
    if quick:
        num_users = min(num_users, 400)
        repeats = 1

    dataset = generate_community(CommunityProfile(num_users=num_users), seed=seed)
    community = dataset.community

    # --- Step 1: per-category fixed points + matrix assembly -------------
    before_fit, reference_fit = _best_of(lambda: reference_fit_expertise(community), 1)
    # cold: the first fit builds the columnar view
    after_fit, fit_result = _best_of(lambda: ExpertiseEstimator().fit(community), 1)
    # warm: the columnar view is cached, only the batched solve remains
    before_fit_batched, _ = _best_of(lambda: reference_fit_expertise(community), repeats)
    after_fit_batched, _ = _best_of(lambda: ExpertiseEstimator().fit(community), repeats)
    step1_equal = (
        fit_result.expertise == reference_fit.expertise
        and fit_result.rater_reputation == reference_fit.rater_reputation
        and fit_result.iterations() == reference_fit.iterations()
    )

    # --- Step 3: eq. 5 derivation ---------------------------------------
    affiliation = AffinityEstimator().fit(community)
    expertise = fit_result.expertise
    deriver = TrustDeriver()

    before_derive, reference_derived = _best_of(
        lambda: reference_derive_trust(affiliation, expertise), repeats
    )
    after_derive, derived = _best_of(
        lambda: deriver.derive(affiliation, expertise), repeats
    )
    matrices_equal = derived == reference_derived

    # --- one propagation pass over the direct-connection web ------------
    connections = direct_connection_matrix(community)
    before_prop, _ = _best_of(lambda: reference_eigen_trust(connections), repeats)
    after_prop, _ = _best_of(lambda: eigen_trust(connections), repeats)

    # --- out-of-core sharded backend vs in-memory -------------------------
    shard_entry, shard_identical, shard_prop_identical, shard_checksums_ok = (
        _bench_shard(
            affiliation,
            expertise,
            derived,
            num_shards=num_shards,
            spill_bytes=shard_spill_bytes,
            shard_dir=shard_dir,
            repeats=repeats,
        )
    )

    # --- incremental engine vs cold rebuild ------------------------------
    # one rating per update: the steady-state arrival pattern the engine
    # is built for (batched arrival amortises the same stage costs)
    incremental_entry, incremental_identical = _bench_incremental(
        community,
        stream_size=40 if quick else 60,
        batch=1,
        repeats=max(repeats, 3),
    )

    def entry(before: float, after: float) -> dict:
        return {
            "before_s": round(before, 6),
            "after_s": round(after, 6),
            "speedup": round(before / after, 2) if after > 0 else None,
        }

    # --- instrumented pass: per-kernel span stats + convergence ----------
    trace_document = _traced_pass(community, affiliation, expertise, connections)
    span_stats = aggregate_spans(trace_document.get("spans", []))

    document = {
        "config": {
            "num_users": num_users,
            "seed": seed,
            "repeats": repeats,
            "quick": quick,
            "derived_entries": derived.num_entries(),
            "python": platform.python_version(),
        },
        "kernels": {
            "derive": entry(before_derive, after_derive),
            "step1_fit": entry(before_fit, after_fit),
            "step1_fit_batched": entry(before_fit_batched, after_fit_batched),
            "propagation_eigentrust": entry(before_prop, after_prop),
            "incremental": incremental_entry,
            "shard": shard_entry,
        },
        "derive_matrices_identical": bool(matrices_equal),
        "step1_matrices_identical": bool(step1_equal),
        "incremental_identical": bool(incremental_identical),
        "shard_identical": bool(shard_identical),
        "shard_propagation_identical": bool(shard_prop_identical),
        "shard_checksums_ok": bool(shard_checksums_ok),
        "observability": {
            "trace_enabled": obs.TRACE_ENABLED,
            "spans": {name: stat.to_dict() for name, stat in sorted(span_stats.items())},
            "counters": trace_document.get("counters", {}),
            "convergence": trace_document.get("convergence", []),
        },
    }
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(trace_document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=2000, help="community size")
    parser.add_argument("--seed", type=int, default=7, help="generation seed")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--out", default="BENCH_perf.json", help="output JSON path")
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration for CI"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="also write the full repro.obs trace of the instrumented pass "
        "(render with `python -m repro.obs.report PATH`)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when result equivalence or the step1 speedup "
        "floor is lost",
    )
    parser.add_argument(
        "--min-step1-speedup",
        type=float,
        default=1.0,
        help="minimum accepted step1_fit speedup under --check",
    )
    parser.add_argument(
        "--min-update-speedup",
        type=float,
        default=2.0,
        help="minimum accepted incremental update-vs-cold speedup under --check",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count for the shard scenario"
    )
    parser.add_argument(
        "--shard-spill-bytes",
        type=int,
        default=0,
        help="per-shard spill budget in bytes (0 = auto: half a shard)",
    )
    parser.add_argument(
        "--shard-dir",
        metavar="PATH",
        help="persist the benchmark shard store here instead of a temp dir "
        "(the manifest survives for inspection)",
    )
    parser.add_argument(
        "--max-shard-peak-ratio",
        type=float,
        default=0.5,
        help="maximum accepted sharded/in-memory peak-heap ratio under --check",
    )
    args = parser.parse_args(argv)
    document = run_kernel_bench(
        num_users=args.users,
        seed=args.seed,
        repeats=args.repeats,
        out_path=args.out,
        quick=args.quick,
        trace_path=args.trace,
        num_shards=args.shards,
        shard_spill_bytes=args.shard_spill_bytes,
        shard_dir=args.shard_dir,
    )
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.check:
        failures = []
        if not document["derive_matrices_identical"]:
            failures.append("derive result differs from the reference")
        if not document["step1_matrices_identical"]:
            failures.append("step1 result differs from the reference")
        step1_speedup = document["kernels"]["step1_fit"]["speedup"]
        if step1_speedup is not None and step1_speedup < args.min_step1_speedup:
            failures.append(
                f"step1_fit speedup {step1_speedup} below floor "
                f"{args.min_step1_speedup}"
            )
        if not document["incremental_identical"]:
            failures.append(
                "incremental engine state differs bitwise from the cold build"
            )
        update_speedup = document["kernels"]["incremental"]["speedup"]
        if update_speedup is not None and update_speedup < args.min_update_speedup:
            failures.append(
                f"incremental update speedup {update_speedup} below floor "
                f"{args.min_update_speedup}"
            )
        if not document["shard_identical"]:
            failures.append("sharded derive differs bitwise from the in-memory build")
        if not document["shard_propagation_identical"]:
            failures.append(
                "sharded eigentrust differs bitwise from the dense propagation"
            )
        if not document["shard_checksums_ok"]:
            failures.append("shard store checksum verification failed")
        peak_ratio = document["kernels"]["shard"]["peak_ratio"]
        if peak_ratio is not None and peak_ratio > args.max_shard_peak_ratio:
            failures.append(
                f"sharded peak-heap ratio {peak_ratio} above ceiling "
                f"{args.max_shard_peak_ratio}"
            )
        for record in document["observability"]["convergence"]:
            if not record.get("converged", True):
                failures.append(
                    f"kernel {record.get('kernel')} did not converge "
                    f"({record.get('iterations')} iterations, "
                    f"residual {record.get('residual')})"
                )
        if failures:
            for failure in failures:
                print(f"perf check failed: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
