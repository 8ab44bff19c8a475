"""Integration tests: the instrumented kernels and their telemetry.

The central invariants:

- tracing never changes the numerics -- a run under a :class:`Recorder`
  produces matrices identical to a run under the :class:`NullRecorder`;
- an engine update traces the Step-1 work it does: one convergence record
  per re-solved category, under the update's span;
- propagation kernels that hit their iteration cap surface it instead of
  silently returning (``RuntimeWarning`` + ``converged=False``).
"""

import warnings

import pytest

from repro import obs
from repro.community import ReviewRating
from repro.engine import Engine
from repro.matrix import UserPairMatrix
from repro.obs.recorder import Recorder, convergence_failures
from repro.perf.reference import solve_category
from repro.propagation import appleseed, eigen_trust
from repro.experiments.pipeline import run_pipeline


def span_names(recorder):
    names = set()

    def walk(records):
        for record in records:
            names.add(record.name)
            walk(record.children)

    walk(recorder.roots)
    return names


@pytest.fixture
def asymmetric_web():
    return UserPairMatrix.from_pairs(
        ["a", "b", "c", "d"],
        [("a", "b", 0.9), ("a", "c", 0.2), ("b", "c", 0.8), ("c", "d", 0.5), ("d", "b", 0.3)],
    )


class TestPipelineTrace:
    def test_trace_covers_every_stage(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            run_pipeline(seed=3)
        names = span_names(recorder)
        assert {
            "pipeline.run",
            "pipeline.dataset",
            "pipeline.step1.expertise",
            "pipeline.step2.affinity",
            "pipeline.step3.derive",
            "pipeline.relations",
            "pipeline.binarize",
            "step1.fit",
            "step1.solve_all",
            "derive.trust",
            "community.columns.build",
        } <= names

    def test_step1_per_category_sweeps_recorded(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            run_pipeline(seed=3)
        riggs = [
            r for r in recorder.convergence_records if r.kernel == "step1.riggs"
        ]
        assert riggs, "expected per-category step1 convergence records"
        assert all(r.converged and r.iterations >= 1 for r in riggs)
        assert {r.attributes.get("category") for r in riggs} == {
            r.attributes["category"] for r in riggs
        }
        sweeps = recorder.histograms["step1.sweeps"]
        assert len(sweeps) == len(riggs)

    def test_columns_cache_counters(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            run_pipeline(seed=3)
        assert recorder.counters["community.columns.miss"] == 1
        assert recorder.counters["community.columns.hit"] >= 1

    def test_derive_counters(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            artifacts = run_pipeline(seed=3)
        assert recorder.counters["derive.blocks"] >= 1
        assert (
            recorder.counters["derive.entries_stored"]
            == artifacts.derived.num_entries()
        )


class TestTracingNeverChangesResults:
    def test_recorder_and_null_recorder_results_identical(self):
        with obs.use_recorder(Recorder()):
            traced = run_pipeline(seed=5)
        # default (null) recorder
        plain = run_pipeline(seed=5)
        assert traced.derived == plain.derived
        assert traced.expertise == plain.expertise
        assert traced.rater_reputation == plain.rater_reputation
        assert traced.derived_binary == plain.derived_binary

    def test_propagation_scores_identical_under_tracing(self, asymmetric_web):
        with obs.use_recorder(Recorder()):
            traced = eigen_trust(asymmetric_web)
        plain = eigen_trust(asymmetric_web)
        assert traced.to_dict() == plain.to_dict()


class TestEngineStep1Trace:
    def test_update_traces_the_resolved_category(self, two_category_community):
        engine = Engine(two_category_community)
        engine.update()
        two_category_community.add_rating(ReviewRating("carol", "ra1", 0.6))
        recorder = Recorder()
        with obs.use_recorder(recorder):
            engine.update()

        oracle = solve_category(two_category_community.rating_triples("movies"))
        riggs = [
            (r.attributes["category"], r.iterations, r.converged)
            for r in recorder.convergence_records
            if r.kernel == "step1.riggs"
        ]
        assert riggs == [("movies", oracle.iterations, True)]
        assert recorder.histograms["step1.sweeps"] == [float(oracle.iterations)]

        # the kernel's span nests under the update through the refresh span
        [update] = recorder.roots
        assert update.name == "engine.update"
        [refresh] = [child for child in update.children if child.name == "step1.refresh"]
        assert [child.name for child in refresh.children] == ["step1.solve_all"]


class TestConvergenceSurfacing:
    def test_eigentrust_cap_warns_and_flags(self, asymmetric_web):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            with pytest.warns(RuntimeWarning, match="max_iterations"):
                scores = eigen_trust(asymmetric_web, max_iterations=2)
        assert scores.converged is False
        assert scores.iterations == 2
        assert scores.residual > 0.0
        failures = convergence_failures(recorder.to_dict())
        assert [f["kernel"] for f in failures] == ["propagation.eigentrust"]

    def test_appleseed_cap_warns_and_flags(self, asymmetric_web):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            with pytest.warns(RuntimeWarning, match="max_iterations"):
                scores = appleseed(asymmetric_web, "a", max_iterations=1)
        assert scores.converged is False
        failures = convergence_failures(recorder.to_dict())
        assert [f["kernel"] for f in failures] == ["propagation.appleseed"]

    def test_converged_runs_carry_telemetry(self, asymmetric_web):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning on the happy path
            scores = eigen_trust(asymmetric_web)
        assert scores.converged is True
        assert scores.iterations >= 1
        assert scores.residual < 1e-10

    def test_unconverged_scores_still_usable(self, asymmetric_web):
        with pytest.warns(RuntimeWarning):
            scores = eigen_trust(asymmetric_web, max_iterations=1)
        total = sum(scores.to_dict().values())
        assert total == pytest.approx(1.0)
