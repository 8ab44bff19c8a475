"""Tests for the trace report renderer and its CLI."""

import json

import pytest

from repro import obs
from repro.obs.recorder import Recorder
from repro.obs.report import aggregate_spans, main, render_trace_report


def sample_document():
    """A deterministic trace document built through the real recorder."""
    clock = iter(float(i) for i in range(100))
    recorder = Recorder(clock=lambda: next(clock))
    with obs.use_recorder(recorder):
        with obs.span("pipeline.run", seed=3):
            with obs.span("step1.fit", mode="batched"):
                pass
            with obs.span("step1.fit", mode="batched"):
                pass
        obs.add("community.columns.hit", 4)
        obs.observe("step1.sweeps", 12.0)
        obs.convergence(
            "step1.riggs", iterations=12, residual=1e-11, tolerance=1e-10,
            converged=True, category="c0",
        )
        obs.convergence(
            "propagation.eigentrust", iterations=1000, residual=0.5,
            tolerance=1e-10, converged=False,
        )
    return recorder.to_dict()


class TestAggregateSpans:
    def test_counts_and_times_per_name(self):
        stats = aggregate_spans(sample_document()["spans"])
        assert stats["step1.fit"].calls == 2
        assert stats["pipeline.run"].calls == 1
        # fake clock: each fit span lasts 1s, the run span 5s
        assert stats["step1.fit"].cumulative_s == pytest.approx(2.0)
        assert stats["pipeline.run"].self_s == pytest.approx(3.0)

    def test_empty_forest(self):
        assert aggregate_spans([]) == {}


class TestRenderTraceReport:
    def test_all_sections_present(self):
        text = render_trace_report(sample_document())
        assert "Span tree" in text
        assert "Span timings" in text
        assert "Counters" in text
        assert "Histograms" in text
        assert "Convergence summary" in text

    def test_span_tree_is_indented(self):
        text = render_trace_report(sample_document())
        assert "pipeline.run" in text
        assert "  step1.fit" in text

    def test_unconverged_kernel_flagged(self):
        text = render_trace_report(sample_document())
        line = next(
            l for l in text.splitlines() if l.startswith("propagation.eigentrust")
        )
        assert "NO" in line

    def test_empty_document(self):
        assert render_trace_report({}) == "(empty trace)"

    def test_engine_section_absent_without_engine_counters(self):
        assert "Incremental engine" not in render_trace_report(sample_document())

    def test_engine_section_summarises_reuse(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            obs.add("engine.deltas_applied", 3)
            obs.add("step1.incremental.categories_resolved", 1)
            obs.add("step1.incremental.categories_skipped", 4)
            obs.add("engine.derive.pairs_rederived", 120)
            obs.add("engine.derive.pairs_reused", 880)
        text = render_trace_report(recorder.to_dict())
        assert "Incremental engine" in text
        lines = text.splitlines()
        categories = next(l for l in lines if l.startswith("step1 categories"))
        assert "80.0%" in categories
        pairs = next(l for l in lines if l.startswith("derive pairs"))
        assert "120" in pairs and "880" in pairs and "88.0%" in pairs
        assert not any(l.startswith(("T-hat patch", "shard patch")) for l in lines)
        assert not any(l.startswith("propagation sweeps saved") for l in lines)

    def test_engine_section_summarises_patch_paths(self):
        recorder = Recorder()
        with obs.use_recorder(recorder):
            obs.add("engine.deltas_applied", 4)
            obs.add("matrix.patch.values_only", 3)
            obs.add("matrix.patch.merged", 1)
        lines = render_trace_report(recorder.to_dict()).splitlines()
        patches = next(l for l in lines if l.startswith("T-hat patch structure"))
        assert "75.0%" in patches
        assert not any(l.startswith("shard patch") for l in lines)


class TestReportCli:
    def write_trace(self, tmp_path, document):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_renders_and_exits_zero(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, sample_document())
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "Convergence summary" in out

    def test_check_converged_fails_on_unconverged_kernel(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, sample_document())
        assert main([path, "--check-converged"]) == 1
        err = capsys.readouterr().err
        assert "propagation.eigentrust" in err

    def test_check_converged_passes_on_clean_trace(self, tmp_path):
        document = sample_document()
        document["convergence"] = [
            r for r in document["convergence"] if r["converged"]
        ]
        path = self.write_trace(tmp_path, document)
        assert main([path, "--check-converged"]) == 0

    def test_module_entry_point(self):
        from repro.obs import __main__  # noqa: F401  (imports main cleanly)
