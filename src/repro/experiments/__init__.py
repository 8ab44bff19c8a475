"""Experiment runners: one per table/figure of the paper, plus ablations.

The shared entry point is :func:`run_pipeline`, which generates (or
accepts) a community and runs all three framework steps once; each
experiment consumes the resulting :class:`PipelineArtifacts`:

========  ===========================================  =======================
Paper     What it shows                                Runner
========  ===========================================  =======================
Table 2   rater-reputation model vs Advisors           :func:`run_table2`
Table 3   writer-reputation model vs Top Reviewers     :func:`run_table3`
Fig. 3    density of ``T-hat`` vs ``R`` vs ``T``       :func:`run_fig3`
Table 4   trust prediction vs baseline                 :func:`run_table4`
§IV.C     score gap on ``R ∩ T`` vs ``R - T``          :func:`run_score_gap`
§V        propagation over the derived web of trust    :func:`run_propagation_comparison`
(design)  ablations A1-A4                              :func:`run_ablations`
(ext.)    future-trust conversion of ``R - T`` edges   :func:`run_future_trust`
(ext.)    path coverage, explicit vs derived web       :func:`run_coverage`
(ext.)    sensitivity sweeps of the Table-4 result     :mod:`repro.experiments.sensitivity`
(ext.)    Riggs vs baseline reputation models          :mod:`repro.experiments.reputation_baselines`
(all)     one-shot markdown report                     :func:`build_report`
========  ===========================================  =======================
"""

from repro.datasets.profile import EXPERIMENT_SEED, paper_profile
from repro.experiments.ablations import AblationResult, run_ablations
from repro.experiments.coverage import render_coverage, run_coverage
from repro.experiments.fig3 import render_fig3, run_fig3
from repro.experiments.future_trust import (
    FutureTrustResult,
    render_future_trust,
    run_future_trust,
)
from repro.experiments.pipeline import (
    PipelineArtifacts,
    pipeline_from_engine,
    run_pipeline,
)
from repro.experiments.report import build_report
from repro.experiments.propagation_compare import (
    PropagationComparison,
    render_propagation_comparison,
    run_propagation_comparison,
)
from repro.experiments.score_gap import render_score_gap, run_score_gap
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import render_table3, run_table3
from repro.experiments.table4 import Table4Result, render_table4, run_table4

__all__ = [
    "EXPERIMENT_SEED",
    "paper_profile",
    "PipelineArtifacts",
    "run_pipeline",
    "pipeline_from_engine",
    "run_table2",
    "render_table2",
    "run_table3",
    "render_table3",
    "run_fig3",
    "render_fig3",
    "run_table4",
    "render_table4",
    "Table4Result",
    "run_score_gap",
    "render_score_gap",
    "run_ablations",
    "AblationResult",
    "run_propagation_comparison",
    "render_propagation_comparison",
    "PropagationComparison",
    "run_coverage",
    "render_coverage",
    "run_future_trust",
    "render_future_trust",
    "FutureTrustResult",
    "build_report",
]
