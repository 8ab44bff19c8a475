"""The shared three-step pipeline every experiment consumes.

``run_pipeline`` executes the whole framework once -- Step 1 (expertise),
Step 2 (affiliation), Step 3 (derivation), through
:func:`repro.trust.derive_web` -- plus the §IV evaluation scaffolding
(``R``, ``B``, ``T``, generousness, binarised matrices), and returns
everything in one immutable bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.affinity import AffinityConfig
from repro.community import Community
from repro.engine import EngineArtifacts
from repro.datasets import CommunityProfile, SyntheticDataset, generate_community
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.reputation import ExpertiseResult, RiggsConfig
from repro.trust import (
    TrustDeriver,
    baseline_matrix,
    binarize_top_k,
    derive_web,
    direct_connection_matrix,
    generousness,
    ground_truth_matrix,
)

__all__ = ["PipelineArtifacts", "run_pipeline", "pipeline_from_engine"]


@dataclass(frozen=True)
class PipelineArtifacts:
    """Everything the paper's evaluation needs, computed once.

    Attributes
    ----------
    dataset:
        The synthetic dataset (``None`` when the pipeline ran on an
        externally supplied community, e.g. a real Epinions load).
    community:
        The community the framework ran on.
    expertise_result:
        Step 1 output (``E``, rater reputations, fixed points).
    affiliation:
        Step 2 output (``A``).
    derived:
        Step 3 output (``T-hat``, continuous).
    connections / baseline / ground_truth:
        ``R``, ``B`` and ``T`` (§IV.C).
    generousness_by_user:
        ``k_i`` per user.
    derived_binary / baseline_binary:
        ``T-hat'`` and ``B'`` after the per-user top-k conversion.
    """

    dataset: SyntheticDataset | None
    community: Community
    expertise_result: ExpertiseResult
    affiliation: UserCategoryMatrix
    derived: UserPairMatrix
    connections: UserPairMatrix
    baseline: UserPairMatrix
    ground_truth: UserPairMatrix
    generousness_by_user: dict[str, float]
    derived_binary: UserPairMatrix
    baseline_binary: UserPairMatrix

    @property
    def expertise(self) -> UserCategoryMatrix:
        """The Users_Category Expertise matrix ``E``."""
        return self.expertise_result.expertise

    @property
    def rater_reputation(self) -> UserCategoryMatrix:
        """Per-category rater reputation (Table 2's subject)."""
        return self.expertise_result.rater_reputation

    def category_names(self) -> dict[str, str]:
        """``{category_id: display name}`` from the community."""
        return {
            category.category_id: (category.name or category.category_id)
            for category in self.community.iter_categories()
        }


def run_pipeline(
    profile: CommunityProfile | None = None,
    seed: int = 0,
    *,
    community: Community | None = None,
    dataset: SyntheticDataset | None = None,
    riggs_config: RiggsConfig | None = None,
    affinity_config: AffinityConfig | None = None,
    deriver: TrustDeriver | None = None,
) -> PipelineArtifacts:
    """Run the full framework and evaluation scaffolding.

    Exactly one data source is used: an explicit ``community``, an already
    generated ``dataset``, or (default) a fresh synthetic community from
    ``(profile, seed)``.
    """
    with obs.span("pipeline.run", seed=seed):
        if community is None:
            if dataset is None:
                with obs.span("pipeline.dataset", seed=seed):
                    dataset = generate_community(profile or CommunityProfile(), seed)
            community = dataset.community

        expertise_result, affiliation, derived = derive_web(
            community,
            riggs_config=riggs_config,
            affinity_config=affinity_config,
            deriver=deriver,
        )

        with obs.span("pipeline.relations"):
            connections = direct_connection_matrix(community)
            baseline = baseline_matrix(community)
            ground_truth = ground_truth_matrix(community)
            k_by_user = generousness(connections, ground_truth)

        with obs.span("pipeline.binarize"):
            derived_binary = binarize_top_k(derived, k_by_user)
            baseline_binary = binarize_top_k(baseline, k_by_user)

        return PipelineArtifacts(
            dataset=dataset,
            community=community,
            expertise_result=expertise_result,
            affiliation=affiliation,
            derived=derived,
            connections=connections,
            baseline=baseline,
            ground_truth=ground_truth,
            generousness_by_user=k_by_user,
            derived_binary=derived_binary,
            baseline_binary=baseline_binary,
        )


def pipeline_from_engine(
    artifacts: EngineArtifacts,
    community: Community,
    *,
    dataset: SyntheticDataset | None = None,
) -> PipelineArtifacts:
    """Evaluation bundle around the incremental engine's staged artifacts.

    Reuses ``E``, ``A`` and ``T-hat`` straight from an
    :class:`repro.engine.EngineArtifacts` (no recomputation) and derives
    only the §IV evaluation scaffolding from the community -- the bridge
    that lets every experiment consume an incrementally maintained
    pipeline.
    """
    with obs.span("pipeline.from_engine"):
        with obs.span("pipeline.relations"):
            connections = direct_connection_matrix(community)
            baseline = baseline_matrix(community)
            ground_truth = ground_truth_matrix(community)
            k_by_user = generousness(connections, ground_truth)
        with obs.span("pipeline.binarize"):
            derived_binary = binarize_top_k(artifacts.derived, k_by_user)
            baseline_binary = binarize_top_k(baseline, k_by_user)
        return PipelineArtifacts(
            dataset=dataset,
            community=community,
            expertise_result=artifacts.expertise_result,
            affiliation=artifacts.affiliation,
            derived=artifacts.derived,
            connections=connections,
            baseline=baseline,
            ground_truth=ground_truth,
            generousness_by_user=k_by_user,
            derived_binary=derived_binary,
            baseline_binary=baseline_binary,
        )
