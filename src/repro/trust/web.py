"""The paper's framework end to end: Steps 1-3 on one community.

:func:`derive_web` runs Step 1 (expertise ``E``), Step 2 (affinity ``A``)
and Step 3 (``T-hat``, eq. 5) and returns all three.  ``repro derive``
calls it and writes ``T-hat``; :func:`repro.experiments.run_pipeline`
calls it and adds the §IV evaluation matrices.  So the step sequence, and
its spans, exist once.
"""

from __future__ import annotations

from repro import obs
from repro.affinity import AffinityConfig, AffinityEstimator
from repro.community import Community
from repro.matrix import UserCategoryMatrix, UserPairMatrix
from repro.reputation import ExpertiseEstimator, ExpertiseResult, RiggsConfig
from repro.trust.derive import TrustDeriver

__all__ = ["derive_web"]


def derive_web(
    community: Community,
    *,
    riggs_config: RiggsConfig | None = None,
    affinity_config: AffinityConfig | None = None,
    deriver: TrustDeriver | None = None,
) -> tuple[ExpertiseResult, UserCategoryMatrix, UserPairMatrix]:
    """Run Steps 1-3 on ``community``, one span per step.

    Returns Step 1's result (``E`` with the rater reputations and fixed
    points), Step 2's ``A`` and Step 3's continuous ``T-hat``.
    """
    with obs.span("pipeline.step1.expertise"):
        expertise_result = ExpertiseEstimator(riggs_config).fit(community)
    with obs.span("pipeline.step2.affinity"):
        affiliation = AffinityEstimator(affinity_config).fit(community)
    with obs.span("pipeline.step3.derive"):
        deriver = deriver or TrustDeriver()
        derived = deriver.derive(affiliation, expertise_result.expertise)
    return expertise_result, affiliation, derived
