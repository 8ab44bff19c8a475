"""repro: a web of trust without explicit trust ratings.

A complete, from-scratch reproduction of

    Kim, Le, Lauw, Lim, Liu, Srivastava.
    "Building a Web of Trust without Explicit Trust Ratings."
    IEEE ICDE Workshops (ICDEW), 2008.

The library derives a dense, continuous user-to-user trust matrix from
review-rating data alone, in three steps: per-category expertise from
Riggs' reputation model (:mod:`repro.reputation`), per-category affinity
from activity counts (:mod:`repro.affinity`), and their affinity-weighted
combination (:mod:`repro.trust`).  Supporting subsystems provide the data
substrate (:mod:`repro.community`, :mod:`repro.datasets`), the paper's
evaluation (:mod:`repro.metrics`, :mod:`repro.experiments`) and the cited
propagation models (:mod:`repro.propagation`).

Quickstart
----------
>>> from repro import (
...     generate_community, ExpertiseEstimator, affiliation_matrix, derive_trust,
... )
>>> dataset = generate_community(seed=7)
>>> expertise = ExpertiseEstimator().fit(dataset.community)
>>> affinity = affiliation_matrix(dataset.community)
>>> trust = derive_trust(affinity, expertise.expertise)
"""

from repro.affinity import AffinityConfig, AffinityEstimator, affiliation_matrix
from repro.community import (
    HELPFULNESS_SCALE,
    Category,
    Community,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)
from repro.datasets import (
    CommunityProfile,
    SyntheticDataset,
    dataset_stats,
    generate_community,
    load_epinions_community,
)
from repro.matrix import LabelIndex, UserCategoryMatrix, UserPairMatrix
from repro.reputation import (
    ExpertiseEstimator,
    ExpertiseResult,
    IncrementalExpertise,
    RiggsConfig,
)
from repro.trust import (
    TrustDeriver,
    baseline_matrix,
    binarize_top_k,
    derive_trust,
    direct_connection_matrix,
    generousness,
    ground_truth_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # community
    "Community",
    "User",
    "Category",
    "ReviewedObject",
    "Review",
    "ReviewRating",
    "TrustStatement",
    "HELPFULNESS_SCALE",
    # datasets
    "CommunityProfile",
    "SyntheticDataset",
    "generate_community",
    "load_epinions_community",
    "dataset_stats",
    # matrices
    "LabelIndex",
    "UserCategoryMatrix",
    "UserPairMatrix",
    # step 1
    "RiggsConfig",
    "ExpertiseEstimator",
    "ExpertiseResult",
    "IncrementalExpertise",
    # step 2
    "AffinityConfig",
    "AffinityEstimator",
    "affiliation_matrix",
    # step 3 + evaluation machinery
    "TrustDeriver",
    "derive_trust",
    "direct_connection_matrix",
    "baseline_matrix",
    "ground_truth_matrix",
    "generousness",
    "binarize_top_k",
]
