"""Datasets: the synthetic Epinions-style simulator and real-format loaders.

The paper evaluates on a crawl of Epinions' Video & DVD category, which is
not redistributable.  :mod:`repro.datasets.synthetic` provides the
substitute documented in ``DESIGN.md``: a latent-factor simulator whose
users have explicit per-category interest, writing skill, rating
reliability and activity levels, and whose observable data (reviews,
helpfulness ratings, explicit trust edges, advisor/top-reviewer
designations) is generated through the same noisy channels the paper's
framework assumes.

:mod:`repro.datasets.epinions` parses the *extended Epinions dataset* file
formats so the identical pipeline runs on the real data when available.
:mod:`repro.datasets.stats` summarises any community for reporting.
"""

from repro.datasets.epinions import (
    load_epinions_community,
    write_epinions_files,
)
from repro.datasets.latents import LatentTraits
from repro.datasets.profile import (
    EXPERIMENT_SEED,
    VIDEO_DVD_SUBCATEGORIES,
    CommunityProfile,
    paper_profile,
)
from repro.datasets.splits import holdout_ratings
from repro.datasets.stats import DatasetStats, dataset_stats
from repro.datasets.synthetic import SyntheticDataset, generate_community

__all__ = [
    "CommunityProfile",
    "VIDEO_DVD_SUBCATEGORIES",
    "EXPERIMENT_SEED",
    "paper_profile",
    "LatentTraits",
    "SyntheticDataset",
    "generate_community",
    "load_epinions_community",
    "write_epinions_files",
    "DatasetStats",
    "dataset_stats",
    "holdout_ratings",
]
