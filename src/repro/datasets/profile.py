"""Generator profiles: every knob of the synthetic community, in one place."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.validation import (
    require_fraction,
    require_in_range,
    require_non_negative,
    require_positive,
)

__all__ = ["CommunityProfile", "VIDEO_DVD_SUBCATEGORIES", "EXPERIMENT_SEED", "paper_profile"]

#: The 12 sub-categories of Epinions' Video & DVD category (paper §IV.A).
VIDEO_DVD_SUBCATEGORIES: tuple[str, ...] = (
    "Action/Adventure",
    "Adult/Audience",
    "Comedies",
    "Dramas",
    "Educations",
    "Foreign films",
    "Horror/Suspense",
    "Musical",
    "Religious",
    "Science/Fiction",
    "Sports/Recreation",
    "Westerns",
)


@dataclass(frozen=True)
class CommunityProfile:
    """All parameters of :func:`repro.datasets.generate_community`.

    The defaults produce a community with the qualitative shape of the
    paper's Video & DVD crawl at laptop scale: 12 sub-categories of very
    different sizes, heavy-tailed user activity, a dense rating relation and
    a sparser explicit web of trust.

    Population
    ----------
    num_users:
        Community size.
    category_names:
        One category per name (defaults to the paper's 12 sub-categories).
    objects_per_category:
        Reviewable items available in each category.

    Latent traits (per user)
    ------------------------
    interest_concentration:
        Dirichlet concentration of per-user interest over categories; small
        values give focused users, large values give uniform ones.
    category_weight_decay:
        Geometric decay of category popularity (category *k* has base
        weight ``decay**k``), so earlier-listed categories are larger --
        mirroring the very unequal sub-category sizes in Tables 2-3.
    writer_skill_alpha / writer_skill_beta:
        Beta distribution of latent writing skill (the ground truth behind
        review quality).
    rater_reliability_alpha / rater_reliability_beta:
        Beta distribution of latent rating reliability (the ground truth
        behind rater reputation).

    Activity
    --------
    writer_fraction:
        Fraction of users who write any reviews.
    writer_activity_exponent:
        Zipf exponent of the per-writer review-count distribution; smaller
        values mean heavier tails (a few prolific writers, many one-review
        writers -- the shape of real Epinions activity).
    rater_fraction / rater_activity_exponent:
        Same two knobs for rating activity.  Epinions-like data has far
        more ratings than reviews, so the rater exponent defaults lower
        (heavier tail).
    activity_cap:
        Hard ceiling on any single user's review/rating count (keeps the
        heavy tail laptop-sized).
    rating_noise:
        Standard deviation of the observation noise added to true review
        quality before quantisation onto the helpfulness scale; an
        individual's noise is scaled by ``(1.5 - reliability)`` so
        unreliable raters rate erratically.
    rating_exploration:
        When picking *what to rate*, users mix their own interest with a
        uniform distribution over categories by this fraction (front-page
        browsing) -- hyperactive raters therefore cover even marginal
        categories with non-trivial rating counts, the way Epinions
        Advisors rate across every sub-category of Video & DVD.
    writing_exploration:
        The same uniform mixing for choosing what to *write* about
        (smaller by default: writing follows interest more than browsing
        does).

    Trust
    -----
    trust_generosity_alpha / trust_generosity_beta:
        Beta distribution of each user's generousness (the fraction of
        their direct connections they will explicitly trust).
    trust_alignment_sharpness:
        Exponent applied to the latent interest-expertise alignment score
        when sampling trustees; higher = trust follows expertise more
        deterministically.
    trust_out_of_connection_fraction:
        Fraction of a user's trust edges allowed to point at writers they
        never rated (the paper's ``T - R`` region, attributed to
        word-of-mouth).
    trust_noise:
        Probability that a trust edge is drawn uniformly at random instead
        of by alignment (modelling idiosyncratic trust decisions).
    trust_exposure:
        Fraction of a user's direct connections that have had the chance to
        convert into explicit trust.  Epinions trust lists lag interaction:
        some high-affinity writers simply have not been added *yet* (the
        paper's own reading of its high-scoring ``R - T`` predictions).
        Unexposed connections stay in ``R - T`` regardless of alignment.

    Designations
    ------------
    num_advisors / num_top_reviewers:
        Sizes of the simulator's "Advisors" and "Top Reviewers" lists,
        picked from *latent* reliability/skill and activity exactly the way
        Epinions' editors pick from observed quality and quantity.
    """

    num_users: int = 400
    category_names: tuple[str, ...] = VIDEO_DVD_SUBCATEGORIES
    objects_per_category: int = 60

    interest_concentration: float = 0.25
    category_weight_decay: float = 0.78

    writer_skill_alpha: float = 2.2
    writer_skill_beta: float = 2.8
    rater_reliability_alpha: float = 2.0
    rater_reliability_beta: float = 1.6

    writer_fraction: float = 0.45
    writer_activity_exponent: float = 1.85
    rater_fraction: float = 0.85
    rater_activity_exponent: float = 1.35
    activity_cap: int = 300
    rating_noise: float = 0.28
    rating_exploration: float = 0.25
    writing_exploration: float = 0.15

    trust_generosity_alpha: float = 1.6
    trust_generosity_beta: float = 2.4
    trust_alignment_sharpness: float = 2.0
    trust_out_of_connection_fraction: float = 0.25
    trust_noise: float = 0.25
    trust_exposure: float = 0.65

    num_advisors: int = 22
    num_top_reviewers: int = 40

    def __post_init__(self) -> None:
        require_positive("num_users", self.num_users)
        if not self.category_names:
            raise ValidationError("at least one category is required")
        if len(set(self.category_names)) != len(self.category_names):
            raise ValidationError("category names must be unique")
        require_positive("objects_per_category", self.objects_per_category)
        require_positive("interest_concentration", self.interest_concentration)
        require_in_range("category_weight_decay", self.category_weight_decay, 0.0, 1.0)
        for name in (
            "writer_skill_alpha",
            "writer_skill_beta",
            "rater_reliability_alpha",
            "rater_reliability_beta",
            "trust_generosity_alpha",
            "trust_generosity_beta",
            "trust_alignment_sharpness",
        ):
            require_positive(name, getattr(self, name))
        for name in ("writer_activity_exponent", "rater_activity_exponent"):
            if getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be > 1 (zipf exponent)")
        require_positive("activity_cap", self.activity_cap)
        require_fraction("writer_fraction", self.writer_fraction)
        require_fraction("rater_fraction", self.rater_fraction)
        require_non_negative("rating_noise", self.rating_noise)
        require_fraction("rating_exploration", self.rating_exploration)
        require_fraction("writing_exploration", self.writing_exploration)
        require_fraction(
            "trust_out_of_connection_fraction", self.trust_out_of_connection_fraction
        )
        require_fraction("trust_noise", self.trust_noise)
        require_fraction("trust_exposure", self.trust_exposure)
        require_non_negative("num_advisors", self.num_advisors)
        require_non_negative("num_top_reviewers", self.num_top_reviewers)

    @property
    def num_categories(self) -> int:
        """Number of categories implied by ``category_names``."""
        return len(self.category_names)

    def scaled(self, factor: float) -> "CommunityProfile":
        """A copy with the population scaled by ``factor`` (for benchmarks)."""
        require_positive("factor", factor)
        return CommunityProfile(
            **{
                **self.__dict__,
                "num_users": max(1, int(self.num_users * factor)),
                "objects_per_category": max(1, int(self.objects_per_category * factor)),
            }
        )


#: Seed of every headline experiment number (EXPERIMENTS.md) and the
#: CLI's ``--seed`` default.
EXPERIMENT_SEED = 7


def paper_profile(num_users: int = 1200) -> CommunityProfile:
    """The default experiment profile (scaled-down Video & DVD stand-in).

    The paper's 12 sub-categories, Advisors / Top-Reviewer list sizes and
    heavy-tailed activity, scaled to 1,200 users so every experiment runs
    in seconds on a laptop (the paper's 44,197 users would work too, just
    slower).
    """
    return CommunityProfile(num_users=num_users)
