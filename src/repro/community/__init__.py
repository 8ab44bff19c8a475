"""Domain model of a review community (the paper's data substrate).

A :class:`Community` holds users, categories, reviewed objects, reviews,
review ratings and (optionally) explicit trust statements, with the
integrity rules of an Epinions-style site enforced:

- a user writes **at most one review per object** (paper §III.B);
- review ratings come from the 5-step helpfulness scale
  ``{0.2, 0.4, 0.6, 0.8, 1.0}`` (paper §IV.A);
- a user may rate a given review at most once, and never their own review;
- every review belongs to an object, every object to a category.

The community is the system of record for its data: it keeps every record
as append-only integer-coded columns (:class:`RecordColumns` is their
exchange form) and checks every key and reference before anything is
stored -- for a whole community at once in ``Community.from_columns``,
for one record in its ``add_*`` methods.
"""

from repro.community.columnar import CommunityColumns
from repro.community.community import Community, RecordColumns
from repro.community.deltas import ChangeLog, Delta, DeltaKind
from repro.community.model import (
    HELPFULNESS_SCALE,
    Category,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)

__all__ = [
    "Community",
    "CommunityColumns",
    "RecordColumns",
    "ChangeLog",
    "Delta",
    "DeltaKind",
    "User",
    "Category",
    "ReviewedObject",
    "Review",
    "ReviewRating",
    "TrustStatement",
    "HELPFULNESS_SCALE",
]
