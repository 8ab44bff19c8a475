"""Cached columnar view of a community's reviews and ratings.

The paper's hot paths (eqs. 1-4, the relation ``R``) consume ratings over
and over; materialising them as per-row Python dicts on every call is what
kept the Step-1 fit slow after the kernel layer landed.  This module holds
the remedy: the community's own integer-coded record columns are copied
into numpy arrays once, reordered category-major, and every consumer
afterwards works on those arrays.

Layout
------
Reviews live on a **category-major global axis**: all reviews of category 0
first (in insertion order), then category 1, and so on.  Ratings are kept
twice -- once in community insertion order (for order-sensitive consumers
such as :meth:`CommunityColumns.direct_connections`) and once category-major
(``srt_*``), so a category's ratings are one contiguous slice.  Within a
category both views preserve insertion order, which keeps every accumulation
bitwise identical to the row-scan code it replaces.

The view is immutable; :meth:`repro.community.Community.columns` caches one
per record count and refreshes it from the appended records when the
community grows.
"""

# repro: hot-path

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common.arrays import AnyArray, FloatArray, IntArray
from repro.common.contracts import array_spec, checked_arrays
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.community.community import Community

__all__ = ["CommunityColumns"]

# ratings grouped by (rater, writer) pair: (pair_rater_idx, pair_writer_idx,
# starts, counts, sums, order, first_seen) -- see _grouped_pairs
_PairGroups = tuple[AnyArray, AnyArray, AnyArray, AnyArray, AnyArray, AnyArray, AnyArray]


class CommunityColumns:
    """Integer-coded columnar snapshot of one community version.

    Attributes
    ----------
    users, categories:
        The axes every index column refers to (registration order).
    review_ids:
        Global review axis labels, category-major.
    review_writer_idx, review_category_idx:
        Per-review writer / category positions (``review_category_idx`` is
        nondecreasing by construction).
    review_cat_starts:
        ``(C + 1,)`` boundaries of each category's slice of the review axis.
    rater_idx, rating_review_idx, rating_category_idx, rating_values:
        Per-rating columns in community insertion order
        (``rating_review_idx`` points into the global review axis).
    srt_rater_idx, srt_review_idx, srt_values:
        The same ratings category-major (insertion order within a category).
    rating_cat_starts:
        ``(C + 1,)`` boundaries of each category's slice of the ``srt_*``
        columns.
    """

    __slots__ = (
        "users",
        "categories",
        "review_ids",
        "review_writer_idx",
        "review_category_idx",
        "review_cat_starts",
        "rater_idx",
        "rating_review_idx",
        "rating_category_idx",
        "rating_values",
        "srt_rater_idx",
        "srt_review_idx",
        "srt_values",
        "rating_cat_starts",
        "_writing_counts",
        "_rating_counts",
        "_pair_groups",
    )

    users: LabelIndex
    categories: LabelIndex
    review_ids: tuple[str, ...]
    review_writer_idx: IntArray
    review_category_idx: IntArray
    review_cat_starts: IntArray
    rater_idx: IntArray
    rating_review_idx: IntArray
    rating_category_idx: IntArray
    rating_values: FloatArray
    srt_rater_idx: IntArray
    srt_review_idx: IntArray
    srt_values: FloatArray
    rating_cat_starts: IntArray
    _writing_counts: IntArray | None
    _rating_counts: IntArray | None
    _pair_groups: _PairGroups | None

    @checked_arrays(
        review_writer_idx=array_spec(ndim=1, kind="i", non_negative=True, length_of="reviews"),
        review_category_idx=array_spec(
            ndim=1, kind="i", non_negative=True, length_of="reviews"
        ),
        rater_idx=array_spec(ndim=1, kind="i", non_negative=True, length_of="ratings"),
        rating_review_idx=array_spec(
            ndim=1, kind="i", non_negative=True, length_of="ratings"
        ),
        rating_values=array_spec(ndim=1, kind="f", finite=True, length_of="ratings"),
    )
    def __init__(
        self,
        *,
        users: LabelIndex,
        categories: LabelIndex,
        review_ids: tuple[str, ...],
        review_writer_idx: IntArray,
        review_category_idx: IntArray,
        rater_idx: IntArray,
        rating_review_idx: IntArray,
        rating_values: FloatArray,
        sorted_columns: tuple[IntArray, IntArray, IntArray, FloatArray, IntArray]
        | None = None,
    ) -> None:
        self.users = users
        self.categories = categories
        self.review_ids = review_ids
        self.review_writer_idx = review_writer_idx
        self.review_category_idx = review_category_idx
        self.rater_idx = rater_idx
        self.rating_review_idx = rating_review_idx
        self.rating_values = rating_values

        num_categories = len(categories)
        self.review_cat_starts = np.asarray(
            np.searchsorted(review_category_idx, np.arange(num_categories + 1)),
            dtype=np.int64,
        )
        if sorted_columns is not None:
            # a builder (see :meth:`refreshed`) already holds the
            # category-major view; it must equal what the stable sort below
            # would produce, bit for bit
            (
                self.rating_category_idx,
                self.srt_rater_idx,
                self.srt_review_idx,
                self.srt_values,
                self.rating_cat_starts,
            ) = sorted_columns
        else:
            self.rating_category_idx = (
                review_category_idx[rating_review_idx]
                if len(rating_review_idx)
                else np.empty(0, dtype=np.int64)
            )
            order = np.argsort(self.rating_category_idx, kind="stable")
            self.srt_rater_idx = rater_idx[order]
            self.srt_review_idx = rating_review_idx[order]
            self.srt_values = rating_values[order]
            self.rating_cat_starts = np.asarray(
                np.searchsorted(
                    self.rating_category_idx[order], np.arange(num_categories + 1)
                ),
                dtype=np.int64,
            )
        # the snapshot is shared through the Community.columns() cache, so
        # every column is frozen; consumers get copies via astype / fancy
        # indexing, never writable aliases of cached state
        for column in (
            self.review_writer_idx,
            self.review_category_idx,
            self.review_cat_starts,
            self.rater_idx,
            self.rating_review_idx,
            self.rating_category_idx,
            self.rating_values,
            self.srt_rater_idx,
            self.srt_review_idx,
            self.srt_values,
            self.rating_cat_starts,
        ):
            column.setflags(write=False)
        self._writing_counts = None
        self._rating_counts = None
        self._pair_groups = None

    # ------------------------------------------------------------------ build

    @classmethod
    def from_community(cls, community: "Community") -> "CommunityColumns":
        """Encode ``community`` into a standalone snapshot.

        The community already holds its records as integer positions, so
        this is a category-major reordering of the review axis; no id is
        looked up.
        """
        ids, writer_idx, category_idx = community.encoded_reviews()
        rater_idx, review_idx, values = community.encoded_ratings()
        order, rank = _review_axis(category_idx)
        return cls(
            users=LabelIndex(community.user_ids()),
            categories=LabelIndex(community.category_ids()),
            review_ids=tuple(ids[i] for i in order.tolist()),
            review_writer_idx=writer_idx[order],
            review_category_idx=category_idx[order],
            rater_idx=rater_idx,
            rating_review_idx=rank[review_idx],
            rating_values=values,
        )

    @classmethod
    def refreshed(cls, old: "CommunityColumns", community: "Community") -> "CommunityColumns":
        """``old`` plus the records ``community`` appended since it was built.

        Records are append-only, so the entries beyond ``old``'s
        :attr:`counts` are exactly the new ones.  When only ratings (and
        possibly users) were appended, the review axis carries over and
        each new rating is spliced into the end of its category's ``srt_*``
        segment, which is exactly where the stable category sort of
        :meth:`from_community` would land it.  New reviews or categories
        reorder the review axis, so the snapshot is re-encoded from the
        community's integer columns.  Either way the result is **bitwise
        identical** to a cold :meth:`from_community` build.
        """
        if (
            community.num_reviews() != old.num_reviews
            or community.num_categories() != len(old.categories)
        ):
            return cls.from_community(community)
        users = (
            LabelIndex(community.user_ids())
            if community.num_users() > len(old.users)
            else old.users
        )
        _ids, _writers, category_idx = community.encoded_reviews()
        _order, review_rank = _review_axis(category_idx)
        new_rater_idx, new_review_pos, new_values = community.encoded_ratings(
            old.num_ratings
        )
        new_review_idx = review_rank[new_review_pos]
        num_new = new_values.size
        new_cat_idx = old.review_category_idx[new_review_idx]

        num_categories = len(old.categories)
        counts = np.bincount(new_cat_idx, minlength=num_categories)
        shift = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
        starts = np.asarray(old.rating_cat_starts + shift, dtype=np.int64)
        # each appended rating lands at the end of its category's segment,
        # after its same-category predecessors (insertion order preserved)
        order = np.argsort(new_cat_idx, kind="stable")
        sorted_cats = new_cat_idx[order]
        rank = np.arange(num_new, dtype=np.int64) - shift[sorted_cats]
        positions = old.rating_cat_starts[sorted_cats + 1] + shift[sorted_cats] + rank
        total = old.srt_values.size + num_new
        keep = np.ones(total, dtype=bool)
        keep[positions] = False
        srt_rater_idx = np.empty(total, dtype=np.int64)
        srt_review_idx = np.empty(total, dtype=np.int64)
        srt_values = np.empty(total, dtype=np.float64)
        srt_rater_idx[keep] = old.srt_rater_idx
        srt_review_idx[keep] = old.srt_review_idx
        srt_values[keep] = old.srt_values
        srt_rater_idx[positions] = new_rater_idx[order]
        srt_review_idx[positions] = new_review_idx[order]
        srt_values[positions] = new_values[order]

        return cls(
            users=users,
            categories=old.categories,
            review_ids=old.review_ids,
            review_writer_idx=old.review_writer_idx,
            review_category_idx=old.review_category_idx,
            rater_idx=np.concatenate([old.rater_idx, new_rater_idx]),
            rating_review_idx=np.concatenate([old.rating_review_idx, new_review_idx]),
            rating_values=np.concatenate([old.rating_values, new_values]),
            sorted_columns=(
                np.concatenate([old.rating_category_idx, new_cat_idx]),
                srt_rater_idx,
                srt_review_idx,
                srt_values,
                starts,
            ),
        )

    # ------------------------------------------------------------------ shape

    @property
    def counts(self) -> tuple[int, int, int, int]:
        """``(users, categories, reviews, ratings)`` this snapshot encodes."""
        return len(self.users), len(self.categories), self.num_reviews, self.num_ratings

    @property
    def num_reviews(self) -> int:
        """Number of reviews on the global axis."""
        return len(self.review_ids)

    @property
    def num_ratings(self) -> int:
        """Number of ratings."""
        return len(self.rating_values)

    def reviews_slice(self, category_id: str) -> slice:
        """Slice of the review axis holding ``category_id``'s reviews."""
        c = self.categories.position(category_id)
        return slice(int(self.review_cat_starts[c]), int(self.review_cat_starts[c + 1]))

    def ratings_slice(self, category_id: str) -> slice:
        """Slice of the ``srt_*`` columns holding ``category_id``'s ratings."""
        c = self.categories.position(category_id)
        return slice(int(self.rating_cat_starts[c]), int(self.rating_cat_starts[c + 1]))

    # ------------------------------------------------------------------ readers

    def rating_triples(self, category_id: str) -> list[tuple[str, str, float]]:
        """``(rater_id, review_id, value)`` triples, insertion order."""
        sl = self.ratings_slice(category_id)
        ulabels = self.users.labels
        rlabels = self.review_ids
        return [
            (ulabels[i], rlabels[j], v)
            for i, j, v in zip(
                self.srt_rater_idx[sl].tolist(),
                self.srt_review_idx[sl].tolist(),
                self.srt_values[sl].tolist(),
            )
        ]

    def writing_counts_matrix(self) -> IntArray:
        """``(U, C)`` reviews written per (user, category) -- eq. 4's ``a^w``.

        The returned array is the cached snapshot itself (read-only); use
        ``.copy()`` for a private mutable version.
        """
        if self._writing_counts is None:
            num_cells = len(self.users) * len(self.categories)
            keys = self.review_writer_idx * len(self.categories) + self.review_category_idx
            counts = np.asarray(
                np.bincount(keys, minlength=num_cells), dtype=np.int64
            ).reshape(len(self.users), len(self.categories))
            counts.setflags(write=False)
            self._writing_counts = counts
        return self._writing_counts

    def rating_counts_matrix(self) -> IntArray:
        """``(U, C)`` ratings given per (user, category) -- eq. 4's ``a^r``.

        The returned array is the cached snapshot itself (read-only); use
        ``.copy()`` for a private mutable version.
        """
        if self._rating_counts is None:
            num_cells = len(self.users) * len(self.categories)
            keys = self.rater_idx * len(self.categories) + self.rating_category_idx
            counts = np.asarray(
                np.bincount(keys, minlength=num_cells), dtype=np.int64
            ).reshape(len(self.users), len(self.categories))
            counts.setflags(write=False)
            self._rating_counts = counts
        return self._rating_counts

    def writing_counts(self, category_id: str) -> dict[str, int]:
        """Per-writer review count in one category, first-seen order."""
        sl = self.reviews_slice(category_id)
        writers = self.review_writer_idx[sl]
        uniq, first, counts = np.unique(writers, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable")
        labels = self.users.labels
        return {labels[int(uniq[i])]: int(counts[i]) for i in order}

    def rating_counts(self, category_id: str) -> dict[str, int]:
        """Per-rater rating count in one category, first-seen order."""
        sl = self.ratings_slice(category_id)
        raters = self.srt_rater_idx[sl]
        uniq, first, counts = np.unique(raters, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable")
        labels = self.users.labels
        return {labels[int(uniq[i])]: int(counts[i]) for i in order}

    # ------------------------------------------------------ pairwise relation R

    def _grouped_pairs(self) -> _PairGroups:
        """Ratings grouped by (rater, writer) pair.

        Returns ``(pair_rater_idx, pair_writer_idx, starts, counts, sums,
        order, first_seen)`` where ``order`` permutes the insertion-order
        rating columns so each pair's ratings are contiguous (insertion
        order within a pair) and ``starts``/``counts`` delimit the groups.
        """
        if self._pair_groups is None:
            writer_per_rating = (
                self.review_writer_idx[self.rating_review_idx]
                if len(self.rating_review_idx)
                else np.empty(0, dtype=np.int64)
            )
            keys = self.rater_idx * len(self.users) + writer_per_rating
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            if len(sorted_keys):
                boundary = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
                starts = np.flatnonzero(boundary)
                counts = np.diff(np.r_[starts, len(sorted_keys)])
                # bincount accumulates strictly left-to-right, so each
                # pair's sum is bitwise what Python's sum() over its
                # insertion-order values produces (reduceat would differ
                # by an ulp on long groups via pairwise summation)
                group = np.cumsum(boundary) - 1
                sums = np.bincount(
                    group, weights=self.rating_values[order], minlength=len(starts)
                )
            else:
                starts = np.empty(0, dtype=np.int64)
                counts = np.empty(0, dtype=np.int64)
                sums = np.empty(0, dtype=np.float64)
            unique_keys = sorted_keys[starts] if len(sorted_keys) else sorted_keys
            n = max(len(self.users), 1)
            groups: _PairGroups = (
                unique_keys // n,
                unique_keys % n,
                starts,
                counts,
                sums,
                order,
                order[starts] if len(sorted_keys) else starts,
            )
            for arr in groups:
                arr.setflags(write=False)
            self._pair_groups = groups
        return self._pair_groups

    def direct_connection_arrays(
        self, *, include_self: bool = False
    ) -> tuple[IntArray, IntArray, IntArray, FloatArray]:
        """Unique ``(rater, writer)`` pairs of ``R`` as position arrays.

        Returns ``(rater_pos, writer_pos, counts, means)``; self-pairs are
        dropped unless ``include_self`` (they carry no trust signal).
        """
        rater, writer, _starts, counts, sums, _order, _first = self._grouped_pairs()
        means = sums / np.maximum(counts, 1)
        if not include_self and len(rater):
            keep = rater != writer
            return rater[keep], writer[keep], counts[keep], means[keep]
        return rater, writer, counts.copy(), means

    def direct_connections(self) -> dict[tuple[str, str], list[float]]:
        """The relation ``R`` with per-pair rating value lists attached.

        Pairs appear in first-seen order and each value list in insertion
        order, matching the row-scan implementation this replaces.
        """
        rater, writer, starts, counts, _sums, order, first = self._grouped_pairs()
        values = self.rating_values[order]
        labels = self.users.labels
        pairs: dict[tuple[str, str], list[float]] = {}
        for g in np.argsort(first, kind="stable"):
            start = int(starts[g])
            pairs[(labels[int(rater[g])], labels[int(writer[g])])] = values[
                start : start + int(counts[g])
            ].tolist()
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommunityColumns(users={len(self.users)}, "
            f"categories={len(self.categories)}, reviews={self.num_reviews}, "
            f"ratings={self.num_ratings})"
        )


def _review_axis(category_idx: IntArray) -> tuple[AnyArray, IntArray]:
    """``(order, rank)`` of the category-major review axis.

    ``order`` lists review insertion positions category by category
    (insertion order within a category); ``rank`` is its inverse, mapping
    an insertion position to its place on the axis.
    """
    order = np.argsort(category_idx, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return order, rank


def require_known_category(columns: CommunityColumns, category_id: str) -> None:
    """Raise :class:`ValidationError` when ``category_id`` is off-axis."""
    if category_id not in columns.categories:
        raise ValidationError(f"unknown category {category_id!r}")
