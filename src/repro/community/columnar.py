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
such as :meth:`CommunityColumns.direct_connections`) and once category-major,
as one segment of ``(rater, review, value)`` arrays per category
(:meth:`CommunityColumns.category_ratings`; the ``srt_*`` columns are their
concatenation).  Within a category both views preserve insertion order,
which keeps every accumulation bitwise identical to the row-scan code it
replaces.

The view is immutable; :meth:`repro.community.Community.columns` caches one
per record count and refreshes it from the appended records when the
community grows.  A ratings-only refresh costs what arrived: it appends to
the insertion-order columns in place (:class:`_RatingLog`), copies only the
segments of the categories that gained a rating, and carries the review
axis, its rank and both count matrices forward.
"""

# repro: hot-path

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.common.arrays import AnyArray, FloatArray, IntArray, concat_ranges
from repro.common.contracts import array_spec, checked_arrays
from repro.common.errors import ValidationError
from repro.matrix.labels import LabelIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.community.community import Community

__all__ = ["CommunityColumns"]

# ratings grouped by (rater, writer) pair: (pair_rater_idx, pair_writer_idx,
# starts, counts, sums, order, first_seen) -- see _grouped_pairs
_PairGroups = tuple[AnyArray, AnyArray, AnyArray, AnyArray, AnyArray, AnyArray, AnyArray]
# one category's ratings, category-major: (rater_idx, review_idx, values)
_Segment = tuple[IntArray, IntArray, FloatArray]


class _RatingLog:
    """Rating columns with room to append in place.

    The successive snapshots of one community share their logs (one in
    insertion order, one per category): each snapshot holds read-only
    views of a log's first rows.  A successor appends in place only when
    its predecessor holds every row written so far, so the rows of a
    snapshot already handed out are never written again; otherwise the
    rows are copied to a new log with slack for later appends.
    """

    __slots__ = ("columns", "size")

    def __init__(self, columns: tuple[AnyArray, ...], size: int) -> None:
        self.columns = columns
        self.size = size

    def appended(self, held: int, rows: tuple[AnyArray, ...]) -> "_RatingLog":
        """The log holding this log's first ``held`` rows, then ``rows``."""
        total = held + rows[0].size
        if total == held:
            return self
        log = self
        if held != self.size or total > self.columns[0].size:
            capacity = total + total // 8 + 16
            log = _RatingLog(
                tuple(np.empty(capacity, dtype=column.dtype) for column in self.columns), held
            )
            for column, old in zip(log.columns, self.columns):
                column[:held] = old[:held]
        for column, new in zip(log.columns, rows):
            column[held:total] = new
        log.size = total
        return log

    def views(self, size: int) -> tuple[AnyArray, ...]:
        """Read-only views of the first ``size`` rows."""
        views = tuple(column[:size] for column in self.columns)
        for view in views:
            view.setflags(write=False)
        return views


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
    rating_cat_starts:
        ``(C + 1,)`` boundaries of each category's ratings in the
        category-major order of :meth:`category_ratings` and the
        ``srt_*`` columns.
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
        "rating_cat_starts",
        "_review_rank",
        "_log",
        "_segments",
        "_sorted",
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
    rating_cat_starts: IntArray
    _review_rank: IntArray | None
    _log: _RatingLog
    _segments: tuple[_RatingLog, ...]
    _sorted: _Segment | None
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
        review_rank: IntArray | None = None,
        appended_to: "CommunityColumns | None" = None,
    ) -> None:
        """Build a snapshot from its columns.

        ``review_rank`` maps a review's insertion position in the
        community to its place on the review axis; :meth:`refreshed` needs
        it to place appended ratings, and falls back to a cold build
        without it.  With ``appended_to`` (see :meth:`refreshed`) the
        rating arrays hold only the ratings appended since that snapshot,
        which has the same review axis, and only they are checked and
        placed; the rest is carried over.
        """
        self.users = users
        self.categories = categories
        self.review_ids = review_ids
        self.review_writer_idx = review_writer_idx
        self.review_category_idx = review_category_idx
        num_categories = len(categories)
        new_cat_idx = (
            review_category_idx[rating_review_idx]
            if len(rating_review_idx)
            else np.empty(0, dtype=np.int64)
        )
        appended = (rater_idx, rating_review_idx, new_cat_idx, rating_values)
        if appended_to is None:
            self.review_cat_starts = np.asarray(
                np.searchsorted(review_category_idx, np.arange(num_categories + 1)),
                dtype=np.int64,
            )
            order = np.argsort(new_cat_idx, kind="stable")
            self._sorted = (rater_idx[order], rating_review_idx[order], rating_values[order])
            self.rating_cat_starts = np.asarray(
                np.searchsorted(new_cat_idx[order], np.arange(num_categories + 1)),
                dtype=np.int64,
            )
            # the caller's arrays become the insertion-order log's, and
            # each category's log holds its slice of the sorted columns;
            # no log has room left, so no later snapshot writes to them
            for column in (*appended, *self._sorted):
                column.setflags(write=False)
            self._log = _RatingLog(appended, rating_values.size)
            bounds = self.rating_cat_starts.tolist()
            self._segments = tuple(
                _RatingLog(tuple(column[lo:hi] for column in self._sorted), hi - lo)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            )
            self._review_rank = review_rank
            self._writing_counts = None
            self._rating_counts = None
        else:
            old = appended_to
            self.review_cat_starts = old.review_cat_starts
            self._log = old._log.appended(old.num_ratings, appended)
            gained = np.bincount(new_cat_idx, minlength=num_categories)
            self.rating_cat_starts = old.rating_cat_starts.copy()
            self.rating_cat_starts[1:] += np.cumsum(gained)
            # each appended rating goes to the end of its category's log,
            # after its same-category predecessors: where the stable
            # category sort of a cold build puts it
            segments = list(old._segments)
            starts = old.rating_cat_starts
            for c in np.flatnonzero(gained).tolist():
                rows = (rater_idx, rating_review_idx, rating_values)
                if gained[c] != rating_values.size:
                    rows = tuple(column[new_cat_idx == c] for column in rows)
                segments[c] = segments[c].appended(int(starts[c + 1] - starts[c]), rows)
            self._segments = tuple(segments)
            self._sorted = None
            self._review_rank = old._review_rank
            self._writing_counts, self._rating_counts = _carried_counts(
                old, len(users), rater_idx, new_cat_idx
            )
        (
            self.rater_idx,
            self.rating_review_idx,
            self.rating_category_idx,
            self.rating_values,
        ) = self._log.views(int(self.rating_cat_starts[-1]))
        # the snapshot is shared through the Community.columns() cache, so
        # every column is frozen; consumers get copies via astype / fancy
        # indexing, never writable aliases of cached state
        for column in (
            self.review_writer_idx,
            self.review_category_idx,
            self.review_cat_starts,
            self.rating_cat_starts,
        ):
            column.setflags(write=False)
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
            review_rank=rank,
        )

    @classmethod
    def refreshed(cls, old: "CommunityColumns", community: "Community") -> "CommunityColumns":
        """``old`` plus the records ``community`` appended since it was built.

        Records are append-only, so the entries beyond ``old``'s
        :attr:`counts` are exactly the new ones.  When only ratings (and
        possibly users) were appended, the review axis and its rank carry
        over, the new ratings are appended to the insertion-order columns
        and each to the end of its category's segment, which is exactly
        where the stable category sort of :meth:`from_community` would land
        it, and computed count matrices are carried forward.  New reviews
        or categories reorder the review axis, so the snapshot is
        re-encoded from the community's integer columns.  Either way the
        result is **bitwise identical** to a cold :meth:`from_community`
        build, and ``old`` is left as it was.
        """
        rank = old._review_rank
        if (
            rank is None
            or community.num_reviews() != old.num_reviews
            or community.num_categories() != len(old.categories)
        ):
            return cls.from_community(community)
        users = (
            LabelIndex(community.user_ids())
            if community.num_users() > len(old.users)
            else old.users
        )
        rater_idx, review_pos, values = community.encoded_ratings(old.num_ratings)
        return cls(
            users=users,
            categories=old.categories,
            review_ids=old.review_ids,
            review_writer_idx=old.review_writer_idx,
            review_category_idx=old.review_category_idx,
            rater_idx=rater_idx,
            rating_review_idx=rank[review_pos],
            rating_values=values,
            appended_to=old,
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

    # ------------------------------------------------------- category-major view

    def category_ratings(self, categories: IntArray) -> _Segment:
        """``(rater_idx, review_idx, values)`` of the ratings of ``categories``.

        ``categories`` are ascending category-axis positions; the ratings
        come category-major, insertion order within a category, as the
        ``srt_*`` columns hold them.  The arrays are read-only views when
        they are one category's, or a run of categories of a snapshot built
        cold; otherwise they are gathered into new arrays.
        """
        categories = np.asarray(categories, dtype=np.int64)
        if categories.size == 1:
            return self._segment(int(categories[0]))
        if self._sorted is None:
            return _joined([self._segment(c) for c in categories.tolist()])
        lo = self.rating_cat_starts[categories]
        hi = self.rating_cat_starts[categories + 1]
        rows: slice | IntArray = (
            slice(int(lo[0]), int(hi[-1]))
            if categories.size and bool((lo[1:] == hi[:-1]).all())
            else concat_ranges(lo, hi - lo)
        )
        return self._sorted[0][rows], self._sorted[1][rows], self._sorted[2][rows]

    @property
    def srt_rater_idx(self) -> IntArray:
        """Per-rating rater positions, category-major."""
        return self._category_major()[0]

    @property
    def srt_review_idx(self) -> IntArray:
        """Per-rating review-axis positions, category-major."""
        return self._category_major()[1]

    @property
    def srt_values(self) -> FloatArray:
        """Per-rating values, category-major."""
        return self._category_major()[2]

    def _segment(self, c: int) -> _Segment:
        """Category ``c``'s ratings: read-only views of its log."""
        size = int(self.rating_cat_starts[c + 1] - self.rating_cat_starts[c])
        rater_idx, review_idx, values = self._segments[c].views(size)
        return rater_idx, review_idx, values

    def _category_major(self) -> _Segment:
        """Every category's segment joined, built once on the first read."""
        if self._sorted is None:
            joined = _joined([self._segment(c) for c in range(len(self.categories))])
            for column in joined:
                column.setflags(write=False)
            self._sorted = joined
        return self._sorted

    # ------------------------------------------------------------------ readers

    def rating_triples(self, category_id: str) -> list[tuple[str, str, float]]:
        """``(rater_id, review_id, value)`` triples, insertion order."""
        raters, reviews, values = self._segment(self.categories.position(category_id))
        ulabels = self.users.labels
        rlabels = self.review_ids
        return [
            (ulabels[i], rlabels[j], v)
            for i, j, v in zip(raters.tolist(), reviews.tolist(), values.tolist())
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
        raters = self._segment(self.categories.position(category_id))[0]
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


def _joined(segments: list[_Segment]) -> _Segment:
    """The segments' columns concatenated in order (new arrays)."""
    if not segments:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    return (
        np.concatenate([segment[0] for segment in segments]),
        np.concatenate([segment[1] for segment in segments]),
        np.concatenate([segment[2] for segment in segments]),
    )


def _carried_counts(
    old: CommunityColumns, num_users: int, rater_idx: IntArray, category_idx: IntArray
) -> tuple[IntArray | None, IntArray | None]:
    """``old``'s computed count matrices on ``num_users`` rows, with the
    appended ratings at ``(rater_idx, category_idx)`` counted in.

    A matrix ``old`` never computed stays uncomputed.  New users get zero
    rows; ratings leave the writing counts as they are.
    """
    writing, rating = old._writing_counts, old._rating_counts
    if writing is not None and writing.shape[0] != num_users:
        writing = _grown(writing, num_users)
        writing.setflags(write=False)
    if rating is not None:
        rating = _grown(rating, num_users)
        np.add.at(rating, (rater_idx, category_idx), 1)
        rating.setflags(write=False)
    return writing, rating


def _grown(counts: IntArray, num_users: int) -> IntArray:
    """A writable copy of ``counts`` with zero rows up to ``num_users``."""
    if counts.shape[0] == num_users:
        return counts.copy()
    out = np.zeros((num_users, counts.shape[1]), dtype=np.int64)
    out[: counts.shape[0]] = counts
    return out


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
