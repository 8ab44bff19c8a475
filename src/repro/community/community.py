"""The :class:`Community` aggregate: storage + integrity + typed queries.

This is the one object the reputation/affinity/trust layers consume.  It
exposes exactly the access patterns the paper's formulas need:

- reviews written per (user, category) -- eq. 3 and eq. 4's ``a^w``;
- ratings given per (user, category) -- eq. 2's ``n_u`` and eq. 4's ``a^r``;
- the ratings received by each review, with rater identity -- eq. 1;
- the direct-connection relation ``R`` (*i* rated some review of *j*) and
  per-pair rating averages -- the paper's baseline ``B`` (§IV.C);
- the explicit web of trust ``T`` when available (ground truth, §IV).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Literal, NoReturn, Sequence

import numpy as np

from repro import obs
from repro.common.arrays import BoolArray, FloatArray, IntArray, first_true, lookup, repeats
from repro.common.errors import IntegrityError, ValidationError
from repro.community.columnar import CommunityColumns
from repro.community.model import (
    Category,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
    on_scale,
)

__all__ = ["Community", "RecordColumns"]

# a pair of positions (a, b) is kept in a key set as the one int a << 32 | b
_PAIR_SHIFT = 32

#: The record kinds, in the order a community registers them: each kind's
#: references point only at kinds before it.
RecordKind = Literal["user", "category", "object", "review", "rating", "trust"]

_KIND_FIELDS: tuple[tuple[RecordKind, tuple[str, ...]], ...] = (
    ("user", ("users", "user_names")),
    ("category", ("categories", "category_names")),
    ("object", ("objects", "object_category", "object_titles")),
    ("review", ("reviews", "review_writer", "review_object")),
    ("rating", ("rating_rater", "rating_review", "rating_value")),
    ("trust", ("trust_truster", "trust_trustee")),
)


@dataclass(frozen=True)
class RecordColumns:
    """The records of a community, one column entry per record.

    Reference columns hold positions into the id list of the kind they
    reference: ``object_category`` into ``categories``, ``review_writer``
    into ``users``, ``review_object`` into ``objects``, ``rating_rater``
    and both trust columns into ``users``, ``rating_review`` into
    ``reviews``.  ``None`` names and titles stand for ``""`` each, what
    ``add_user("u")`` registers.
    """

    users: Sequence[str]
    categories: Sequence[str]
    objects: Sequence[str]
    object_category: IntArray
    reviews: Sequence[str]
    review_writer: IntArray
    review_object: IntArray
    rating_rater: IntArray
    rating_review: IntArray
    rating_value: FloatArray
    trust_truster: IntArray
    trust_trustee: IntArray
    user_names: Sequence[str | None] | None = None
    category_names: Sequence[str | None] | None = None
    object_titles: Sequence[str | None] | None = None

    def counts(self) -> dict[str, int]:
        """Records per kind, keyed like :meth:`Community.summary`."""
        return {
            "users": len(self.users),
            "categories": len(self.categories),
            "objects": len(self.objects),
            "reviews": len(self.reviews),
            "ratings": len(self.rating_value),
            "trust": len(self.trust_truster),
        }

    def prefix(self, kind: RecordKind, stop: int) -> "RecordColumns":
        """The records registered before record ``stop`` of ``kind``.

        Every kind before ``kind`` stays whole, ``kind`` keeps its first
        ``stop`` records and every later kind is empty: what replaying
        the records through ``add_*`` in kind order has stored when it
        reaches that record.
        """
        changes: dict[str, Any] = {}
        kinds = [name for name, _ in _KIND_FIELDS]
        for name, fields in _KIND_FIELDS[kinds.index(kind) :]:
            for field in fields:
                column = getattr(self, field)
                if column is not None:
                    changes[field] = column[: stop if name == kind else 0]
        return replace(self, **changes)

    def record(self, kind: RecordKind, index: int) -> Any:
        """Record ``index`` of ``kind`` as its model object, which checks it."""
        users, objects, reviews = self.users, self.objects, self.reviews
        if kind == "user":
            return User(users[index], _text(self.user_names, index))
        if kind == "category":
            return Category(self.categories[index], _text(self.category_names, index))
        if kind == "object":
            category = self.categories[int(self.object_category[index])]
            return ReviewedObject(objects[index], category, _text(self.object_titles, index))
        if kind == "review":
            writer, obj = int(self.review_writer[index]), int(self.review_object[index])
            return Review(reviews[index], users[writer], objects[obj])
        if kind == "rating":
            rater, review = int(self.rating_rater[index]), int(self.rating_review[index])
            return ReviewRating(users[rater], reviews[review], float(self.rating_value[index]))
        truster, trustee = int(self.trust_truster[index]), int(self.trust_trustee[index])
        return TrustStatement(users[truster], users[trustee])


class Community:
    """An Epinions-style review community.

    The community is the system of record for its data.  Every id is
    interned once, in registration order, and every record is stored as
    append-only integer-coded columns of those positions: a review holds
    its writer, object and category; a rating its rater, review and value.

    A community is built whole by :meth:`from_columns` (or
    :meth:`from_records`, which goes through it), which checks every rule
    below with array operations and stores each column in one call.  It
    then grows one record at a time through the typed ``add_*`` methods,
    which check the primary keys, the one-review-per-(writer, object) rule,
    no self-rating and every reference against integer key sets before
    anything is appended.

    The point reads by key (:meth:`object_ids` and :meth:`num_reviews` of
    a category, :meth:`reviews_in_category`, :meth:`ratings_of_review`,
    :meth:`reviews_by_writer`, :meth:`ratings_by_rater`) read lists of
    record positions grouped per key.  A community built whole builds them
    from its record columns on the first such read; an empty one starts
    with them, and ``add_*`` appends to them once they are built.

    Every successful ``add_*`` call bumps :attr:`version`, and that is the
    only record of a change: since the record columns only grow, a
    consumer that keeps up incrementally compares the record counts of the
    :meth:`columns` snapshot it last read with the current one, as
    :class:`repro.reputation.IncrementalExpertise` does per category.
    """

    def __init__(self, name: str = "community") -> None:
        if not name.isidentifier():
            raise ValidationError(f"community name {name!r} is not a valid identifier")
        self.name = name
        self._version = 0
        self._columns: CommunityColumns | None = None

        # interned ids: position -> id and id -> position, per entity kind
        self._user_ids: list[str] = []
        self._user_pos: dict[str, int] = {}
        self._user_names: list[str | None] = []
        self._category_ids: list[str] = []
        self._category_pos: dict[str, int] = {}
        self._category_names: list[str | None] = []
        self._object_ids: list[str] = []
        self._object_pos: dict[str, int] = {}
        self._object_titles: list[str | None] = []
        self._review_ids: list[str] = []
        self._review_pos: dict[str, int] = {}

        # record columns, one entry per record in insertion order
        self._object_category: array[int] = array("q")
        self._review_writer: array[int] = array("q")
        self._review_object: array[int] = array("q")
        self._review_category: array[int] = array("q")  # denormalised from the object
        self._rating_rater: array[int] = array("q")
        self._rating_review: array[int] = array("q")
        self._rating_value: array[float] = array("d")
        self._trust_truster: array[int] = array("q")
        self._trust_trustee: array[int] = array("q")

        # composite keys: (writer, object) is unique; (rater, review) and
        # (truster, trustee) are primary keys
        self._reviewed: set[int] = set()
        self._rated: set[int] = set()
        self._trusted: set[int] = set()

        # record positions grouped for the point reads below; a community
        # built whole groups them on the first read (_group)
        self._grouped = True
        self._category_objects: list[list[int]] = []
        self._category_reviews: list[list[int]] = []
        self._category_num_ratings: list[int] = []
        self._user_reviews: list[list[int]] = []
        self._user_ratings: list[list[int]] = []
        self._review_ratings: list[list[int]] = []

    # ------------------------------------------------------------------ writes

    @property
    def version(self) -> int:
        """Mutation counter: the record count a community was built with,
        bumped by every successful ``add_*`` call."""
        return self._version

    @property
    def change_log(self) -> SimpleNamespace:
        """:attr:`version` as ``change_log.epoch``, and nothing else.

        The community keeps no change log: its record columns are
        append-only, so their counts say what changed.  The stream
        workloads in ``perfbench/workloads.py`` still checkpoint with
        ``flush(epoch=community.change_log.epoch)``; the next benchmark
        change (ROADMAP item 1) makes them read :attr:`version` and deletes
        this property.
        """
        return SimpleNamespace(epoch=self._version)

    def _mutated(self) -> None:
        """Bump :attr:`version` (the R1 write hook of every ``add_*``)."""
        self._version += 1

    def add_user(self, user: User | str, name: str = "") -> User:
        """Register a user (accepts a :class:`User` or a bare id)."""
        if isinstance(user, str):
            user = User(user_id=user, name=name)
        if user.user_id in self._user_pos:
            raise IntegrityError(f"users: duplicate primary key {user.user_id!r}")
        self._user_pos[user.user_id] = len(self._user_ids)
        self._user_ids.append(user.user_id)
        self._user_names.append(user.name)
        if self._grouped:
            self._user_reviews.append([])
            self._user_ratings.append([])
        self._mutated()
        return user

    def add_category(self, category: Category | str, name: str = "") -> Category:
        """Register a category (accepts a :class:`Category` or a bare id)."""
        if isinstance(category, str):
            category = Category(category_id=category, name=name)
        if category.category_id in self._category_pos:
            raise IntegrityError(
                f"categories: duplicate primary key {category.category_id!r}"
            )
        self._category_pos[category.category_id] = len(self._category_ids)
        self._category_ids.append(category.category_id)
        self._category_names.append(category.name)
        self._category_num_ratings.append(0)
        if self._grouped:
            self._category_objects.append([])
            self._category_reviews.append([])
        self._mutated()
        return category

    def add_object(self, obj: ReviewedObject) -> ReviewedObject:
        """Register a reviewable object under its category."""
        if obj.object_id in self._object_pos:
            raise IntegrityError(f"objects: duplicate primary key {obj.object_id!r}")
        category = self._category_pos.get(obj.category_id)
        if category is None:
            raise IntegrityError(
                f"object {obj.object_id!r} references unknown category {obj.category_id!r}"
            )
        position = len(self._object_ids)
        self._object_pos[obj.object_id] = position
        self._object_ids.append(obj.object_id)
        self._object_titles.append(obj.title)
        self._object_category.append(category)
        if self._grouped:
            self._category_objects[category].append(position)
        self._mutated()
        return obj

    def add_review(self, review: Review) -> Review:
        """Record a review; its category is inherited from the object.

        Raises :class:`IntegrityError` when the writer already reviewed the
        object (the paper: "a user is often allowed to write only one review
        on an object").
        """
        obj = self._object_pos.get(review.object_id)
        if obj is None:
            raise IntegrityError(f"review references unknown object {review.object_id!r}")
        if review.review_id in self._review_pos:
            raise IntegrityError(f"reviews: duplicate primary key {review.review_id!r}")
        writer = self._user_pos.get(review.writer_id)
        if writer is None:
            raise IntegrityError(
                f"review {review.review_id!r} references unknown writer {review.writer_id!r}"
            )
        key = writer << _PAIR_SHIFT | obj
        if key in self._reviewed:
            raise IntegrityError(
                f"unique (writer, object) violated: {review.writer_id!r} already "
                f"reviewed {review.object_id!r}"
            )
        category = self._object_category[obj]
        position = len(self._review_ids)
        self._review_pos[review.review_id] = position
        self._review_ids.append(review.review_id)
        self._review_writer.append(writer)
        self._review_object.append(obj)
        self._review_category.append(category)
        self._reviewed.add(key)
        if self._grouped:
            self._user_reviews[writer].append(position)
            self._category_reviews[category].append(position)
            self._review_ratings.append([])
        self._mutated()
        return review

    def add_rating(self, rating: ReviewRating) -> ReviewRating:
        """Record a helpfulness rating of a review.

        Domain rules: the rater must not be the review's writer, and each
        (rater, review) pair may appear at most once (the primary key).
        """
        review = self._review_pos.get(rating.review_id)
        if review is None:
            raise IntegrityError(f"rating references unknown review {rating.review_id!r}")
        rater = self._user_pos.get(rating.rater_id)
        if rater == self._review_writer[review]:
            raise IntegrityError(
                f"user {rating.rater_id!r} cannot rate their own review {rating.review_id!r}"
            )
        if rater is None:
            raise IntegrityError(f"rating references unknown rater {rating.rater_id!r}")
        key = rater << _PAIR_SHIFT | review
        if key in self._rated:
            raise IntegrityError(
                f"ratings: duplicate primary key {(rating.rater_id, rating.review_id)!r}"
            )
        category = self._review_category[review]
        position = len(self._rating_value)
        self._rating_rater.append(rater)
        self._rating_review.append(review)
        self._rating_value.append(rating.value)
        self._rated.add(key)
        self._category_num_ratings[category] += 1
        if self._grouped:
            self._user_ratings[rater].append(position)
            self._review_ratings[review].append(position)
        self._mutated()
        return rating

    def add_trust(self, statement: TrustStatement) -> TrustStatement:
        """Record an explicit (binary) trust statement."""
        truster = self._user_pos.get(statement.truster_id)
        trustee = self._user_pos.get(statement.trustee_id)
        if truster is None or trustee is None:
            unknown = statement.truster_id if truster is None else statement.trustee_id
            raise IntegrityError(f"trust statement references unknown user {unknown!r}")
        key = truster << _PAIR_SHIFT | trustee
        if key in self._trusted:
            raise IntegrityError(
                f"trust: duplicate primary key "
                f"{(statement.truster_id, statement.trustee_id)!r}"
            )
        self._trust_truster.append(truster)
        self._trust_trustee.append(trustee)
        self._trusted.add(key)
        self._mutated()
        return statement

    # ------------------------------------------------------------------ reads

    def columns(self) -> CommunityColumns:
        """The cached columnar view of this community's reviews and ratings.

        The snapshot encodes the users, categories, reviews and ratings;
        every record is append-only and written through ``add_*``, so the
        four record counts the snapshot was built at identify it.  Objects
        and trust statements leave the cache current.  When the
        counts have grown, :meth:`CommunityColumns.refreshed` reads the
        appended tail of the record columns by position.  After ratings
        and users alone it costs what arrived: the new snapshot shares the
        review axis and the rating columns with the last one, appends each
        new rating to them and to its category's ratings, and carries
        computed count matrices forward.  A new review or category
        re-encodes the snapshot.  A snapshot already handed out never
        changes.
        """
        counts = (
            len(self._user_ids),
            len(self._category_ids),
            len(self._review_ids),
            len(self._rating_value),
        )
        cached = self._columns
        if cached is None:
            obs.add("community.columns.miss")
            with obs.span("community.columns.build", users=counts[0], ratings=counts[3]):
                self._columns = CommunityColumns.from_community(self)
            return self._columns
        if cached.counts == counts:
            obs.add("community.columns.hit")
            return cached
        obs.add("community.columns.refresh")
        with obs.span(
            "community.columns.refresh",
            new_reviews=counts[2] - cached.num_reviews,
            new_ratings=counts[3] - cached.num_ratings,
        ):
            self._columns = CommunityColumns.refreshed(cached, self)
        return self._columns

    def encoded_reviews(self) -> tuple[list[str], IntArray, IntArray]:
        """``(review ids, writer positions, category positions)`` of every
        review, in insertion order.

        Positions index :meth:`user_ids` and :meth:`category_ids`.  The
        arrays are fresh copies.
        """
        return (
            list(self._review_ids),
            np.array(self._review_writer, dtype=np.int64),
            np.array(self._review_category, dtype=np.int64),
        )

    def encoded_ratings(self, start: int = 0) -> tuple[IntArray, IntArray, FloatArray]:
        """``(rater positions, review positions, values)`` of the ratings
        from insertion position ``start`` on.

        Rater positions index :meth:`user_ids`; review positions are
        insertion positions, as in :meth:`encoded_reviews`.  The arrays are
        fresh copies.
        """
        return (
            np.array(self._rating_rater[start:], dtype=np.int64),
            np.array(self._rating_review[start:], dtype=np.int64),
            np.array(self._rating_value[start:], dtype=np.float64),
        )

    def user_ids(self) -> list[str]:
        """All user ids, in registration order."""
        return list(self._user_ids)

    def category_ids(self) -> list[str]:
        """All category ids, in registration order."""
        return list(self._category_ids)

    def object_ids(self, category_id: str | None = None) -> list[str]:
        """Object ids, optionally restricted to one category."""
        if category_id is None:
            return list(self._object_ids)
        category = self._category_pos.get(category_id)
        if category is None:
            return []
        self._group()
        ids = self._object_ids
        return [ids[o] for o in self._category_objects[category]]

    def has_user(self, user_id: str) -> bool:
        """Whether ``user_id`` is registered."""
        return user_id in self._user_pos

    def num_users(self) -> int:
        """Number of registered users."""
        return len(self._user_ids)

    def num_categories(self) -> int:
        """Number of registered categories."""
        return len(self._category_ids)

    def num_reviews(self, category_id: str | None = None) -> int:
        """Number of reviews (optionally within one category)."""
        if category_id is None:
            return len(self._review_ids)
        category = self._category_pos.get(category_id)
        if category is None:
            return 0
        self._group()
        return len(self._category_reviews[category])

    def num_ratings(self, category_id: str | None = None) -> int:
        """Number of review ratings (optionally within one category)."""
        if category_id is None:
            return len(self._rating_value)
        category = self._category_pos.get(category_id)
        return 0 if category is None else self._category_num_ratings[category]

    def reviews_in_category(self, category_id: str) -> list[Review]:
        """All reviews written in ``category_id``."""
        self._require_category(category_id)
        self._group()
        return [
            self._review_record(r)
            for r in self._category_reviews[self._category_pos[category_id]]
        ]

    def review_category(self, review_id: str) -> str:
        """The category a review belongs to."""
        review = self._require_review(review_id)
        return self._category_ids[self._review_category[review]]

    def review_writer(self, review_id: str) -> str:
        """The writer of a review."""
        review = self._require_review(review_id)
        return self._user_ids[self._review_writer[review]]

    def ratings_of_review(self, review_id: str) -> list[tuple[str, float]]:
        """``(rater_id, value)`` pairs for one review, in insertion order."""
        review = self._review_pos.get(review_id)
        if review is None:
            return []
        self._group()
        users, raters, values = self._user_ids, self._rating_rater, self._rating_value
        return [(users[raters[k]], values[k]) for k in self._review_ratings[review]]

    def reviews_by_writer(self, writer_id: str, category_id: str | None = None) -> list[str]:
        """Review ids written by ``writer_id`` (optionally in one category)."""
        writer = self._user_pos.get(writer_id)
        if writer is None:
            return []
        self._group()
        ids, reviews = self._review_ids, self._user_reviews[writer]
        if category_id is None:
            return [ids[r] for r in reviews]
        category = self._category_pos.get(category_id)
        categories = self._review_category
        return [ids[r] for r in reviews if categories[r] == category]

    def ratings_by_rater(
        self, rater_id: str, category_id: str | None = None
    ) -> list[tuple[str, float]]:
        """``(review_id, value)`` pairs rated by ``rater_id``."""
        rater = self._user_pos.get(rater_id)
        if rater is None:
            return []
        self._group()
        ids, reviews, values = self._review_ids, self._rating_review, self._rating_value
        ratings = self._user_ratings[rater]
        if category_id is None:
            return [(ids[reviews[k]], values[k]) for k in ratings]
        category = self._category_pos.get(category_id)
        categories = self._review_category
        return [
            (ids[reviews[k]], values[k])
            for k in ratings
            if categories[reviews[k]] == category
        ]

    def writing_counts(self, category_id: str) -> dict[str, int]:
        """``a^w``: reviews written per user in ``category_id`` (eq. 4)."""
        self._require_category(category_id)
        return self.columns().writing_counts(category_id)

    def rating_counts(self, category_id: str) -> dict[str, int]:
        """``a^r``: review ratings given per user in ``category_id`` (eq. 4)."""
        self._require_category(category_id)
        return self.columns().rating_counts(category_id)

    def rating_triples(self, category_id: str) -> list[tuple[str, str, float]]:
        """``(rater_id, review_id, value)`` triples given in ``category_id``.

        This is exactly the input the reference Step-1 oracle
        :func:`repro.perf.reference.solve_category` consumes (paper eqs.
        1-2 operate per category).
        """
        self._require_category(category_id)
        return self.columns().rating_triples(category_id)

    def trust_edges(self) -> list[tuple[str, str]]:
        """All explicit trust statements as ``(truster, trustee)`` pairs."""
        users = self._user_ids
        return [
            (users[i], users[j]) for i, j in zip(self._trust_truster, self._trust_trustee)
        ]

    def trusts(self, truster_id: str, trustee_id: str) -> bool:
        """Whether an explicit trust statement ``truster -> trustee`` exists."""
        truster = self._user_pos.get(truster_id)
        trustee = self._user_pos.get(trustee_id)
        if truster is None or trustee is None:
            return False
        return (truster << _PAIR_SHIFT | trustee) in self._trusted

    def num_trust_edges(self) -> int:
        """Number of explicit trust statements."""
        return len(self._trust_truster)

    def iter_users(self) -> Iterator[User]:
        """Iterate over every user, in registration order."""
        for user_id, name in zip(self._user_ids, self._user_names):
            yield User(user_id=user_id, name=name)

    def iter_categories(self) -> Iterator[Category]:
        """Iterate over every category, in registration order."""
        for category_id, name in zip(self._category_ids, self._category_names):
            yield Category(category_id=category_id, name=name)

    def iter_objects(self) -> Iterator[ReviewedObject]:
        """Iterate over every reviewed object, in registration order."""
        categories = self._category_ids
        for object_id, category, title in zip(
            self._object_ids, self._object_category, self._object_titles
        ):
            yield ReviewedObject(
                object_id=object_id, category_id=categories[category], title=title
            )

    def iter_ratings(self) -> Iterator[ReviewRating]:
        """Iterate over every rating in the community."""
        users, reviews = self._user_ids, self._review_ids
        for rater, review, value in zip(
            self._rating_rater, self._rating_review, self._rating_value
        ):
            yield ReviewRating(rater_id=users[rater], review_id=reviews[review], value=value)

    def iter_reviews(self) -> Iterator[Review]:
        """Iterate over every review in the community."""
        for position in range(len(self._review_ids)):
            yield self._review_record(position)

    # -------------------------------------------------------- pairwise relations

    def direct_connections(self) -> dict[tuple[str, str], list[float]]:
        """The relation ``R`` with rating values attached.

        Returns a map ``(rater i, writer j) -> [rating values i gave to
        reviews of j]``.  ``R_ij = 1`` in the paper iff the pair is present.
        The baseline ``B_ij`` is the mean of the value list.
        """
        return self.columns().direct_connections()

    # ------------------------------------------------------------------ bulk

    @classmethod
    def from_columns(cls, columns: RecordColumns, *, name: str = "community") -> "Community":
        """Build a community whole from its record columns.

        Every rule ``add_*`` checks is checked with array operations, and a
        rejected build raises what replaying the records through ``add_*``
        in kind order (users, categories, objects, reviews, ratings, trust)
        would, each record's model object built first:

        - :class:`ValidationError` for the first record whose model object
          cannot be built: an empty or non-string id, a name or title that
          is neither a string nor ``None``, a value off the helpfulness
          scale, a truster trusting themselves;
        - otherwise :class:`IntegrityError` for the first record ``add_*``
          rejects: a repeated id, a repeated (writer, object),
          (rater, review) or (truster, trustee) pair, a rater rating their
          own review.

        A reference column holding a position outside the list it indexes,
        or a column of the wrong length or dtype, names no record and
        raises :class:`ValidationError`.

        The community's :attr:`version` is its record count.
        """
        community = cls(name)
        with obs.span("community.build", **columns.counts()):
            community._build(columns)
        return community

    @classmethod
    def from_records(
        cls,
        *,
        name: str = "community",
        users: Iterable[User | str] = (),
        categories: Iterable[Category | str] = (),
        objects: Iterable[ReviewedObject] = (),
        reviews: Iterable[Review] = (),
        ratings: Iterable[ReviewRating] = (),
        trust: Iterable[TrustStatement] = (),
    ) -> "Community":
        """Build a community whole from record iterables, through :meth:`from_columns`.

        A bare-string user or category is registered with the name ``""``,
        as ``add_user`` does.  A rejected build raises what replaying the
        records through ``add_*`` in kind order would, a bare id's model
        object built first; a reference to an id no record registers is
        rejected as ``add_*`` rejects it.
        """
        user_ids, user_names = _ids_and_names(users, "user_id")
        category_ids, category_names = _ids_and_names(categories, "category_id")
        object_list, review_list = list(objects), list(reviews)
        rating_list, trust_list = list(ratings), list(trust)
        object_ids, object_category_ids, object_titles = _fields(
            object_list, "object_id", "category_id", "title"
        )
        review_ids, writer_ids, reviewed_ids = _fields(
            review_list, "review_id", "writer_id", "object_id"
        )
        rater_ids, rated_ids, values = _fields(rating_list, "rater_id", "review_id", "value")
        truster_ids, trustee_ids = _fields(trust_list, "truster_id", "trustee_id")
        user_pos, object_pos = _interned(user_ids), _interned(object_ids)
        columns = RecordColumns(
            users=user_ids,
            categories=category_ids,
            objects=object_ids,
            object_category=lookup(object_category_ids, _interned(category_ids)),
            reviews=review_ids,
            review_writer=lookup(writer_ids, user_pos),
            review_object=lookup(reviewed_ids, object_pos),
            rating_rater=lookup(rater_ids, user_pos),
            rating_review=lookup(rated_ids, _interned(review_ids)),
            rating_value=np.array(values, dtype=np.float64),
            trust_truster=lookup(truster_ids, user_pos),
            trust_trustee=lookup(trustee_ids, user_pos),
            user_names=user_names,
            category_names=category_names,
            object_titles=object_titles,
        )
        # an id no record registers has no position (-1): the replay stops
        # at the first record referencing one, unless it stopped earlier
        referencing: tuple[tuple[RecordKind, Sequence[Any], tuple[IntArray, ...]], ...] = (
            ("object", object_list, (columns.object_category,)),
            ("review", review_list, (columns.review_object, columns.review_writer)),
            ("rating", rating_list, (columns.rating_review, columns.rating_rater)),
            ("trust", trust_list, (columns.trust_truster, columns.trust_trustee)),
        )
        for kind, records, references in referencing:
            unknown = np.zeros(len(records), dtype=bool)
            for positions in references:
                unknown |= positions < 0
            if unknown.any():
                _replay_rejection(name, columns, kind, unknown, records)
        return cls.from_columns(columns, name=name)

    def record_columns(self) -> RecordColumns:
        """Every record as id lists and position columns, fresh copies.

        :meth:`from_columns` of the result builds a copy of this community.
        """
        return RecordColumns(
            users=list(self._user_ids),
            categories=list(self._category_ids),
            objects=list(self._object_ids),
            object_category=np.array(self._object_category, dtype=np.int64),
            reviews=list(self._review_ids),
            review_writer=np.array(self._review_writer, dtype=np.int64),
            review_object=np.array(self._review_object, dtype=np.int64),
            rating_rater=np.array(self._rating_rater, dtype=np.int64),
            rating_review=np.array(self._rating_review, dtype=np.int64),
            rating_value=np.array(self._rating_value, dtype=np.float64),
            trust_truster=np.array(self._trust_truster, dtype=np.int64),
            trust_trustee=np.array(self._trust_trustee, dtype=np.int64),
            user_names=list(self._user_names),
            category_names=list(self._category_names),
            object_titles=list(self._object_titles),
        )

    def summary(self) -> dict[str, int]:
        """Record counts of every entity kind."""
        return {
            "users": len(self._user_ids),
            "categories": len(self._category_ids),
            "objects": len(self._object_ids),
            "reviews": len(self._review_ids),
            "ratings": len(self._rating_value),
            "trust": len(self._trust_truster),
        }

    # ------------------------------------------------------------------ internal

    def _build(self, columns: RecordColumns) -> None:
        """Check ``columns`` as :meth:`from_columns` documents, then store them."""
        users, categories = columns.users, columns.categories
        objects, reviews = columns.objects, columns.reviews
        num_users, num_categories = len(users), len(categories)
        num_objects, num_reviews = len(objects), len(reviews)
        values = _values("rating_value", columns.rating_value)
        num_ratings, num_trust = values.size, len(columns.trust_truster)
        object_category = _positions(
            "object_category", columns.object_category, num_objects, num_categories
        )
        writer = _positions("review_writer", columns.review_writer, num_reviews, num_users)
        obj = _positions("review_object", columns.review_object, num_reviews, num_objects)
        rater = _positions("rating_rater", columns.rating_rater, num_ratings, num_users)
        review = _positions("rating_review", columns.rating_review, num_ratings, num_reviews)
        truster = _positions("trust_truster", columns.trust_truster, num_trust, num_users)
        trustee = _positions("trust_trustee", columns.trust_trustee, num_trust, num_users)
        user_names = _texts("user_names", columns.user_names, num_users)
        category_names = _texts("category_names", columns.category_names, num_categories)
        object_titles = _texts("object_titles", columns.object_titles, num_objects)

        # the first record whose model object cannot be built raises its
        # ValidationError, in kind order
        invalid: tuple[tuple[RecordKind, int | None], ...] = (
            ("user", _first_invalid(users, user_names)),
            ("category", _first_invalid(categories, category_names)),
            ("object", _first_invalid(objects, object_titles)),
            ("review", _first_invalid(reviews, None)),
            ("rating", first_true(~on_scale(values))),
            ("trust", first_true(truster == trustee)),
        )
        for kind, bad in invalid:
            if bad is not None:
                columns.record(kind, bad)

        # then the first record add_* rejects: a mask is built only when a
        # count shows a repeated key or there is a self-rating
        user_pos, category_pos = _interned(users), _interned(categories)
        object_pos, review_pos = _interned(objects), _interned(reviews)
        registered: tuple[tuple[RecordKind, Sequence[str], dict[str, int]], ...] = (
            ("user", users, user_pos),
            ("category", categories, category_pos),
            ("object", objects, object_pos),
        )
        for kind, ids, positions in registered:
            if len(positions) < len(ids):
                _replay_rejection(self.name, columns, kind, repeats(lookup(ids, positions)))
        reviewed_keys = writer << _PAIR_SHIFT | obj
        rated_keys = rater << _PAIR_SHIFT | review
        trusted_keys = truster << _PAIR_SHIFT | trustee
        reviewed, rated = set(reviewed_keys.tolist()), set(rated_keys.tolist())
        trusted = set(trusted_keys.tolist())
        if len(review_pos) < num_reviews or len(reviewed) < num_reviews:
            repeated = repeats(lookup(reviews, review_pos)) | repeats(reviewed_keys)
            _replay_rejection(self.name, columns, "review", repeated)
        own = rater == writer[review]
        if len(rated) < num_ratings or own.any():
            _replay_rejection(self.name, columns, "rating", own | repeats(rated_keys))
        if len(trusted) < num_trust:
            _replay_rejection(self.name, columns, "trust", repeats(trusted_keys))

        review_category = object_category[obj]
        self._user_ids, self._user_pos = list(users), user_pos
        self._user_names = user_names
        self._category_ids, self._category_pos = list(categories), category_pos
        self._category_names = category_names
        self._object_ids, self._object_pos = list(objects), object_pos
        self._object_titles = object_titles
        self._review_ids, self._review_pos = list(reviews), review_pos
        self._object_category = _int_column(object_category)
        self._review_writer = _int_column(writer)
        self._review_object = _int_column(obj)
        self._review_category = _int_column(review_category)
        self._rating_rater = _int_column(rater)
        self._rating_review = _int_column(review)
        self._rating_value.frombytes(values.tobytes())
        self._trust_truster = _int_column(truster)
        self._trust_trustee = _int_column(trustee)
        self._reviewed, self._rated, self._trusted = reviewed, rated, trusted
        self._category_num_ratings = np.bincount(
            review_category[review], minlength=num_categories
        ).tolist()
        self._grouped = False
        self._version = sum(columns.counts().values())

    def _group(self) -> None:
        """Build the position lists from the record columns, unless built."""
        if not self._grouped:
            num_users, num_categories = len(self._user_ids), len(self._category_ids)
            self._category_objects = _groups(self._object_category, num_categories)
            self._category_reviews = _groups(self._review_category, num_categories)
            self._user_reviews = _groups(self._review_writer, num_users)
            self._user_ratings = _groups(self._rating_rater, num_users)
            self._review_ratings = _groups(self._rating_review, len(self._review_ids))
            self._grouped = True

    def _require_category(self, category_id: str) -> None:
        if category_id not in self._category_pos:
            raise ValidationError(f"unknown category {category_id!r}")

    def _require_review(self, review_id: str) -> int:
        review = self._review_pos.get(review_id)
        if review is None:
            raise ValidationError(f"unknown review {review_id!r}")
        return review

    def _review_record(self, position: int) -> Review:
        return Review(
            review_id=self._review_ids[position],
            writer_id=self._user_ids[self._review_writer[position]],
            object_id=self._object_ids[self._review_object[position]],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.summary()
        return (
            f"Community({self.name!r}: users={s['users']}, reviews={s['reviews']}, "
            f"ratings={s['ratings']}, trust={s['trust']})"
        )


# ---------------------------------------------------------------- bulk build


def _replay_rejection(
    name: str,
    columns: RecordColumns,
    kind: RecordKind,
    rejected: BoolArray,
    records: Sequence[Any] | None = None,
) -> NoReturn:
    """Raise what ``add_<kind>`` raises for the first ``rejected`` record.

    Every record before it passes the bulk checks, so a community built
    whole from those stands where a replay through ``add_*`` stood when
    it reached the record.  The record is ``records[index]`` when given,
    else built from ``columns``.
    """
    index = int(np.argmax(rejected))
    record = columns.record(kind, index) if records is None else records[index]
    community = Community.from_columns(columns.prefix(kind, index), name=name)
    getattr(community, f"add_{kind}")(record)
    raise AssertionError(f"add_{kind} accepted {record!r}, which the bulk check rejected")


def _ids_and_names(
    records: Iterable[Any], id_attribute: str
) -> tuple[list[str], list[str | None]]:
    """Ids and names of users or categories given as model objects or bare ids.

    A bare id has neither attribute: ``getattr``'s default makes it its
    own id, named ``""``.
    """
    listed = list(records)
    attribute: Callable[[Any, str, Any], Any] = getattr
    ids = list(map(attribute, listed, repeat(id_attribute), listed))
    names = list(map(attribute, listed, repeat("name"), repeat("")))
    return ids, names


def _fields(records: Sequence[Any], *attributes: str) -> list[list[Any]]:
    """The named attributes of every record, one list per attribute.

    One pass per attribute: no per-record tuple is built.
    """
    return [list(map(attrgetter(name), records)) for name in attributes]


def _interned(ids: Sequence[str]) -> dict[str, int]:
    """``{id: position}``; a repeated id keeps its last position."""
    return dict(zip(ids, range(len(ids))))


def _positions(field: str, values: Any, length: int, bound: int) -> IntArray:
    """``values`` as ``length`` int64 positions, each in ``[0, bound)``."""
    array = np.asarray(values)
    if array.size == 0 and length == 0:
        return np.empty(0, dtype=np.int64)
    if array.shape != (length,) or array.dtype.kind not in "iu":
        raise ValidationError(
            f"{field} must hold {length} integer positions, "
            f"got {array.dtype} of shape {array.shape}"
        )
    bad = first_true((array < 0) | (array >= bound))
    if bad is not None:
        raise ValidationError(f"{field}[{bad}] is {array[bad]}, not a position below {bound}")
    return array.astype(np.int64, copy=False)


def _values(field: str, values: Any) -> FloatArray:
    """``values`` as a 1-D float64 array."""
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "fiu"):
        raise ValidationError(
            f"{field} must be 1-D numbers, got {array.dtype} of shape {array.shape}"
        )
    return array.astype(np.float64)


def _texts(field: str, texts: Sequence[str | None] | None, length: int) -> list[str | None]:
    """Names or titles, ``""`` each when ``texts`` is ``None``."""
    if texts is None:
        return [""] * length
    if len(texts) != length:
        raise ValidationError(f"{field} must hold {length} entries, got {len(texts)}")
    return list(texts)


def _text(texts: Sequence[str | None] | None, index: int) -> str | None:
    return "" if texts is None else texts[index]


def _first_invalid(ids: Sequence[Any], texts: Sequence[Any] | None) -> int | None:
    """The first record whose id is empty or not a string, or whose name or
    title is neither a string nor ``None``."""
    if (
        "" not in ids
        and set(map(type, ids)) <= {str}
        and (texts is None or set(map(type, texts)) <= {str, type(None)})
    ):
        return None
    for index, record_id in enumerate(ids):
        text = None if texts is None else texts[index]
        if not (isinstance(record_id, str) and record_id and isinstance(text, (str, type(None)))):
            return index
    return None  # ids or texts of a str subclass


def _int_column(values: IntArray) -> array[int]:
    """An append-only record column holding ``values``."""
    column = array("q")
    column.frombytes(values.tobytes())
    return column


def _groups(column: array[int], size: int) -> list[list[int]]:
    """The positions of each key ``0 .. size - 1`` in ``column``, ascending."""
    keys = np.array(column, dtype=np.int64)
    order = np.argsort(keys, kind="stable").tolist()
    ends = np.cumsum(np.bincount(keys, minlength=size)).tolist()
    return [order[start:end] for start, end in zip([0, *ends[:-1]], ends)]
