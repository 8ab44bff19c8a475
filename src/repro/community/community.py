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
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.common.arrays import FloatArray, IntArray
from repro.common.errors import IntegrityError, ValidationError
from repro.community.columnar import CommunityColumns
from repro.community.deltas import ChangeLog, DeltaKind
from repro.community.model import (
    Category,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)

__all__ = ["Community"]

# a pair of positions (a, b) is kept in a key set as the one int a << 32 | b
_PAIR_SHIFT = 32


class Community:
    """An Epinions-style review community.

    The community is the system of record for its data.  Every id is
    interned once, in registration order, and every record is stored as
    append-only integer-coded columns of those positions: a review holds
    its writer, object and category; a rating its rater, review and value.
    All writes go through typed ``add_*`` methods, which check the primary
    keys, the one-review-per-(writer, object) rule and every reference
    against integer key sets before anything is appended.
    """

    def __init__(self, name: str = "community") -> None:
        if not name.isidentifier():
            raise ValidationError(f"community name {name!r} is not a valid identifier")
        self.name = name
        self._version = 0
        self._log = ChangeLog()
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

        # record positions grouped for the point reads below
        self._category_objects: list[list[int]] = []
        self._category_reviews: list[list[int]] = []
        self._category_num_ratings: list[int] = []
        self._user_reviews: list[list[int]] = []
        self._user_ratings: list[list[int]] = []
        self._review_ratings: list[list[int]] = []

    # ------------------------------------------------------------------ writes

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every successful ``add_*`` call."""
        return self._version

    @property
    def change_log(self) -> ChangeLog:
        """The per-community delta log every mutator appends to."""
        return self._log

    def _mutated(self) -> None:
        self._version += 1

    def _record(
        self,
        kind: DeltaKind,
        *,
        user_id: str | None = None,
        category_id: str | None = None,
        target_id: str | None = None,
    ) -> None:
        """Publish one delta and bump the version (the R1/R7 write hook)."""
        self._log.record(
            kind, user_id=user_id, category_id=category_id, target_id=target_id
        )
        self._mutated()

    def add_user(self, user: User | str, name: str = "") -> User:
        """Register a user (accepts a :class:`User` or a bare id)."""
        if isinstance(user, str):
            user = User(user_id=user, name=name)
        if user.user_id in self._user_pos:
            raise IntegrityError(f"users: duplicate primary key {user.user_id!r}")
        self._user_pos[user.user_id] = len(self._user_ids)
        self._user_ids.append(user.user_id)
        self._user_names.append(user.name)
        self._user_reviews.append([])
        self._user_ratings.append([])
        self._record("user", user_id=user.user_id)
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
        self._category_objects.append([])
        self._category_reviews.append([])
        self._category_num_ratings.append(0)
        self._record("category", category_id=category.category_id)
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
        self._category_objects[category].append(position)
        self._record("object", category_id=obj.category_id, target_id=obj.object_id)
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
        self._user_reviews[writer].append(position)
        self._category_reviews[category].append(position)
        self._review_ratings.append([])
        self._record(
            "review",
            user_id=review.writer_id,
            category_id=self._category_ids[category],
            target_id=review.review_id,
        )
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
        self._user_ratings[rater].append(position)
        self._review_ratings[review].append(position)
        self._category_num_ratings[category] += 1
        self._record(
            "rating",
            user_id=rating.rater_id,
            category_id=self._category_ids[category],
            target_id=rating.review_id,
        )
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
        self._record(
            "trust", user_id=statement.truster_id, target_id=statement.trustee_id
        )
        return statement

    def touch(self, category_id: str | None = None) -> None:
        """Publish an explicit recompute request for ``category_id``.

        Adds no data; subscribers (e.g. the incremental Step-1 tracker)
        treat the named category -- or every category when ``None`` -- as
        dirty.  This is the change-log replacement for manual
        dirty-flagging.
        """
        if category_id is not None:
            self._require_category(category_id)
        self._record("touch", category_id=category_id)

    # ------------------------------------------------------------------ reads

    def columns(self) -> CommunityColumns:
        """The cached columnar view of this community's reviews and ratings.

        The snapshot encodes the users, categories, reviews and ratings;
        every record is append-only and written through ``add_*``, so the
        four record counts the snapshot was built at identify it.  Objects,
        trust statements and touches leave the cache current.  When the
        counts have grown, :meth:`CommunityColumns.refreshed` reads the
        appended tail of the record columns by position.  A snapshot
        already handed out never changes.
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
        return 0 if category is None else len(self._category_reviews[category])

    def num_ratings(self, category_id: str | None = None) -> int:
        """Number of review ratings (optionally within one category)."""
        if category_id is None:
            return len(self._rating_value)
        category = self._category_pos.get(category_id)
        return 0 if category is None else self._category_num_ratings[category]

    def reviews_in_category(self, category_id: str) -> list[Review]:
        """All reviews written in ``category_id``."""
        self._require_category(category_id)
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
        users, raters, values = self._user_ids, self._rating_rater, self._rating_value
        return [(users[raters[k]], values[k]) for k in self._review_ratings[review]]

    def reviews_by_writer(self, writer_id: str, category_id: str | None = None) -> list[str]:
        """Review ids written by ``writer_id`` (optionally in one category)."""
        writer = self._user_pos.get(writer_id)
        if writer is None:
            return []
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
        """Build a community from record iterables (order-safe)."""
        community = cls(name)
        for user in users:
            community.add_user(user)
        for cat in categories:
            community.add_category(cat)
        for obj in objects:
            community.add_object(obj)
        for review in reviews:
            community.add_review(review)
        for rating in ratings:
            community.add_rating(rating)
        for statement in trust:
            community.add_trust(statement)
        return community

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
