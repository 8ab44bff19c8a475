"""Building a community whole: ``from_columns`` / ``from_records`` against a
replay of the same records through ``add_*``.

The oracle builds every record's model object first (in kind order), then
adds them one by one to an empty community.  A whole build must either
raise the oracle's exception class and message, or hold exactly the
oracle's community on every public read -- and then accept or reject the
next ``add_*`` exactly as the oracle's community does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import IntegrityError, ValidationError
from repro.community import (
    HELPFULNESS_SCALE,
    Category,
    Community,
    CommunityColumns,
    RecordColumns,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)
from repro.engine import clone_community, extract_records

KINDS = ("users", "categories", "objects", "reviews", "ratings", "trust")
ADD = dict(zip(KINDS, ("add_user", "add_category", "add_object", "add_review", "add_rating", "add_trust")))

DEFECTS = (
    "dup-user",
    "dup-category",
    "dup-object",
    "dup-review",
    "second-review",
    "dup-rating",
    "dup-trust",
    "self-rating",
    "self-trust",
    "off-scale",
    "unknown-category",
    "unknown-object",
    "unknown-writer",
    "unknown-review",
    "unknown-rater",
    "unknown-truster",
    "unknown-trustee",
    "empty-user",
    "empty-category",
    "empty-object",
    "empty-review",
    "bad-name",
)


# ------------------------------------------------------------------ records


@st.composite
def record_sets(draw):
    """A valid community's raw records, then up to three injected defects.

    Users and categories are ``(id, name)``, objects ``(id, category,
    title)``, reviews ``(id, writer, object)``, ratings ``(rater, review,
    value)`` and trust ``(truster, trustee)``.
    """
    users = [(f"u{i}", draw(st.sampled_from(["", "Ann", None]))) for i in range(draw(st.integers(1, 5)))]
    categories = [(f"c{k}", "") for k in range(draw(st.integers(1, 3)))]
    objects = [
        (f"o{j}", draw(st.sampled_from(categories))[0], draw(st.sampled_from(["", "T"])))
        for j in range(draw(st.integers(0, 4)))
    ]
    reviews = []
    for object_id, _, _ in objects:
        for user_id, _ in users:
            if draw(st.booleans()):
                reviews.append((f"r{len(reviews)}", user_id, object_id))
    ratings = [
        (user_id, review_id, draw(st.sampled_from(HELPFULNESS_SCALE)))
        for review_id, writer, _ in reviews
        for user_id, _ in users
        if user_id != writer and draw(st.integers(0, 2)) == 0
    ]
    trust = [
        (a, b)
        for a, _ in users
        for b, _ in users
        if a != b and draw(st.integers(0, 3)) == 0
    ]
    records = {
        "users": users,
        "categories": categories,
        "objects": objects,
        "reviews": reviews,
        "ratings": ratings,
        "trust": trust,
    }
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=3)):
        _inject(draw, records, defect)
    return records


def _inject(draw, records, defect):
    def insert(kind, record):
        rows = records[kind]
        rows.insert(draw(st.integers(0, len(rows))), record)

    def pick(kind):
        rows = records[kind]
        return draw(st.sampled_from(rows)) if rows else None

    user, category = pick("users"), pick("categories")
    obj, review, rating, edge = pick("objects"), pick("reviews"), pick("ratings"), pick("trust")
    user_id = user[0] if user else "ghost"
    other = pick("users")
    other_id = other[0] if other else "ghost"
    category_id = category[0] if category else "ghost"
    object_id = obj[0] if obj else "ghost"
    review_id = review[0] if review else "ghost"
    if defect == "dup-user" and user:
        insert("users", (user_id, "dup"))
    elif defect == "dup-category" and category:
        insert("categories", (category_id, "dup"))
    elif defect == "dup-object" and obj:
        insert("objects", (object_id, category_id, ""))
    elif defect == "dup-review" and review:
        insert("reviews", (review_id, other_id, object_id))
    elif defect == "second-review" and review:
        insert("reviews", ("r-second", review[1], review[2]))
    elif defect == "dup-rating" and rating:
        insert("ratings", (rating[0], rating[1], 0.2))
    elif defect == "dup-trust" and edge:
        insert("trust", edge)
    elif defect == "self-rating" and review:
        insert("ratings", (review[1], review_id, 0.6))
    elif defect == "self-trust":
        insert("trust", (user_id, user_id))
    elif defect == "off-scale":
        insert("ratings", (other_id, review_id, draw(st.sampled_from([0.5, 1.3, math.nan]))))
    elif defect == "unknown-category":
        insert("objects", ("o-ghost", "ghost", ""))
    elif defect == "unknown-object":
        insert("reviews", ("r-ghost", user_id, "ghost"))
    elif defect == "unknown-writer":
        insert("reviews", ("r-ghost", "ghost", object_id))
    elif defect == "unknown-review":
        insert("ratings", (user_id, "ghost", 0.4))
    elif defect == "unknown-rater":
        insert("ratings", ("ghost", review_id, 0.4))
    elif defect == "unknown-truster":
        insert("trust", ("ghost", user_id))
    elif defect == "unknown-trustee":
        insert("trust", (user_id, "ghost"))
    elif defect == "empty-user":
        insert("users", ("", ""))
    elif defect == "empty-category":
        insert("categories", ("", ""))
    elif defect == "empty-object":
        insert("objects", ("", category_id, ""))
    elif defect == "empty-review":
        insert("reviews", ("", user_id, object_id))
    elif defect == "bad-name":
        insert("users", ("u-named", 5))


def models(records):
    """Every record's model object, built in kind order (may raise)."""
    return {
        "users": [User(i, n) for i, n in records["users"]],
        "categories": [Category(i, n) for i, n in records["categories"]],
        "objects": [ReviewedObject(*row) for row in records["objects"]],
        "reviews": [Review(*row) for row in records["reviews"]],
        "ratings": [ReviewRating(*row) for row in records["ratings"]],
        "trust": [TrustStatement(*row) for row in records["trust"]],
    }


def replay(records):
    """The oracle: model objects first, then one ``add_*`` call per record."""
    built = models(records)
    community = Community("whole")
    for kind in KINDS:
        for record in built[kind]:
            getattr(community, ADD[kind])(record)
    return community


def columns_of(records):
    """The records as :class:`RecordColumns`, or ``None`` when a reference
    names an id no record registers (no position can express it)."""
    first = {
        kind: {row[0]: p for p, row in reversed(list(enumerate(records[kind])))}
        for kind in ("users", "categories", "objects", "reviews")
    }

    def positions(kind, ids):
        if any(i not in first[kind] for i in ids):
            raise LookupError
        return np.array([first[kind][i] for i in ids], dtype=np.int64)

    def column(kind, k):
        return [row[k] for row in records[kind]]

    try:
        return RecordColumns(
            users=column("users", 0),
            categories=column("categories", 0),
            objects=column("objects", 0),
            object_category=positions("categories", column("objects", 1)),
            reviews=column("reviews", 0),
            review_writer=positions("users", column("reviews", 1)),
            review_object=positions("objects", column("reviews", 2)),
            rating_rater=positions("users", column("ratings", 0)),
            rating_review=positions("reviews", column("ratings", 1)),
            rating_value=np.array(column("ratings", 2), dtype=np.float64),
            trust_truster=positions("users", column("trust", 0)),
            trust_trustee=positions("users", column("trust", 1)),
            user_names=column("users", 1),
            category_names=column("categories", 1),
            object_titles=column("objects", 2),
        )
    except LookupError:
        return None


def outcome(build):
    try:
        return build(), None
    except (ValidationError, IntegrityError) as error:
        return None, (type(error), str(error))


# ------------------------------------------------------------------ reads


def column_arrays(columns):
    return {
        name: getattr(columns, name)
        for name in CommunityColumns.__slots__
        if not name.startswith("_") and isinstance(getattr(columns, name), np.ndarray)
    }


def assert_same_community(got, want):
    """``got`` and ``want`` agree on every public read."""
    assert got.summary() == want.summary()
    assert got.version == want.version == sum(want.summary().values())
    assert got.user_ids() == want.user_ids()
    assert got.category_ids() == want.category_ids()
    assert got.object_ids() == want.object_ids()
    assert list(got.iter_users()) == list(want.iter_users())
    assert list(got.iter_categories()) == list(want.iter_categories())
    assert list(got.iter_objects()) == list(want.iter_objects())
    assert list(got.iter_reviews()) == list(want.iter_reviews())
    assert list(got.iter_ratings()) == list(want.iter_ratings())
    assert got.trust_edges() == want.trust_edges()
    for a, b in zip(got.encoded_reviews(), want.encoded_reviews()):
        assert np.array_equal(a, b)
    for a, b in zip(got.encoded_ratings(), want.encoded_ratings()):
        assert np.array_equal(a, b) and a.dtype == b.dtype
    got_columns, want_columns = got.columns(), want.columns()
    assert got_columns.users == want_columns.users
    assert got_columns.review_ids == want_columns.review_ids
    for name, array in column_arrays(want_columns).items():
        assert np.array_equal(column_arrays(got_columns)[name], array), name
    assert got.direct_connections() == want.direct_connections()
    for category in want.category_ids():
        assert got.object_ids(category) == want.object_ids(category)
        assert got.reviews_in_category(category) == want.reviews_in_category(category)
        assert got.num_reviews(category) == want.num_reviews(category)
        assert got.num_ratings(category) == want.num_ratings(category)
        assert got.writing_counts(category) == want.writing_counts(category)
        assert got.rating_counts(category) == want.rating_counts(category)
    for user in [*want.user_ids(), "ghost"]:
        assert got.has_user(user) == want.has_user(user)
        assert got.reviews_by_writer(user) == want.reviews_by_writer(user)
        assert got.ratings_by_rater(user) == want.ratings_by_rater(user)
        for category in want.category_ids():
            assert got.reviews_by_writer(user, category) == want.reviews_by_writer(user, category)
            assert got.ratings_by_rater(user, category) == want.ratings_by_rater(user, category)
        for other in want.user_ids():
            assert got.trusts(user, other) == want.trusts(user, other)
    for review in want.iter_reviews():
        assert got.ratings_of_review(review.review_id) == want.ratings_of_review(
            review.review_id
        )
        assert got.review_category(review.review_id) == want.review_category(review.review_id)
        assert got.review_writer(review.review_id) == want.review_writer(review.review_id)


def next_adds(draw, community):
    """A rating, review and trust statement to try after the build."""
    users = [*community.user_ids(), "ghost"]
    reviews = [*(r.review_id for r in community.iter_reviews()), "ghost"]
    objects = [*community.object_ids(), "ghost"]
    truster = draw(st.sampled_from(users))
    trustee = draw(st.sampled_from([u for u in [*users, "u-new"] if u != truster]))
    return [
        ("add_rating", ReviewRating(draw(st.sampled_from(users)), draw(st.sampled_from(reviews)), 0.8)),
        (
            "add_review",
            Review(
                draw(st.sampled_from([*reviews, "r-new"])),
                draw(st.sampled_from(users)),
                draw(st.sampled_from(objects)),
            ),
        ),
        ("add_trust", TrustStatement(truster, trustee)),
    ]


def assert_next_adds_agree(draw, got, want):
    for method, record in next_adds(draw, want):
        assert outcome(lambda: getattr(got, method)(record))[1] == outcome(
            lambda: getattr(want, method)(record)
        )[1], (method, record)
        assert got.summary() == want.summary()
        assert got.version == want.version


# ------------------------------------------------------------------ tests


@given(records=record_sets(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_whole_builds_match_the_add_replay(records, data):
    want, error = outcome(lambda: replay(records))
    columns = columns_of(records)
    if columns is not None:
        got, got_error = outcome(lambda: Community.from_columns(columns, name="whole"))
        assert got_error == error
        if got is not None:
            assert_same_community(got, want)
            assert_next_adds_agree(data.draw, got, replay(records))
    try:
        built = models({**records, "users": [], "categories": []})
        # bare ids stand for users and categories named ""
        users = [i if n == "" else User(i, n) for i, n in records["users"]]
        categories = [i if n == "" else Category(i, n) for i, n in records["categories"]]
    except ValidationError:
        return  # a model object that cannot be built cannot be handed over
    got, got_error = outcome(
        lambda: Community.from_records(
            name="whole",
            users=users,
            categories=categories,
            objects=built["objects"],
            reviews=built["reviews"],
            ratings=built["ratings"],
            trust=built["trust"],
        )
    )
    assert got_error == error
    if got is not None:
        assert_same_community(got, want)
        assert_next_adds_agree(data.draw, got, replay(records))


# each add the fixture (``two_category_community``) rejects, as the last
# record of a whole build: (kind, record)
REJECTED = [
    ("users", User("alice")),
    ("categories", Category("movies")),
    ("objects", ReviewedObject("m1", "movies")),
    ("objects", ReviewedObject("x1", "ghost")),
    ("reviews", Review("ra1", "eve", "b1")),
    ("reviews", Review("rx", "eve", "ghost")),
    ("reviews", Review("rx", "ghost", "b1")),
    ("reviews", Review("rx", "alice", "m1")),
    ("ratings", ReviewRating("bob", "ra1", 0.2)),
    ("ratings", ReviewRating("eve", "ghost", 0.2)),
    ("ratings", ReviewRating("ghost", "ra1", 0.2)),
    ("ratings", ReviewRating("alice", "ra1", 1.0)),
    ("trust", TrustStatement("bob", "alice")),
    ("trust", TrustStatement("ghost", "alice")),
    ("trust", TrustStatement("alice", "ghost")),
]


@pytest.mark.parametrize("kind,record", REJECTED, ids=[repr(r) for _, r in REJECTED])
def test_rejected_record_raises_as_its_add_does(two_category_community, kind, record):
    records = extract_records(two_category_community).__dict__
    add = getattr(clone_community(two_category_community), ADD[kind])
    _, want = outcome(lambda: add(record))
    assert want is not None and want[0] is IntegrityError
    _, got = outcome(
        lambda: Community.from_records(
            name="fixture", **{**records, kind: (*records[kind], record)}
        )
    )
    assert got == want


class TestFromColumns:
    def test_state_is_the_add_replays(self, two_category_community):
        replica = Community.from_columns(two_category_community.record_columns(), name="c")
        assert replica.version == 5 + 2 + 3 + 4 + 6 + 3
        assert_same_community(replica, clone_community(two_category_community))

    def test_empty_columns_build_an_empty_community(self):
        empty = Community().record_columns()
        community = Community.from_columns(empty)
        assert community.summary() == Community().summary()
        assert community.version == 0

    def test_record_columns_are_copies(self, two_category_community):
        columns = two_category_community.record_columns()
        columns.rating_value[:] = 0.2
        columns.users.append("zed")
        assert two_category_community.ratings_of_review("ra1")[0] == ("bob", 1.0)
        assert "zed" not in two_category_community.user_ids()

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("review_writer", np.array([0, 1, 1, 9]), r"review_writer\[3\] is 9"),
            ("rating_review", np.array([0, 0, 1, 2, 3, -1]), r"rating_review\[5\] is -1"),
            ("trust_trustee", np.array([0, 0]), "must hold 3 integer positions"),
            ("object_category", np.array([0.0, 0.0, 1.0]), "integer positions"),
            ("rating_value", np.array([["x"]]), "1-D numbers"),
            ("user_names", ["a"], "must hold 5 entries"),
        ],
    )
    def test_malformed_columns_rejected(self, two_category_community, field, value, match):
        columns = two_category_community.record_columns()
        with pytest.raises(ValidationError, match=match):
            Community.from_columns(RecordColumns(**{**columns.__dict__, field: value}))

    def test_build_is_one_span_with_its_counts(self, two_category_community):
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            clone_community(two_category_community)
        (span,) = recorder.roots
        assert span.name == "community.build"
        assert span.attributes == two_category_community.summary()


# ------------------------------------------------------- point reads by key

POINT_READS = (
    "object_ids",
    "num_reviews",
    "reviews_in_category",
    "ratings_of_review",
    "reviews_by_writer",
    "ratings_by_rater",
)


def point_reads(community):
    """Each point read by key, as a call reading every key and an unknown one."""
    known = community.category_ids()
    categories, users = [*known, "ghost"], [*community.user_ids(), "ghost"]
    reviews = [*community.encoded_reviews()[0], "ghost"]
    return {
        "object_ids": lambda: [community.object_ids(c) for c in categories],
        "num_reviews": lambda: [community.num_reviews(c) for c in categories],
        "reviews_in_category": lambda: [community.reviews_in_category(c) for c in known],
        "ratings_of_review": lambda: [community.ratings_of_review(r) for r in reviews],
        "reviews_by_writer": lambda: [
            community.reviews_by_writer(u, c) for u in users for c in [None, *known]
        ],
        "ratings_by_rater": lambda: [
            community.ratings_by_rater(u, c) for u in users for c in [None, *known]
        ],
    }


def add_records(community):
    """A new user, category, object, review and ratings, some on old keys."""
    community.add_user("zed")
    community.add_category("music")
    community.add_object(ReviewedObject("s1", "music"))
    community.add_object(ReviewedObject("b2", "books"))
    community.add_review(Review("rz1", "zed", "b1"))
    community.add_review(Review("re1", "eve", "s1"))
    community.add_rating(ReviewRating("alice", "rz1", 0.4))
    community.add_rating(ReviewRating("eve", "ra1", 0.2))
    community.add_rating(ReviewRating("zed", "re1", 1.0))


@pytest.mark.parametrize("adds_first", [True, False], ids=["adds-then-reads", "reads-then-adds"])
@pytest.mark.parametrize("read", POINT_READS)
def test_point_reads_of_a_whole_build_match_the_add_replay(
    two_category_community, read, adds_first
):
    """Whichever point read comes first, and whether ``add_*`` ran before it
    or after, every point read agrees with the add replay's."""
    records = extract_records(two_category_community)
    whole = clone_community(two_category_community)
    want = Community("replay")
    for kind in KINDS:
        for record in getattr(records, kind):
            getattr(want, ADD[kind])(record)
    if adds_first:
        add_records(whole)
        add_records(want)
    assert point_reads(whole)[read]() == point_reads(want)[read]()
    if not adds_first:
        add_records(whole)
        add_records(want)
    for name in POINT_READS:
        assert point_reads(whole)[name]() == point_reads(want)[name](), name
