"""Version counter and columns() cache currency across all mutators.

Invariant (satellite of the R1 lint rule): every successful ``add_*`` call
bumps ``Community.version`` exactly once and the next ``columns()`` call
reflects it; failed adds leave both untouched.  A community built whole
starts at its record count, the version the same adds would reach, and
keeps the invariant.  Mutations the snapshot
encodes (users, categories, reviews, ratings) produce a new snapshot
object; object/trust adds are cache hits, because the columnar view
does not encode them.  A refreshed snapshot always equals a cold build of
the same records.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import IntegrityError, ValidationError
from repro.community import (
    HELPFULNESS_SCALE,
    Community,
    CommunityColumns,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.engine import clone_community

MUTATIONS = [
    ("add_user", lambda c: c.add_user("frank")),
    ("add_category", lambda c: c.add_category("music")),
    ("add_object", lambda c: c.add_object(ReviewedObject("m3", "movies"))),
    ("add_review", lambda c: c.add_review(Review("rb2", "bob", "m2"))),
    ("add_rating", lambda c: c.add_rating(ReviewRating("carol", "ra1", 0.8))),
    ("add_trust", lambda c: c.add_trust(TrustStatement("carol", "bob"))),
]

# Every add the community rejects: (id, call, exception class).  The
# fixture is ``two_category_community`` (see conftest.py).
REJECTED = [
    ("dup-user", lambda c: c.add_user("alice"), IntegrityError),
    ("dup-category", lambda c: c.add_category("movies"), IntegrityError),
    (
        "dup-object",
        lambda c: c.add_object(ReviewedObject("m1", "movies")),
        IntegrityError,
    ),
    (
        "dup-review",
        lambda c: c.add_review(Review("ra1", "eve", "b1")),
        IntegrityError,
    ),
    (
        "dup-rating",
        lambda c: c.add_rating(ReviewRating("bob", "ra1", 0.2)),
        IntegrityError,
    ),
    (
        "dup-trust",
        lambda c: c.add_trust(TrustStatement("bob", "alice")),
        IntegrityError,
    ),
    (
        "object-no-category",
        lambda c: c.add_object(ReviewedObject("x1", "ghost")),
        IntegrityError,
    ),
    (
        "review-no-object",
        lambda c: c.add_review(Review("rx", "eve", "ghost")),
        IntegrityError,
    ),
    (
        "review-no-writer",
        lambda c: c.add_review(Review("rx", "ghost", "b1")),
        IntegrityError,
    ),
    (
        "second-review",
        lambda c: c.add_review(Review("rx", "alice", "m1")),
        IntegrityError,
    ),
    (
        "rating-no-review",
        lambda c: c.add_rating(ReviewRating("eve", "ghost", 0.2)),
        IntegrityError,
    ),
    (
        "rating-no-rater",
        lambda c: c.add_rating(ReviewRating("ghost", "ra1", 0.2)),
        IntegrityError,
    ),
    (
        "self-rating",
        lambda c: c.add_rating(ReviewRating("alice", "ra1", 1.0)),
        IntegrityError,
    ),
    (
        "trust-no-truster",
        lambda c: c.add_trust(TrustStatement("ghost", "alice")),
        IntegrityError,
    ),
    (
        "trust-no-trustee",
        lambda c: c.add_trust(TrustStatement("alice", "ghost")),
        IntegrityError,
    ),
]


class TestSingleMutators:
    @pytest.mark.parametrize("mutate", [m for _, m in MUTATIONS], ids=[n for n, _ in MUTATIONS])
    def test_bumps_version_exactly_once(self, two_category_community, mutate):
        before = two_category_community.version
        mutate(two_category_community)
        assert two_category_community.version == before + 1

    ENCODED = ("add_user", "add_category", "add_review", "add_rating")

    @pytest.mark.parametrize("name,mutate", MUTATIONS, ids=[n for n, _ in MUTATIONS])
    def test_columns_cache_stays_current(self, two_category_community, name, mutate):
        cached = two_category_community.columns()
        assert two_category_community.columns() is cached  # stable when idle
        mutate(two_category_community)
        rebuilt = two_category_community.columns()
        if name in self.ENCODED:
            assert rebuilt is not cached
        else:
            # object/trust adds are cache hits: the snapshot encodes
            # neither, so the cached view is still the current one
            assert rebuilt is cached
        assert two_category_community.columns() is rebuilt

    @pytest.mark.parametrize(
        "mutate,error", [(m, e) for _, m, e in REJECTED], ids=[n for n, _, _ in REJECTED]
    )
    def test_rejected_add(self, two_category_community, mutate, error):
        """A rejected add leaves version, log, records and snapshot alone."""
        community = two_category_community
        cached = community.columns()
        version = community.version
        epoch = community.change_log.epoch
        summary = community.summary()
        with pytest.raises(error):
            mutate(community)
        assert community.version == version
        assert community.change_log.epoch == epoch
        assert community.summary() == summary
        assert community.columns() is cached

    def test_name_must_be_an_identifier(self):
        with pytest.raises(ValidationError):
            Community("not an identifier")

    def test_versions_are_per_community(self, two_category_community):
        community = two_category_community
        replica = clone_community(community)
        assert replica.version == community.version
        replica.add_user("frank")
        assert community.version == replica.version - 1
        assert "frank" not in community.user_ids()
        fresh = Community("fresh")
        fresh.add_user("u1")
        assert (fresh.version, Community("other").version) == (1, 0)

    def test_change_log_is_a_read_only_view_of_the_version(self, two_category_community):
        community = two_category_community
        view = community.change_log
        assert vars(view) == {"epoch": community.version}
        view.epoch = 0  # a copy: the community does not see this
        assert community.change_log.epoch == community.version
        with pytest.raises(AttributeError):
            community.change_log = view


# ----------------------------------------------------------------- property test

# ratings are the common mutation; listing them thrice lets several land
# between two reads, which the ratings-only refresh must splice in order
OPS = (
    "user",
    "category",
    "object",
    "review",
    "rating",
    "rating",
    "rating",
    "trust",
    "read",
)


# two categories, then a review in the second before one in the first, so
# the category-major review axis is not the insertion order; two more users
# can rate both reviews
INTERLEAVED = (
    ("category", 0),
    ("category", 0),
    ("review", 7),
    ("review", 14),
    ("user", 0),
    ("user", 0),
)


class MutationDriver:
    """Applies valid mutations, counting the add_* calls made.

    ``pick`` chooses among the records already present, so reviews and
    ratings land on existing writers, raters, objects, reviews and
    categories as well as on fresh ones.
    """

    def __init__(self, start=()):
        self.community = Community("prop")
        self.counters = dict.fromkeys(("user", "category", "object", "review"), 0)
        self.users = []
        self.categories = []
        self.objects = []
        self.writers = {}  # review id -> writer
        self.reviewed = set()  # (writer, object)
        self.rated = set()  # (rater, review)
        for op, pick in start:
            self.apply(op, pick)

    def _fresh(self, kind):
        self.counters[kind] += 1
        return f"{kind}{self.counters[kind]}"

    def _user(self, pick=None):
        if pick is not None and self.users:
            return self.users[pick // 3 % len(self.users)], 0
        user_id = self._fresh("user")
        self.community.add_user(user_id)
        self.users.append(user_id)
        return user_id, 1

    def _category(self, pick=None):
        if pick is not None and self.categories:
            return self.categories[pick // 7 % len(self.categories)], 0
        category_id = self._fresh("category")
        self.community.add_category(category_id)
        self.categories.append(category_id)
        return category_id, 1

    def _object(self, pick):
        # a third of the new objects open a fresh category, so reviews of
        # several categories interleave and the review axis reorders
        category_id, adds = self._category(pick if pick % 3 else None)
        object_id = self._fresh("object")
        self.community.add_object(ReviewedObject(object_id, category_id))
        self.objects.append(object_id)
        return object_id, adds + 1

    def _review(self, pick):
        writer, adds = self._user(pick)
        open_objects = [o for o in self.objects if (writer, o) not in self.reviewed]
        if open_objects and pick % 2:
            object_id = open_objects[pick % len(open_objects)]
        else:
            object_id, n = self._object(pick)
            adds += n
        review_id = self._fresh("review")
        self.community.add_review(Review(review_id, writer, object_id))
        self.writers[review_id] = writer
        self.reviewed.add((writer, object_id))
        return review_id, adds + 1

    def apply(self, op, pick):
        """Run one operation; returns the number of add_* calls it made."""
        community = self.community
        if op == "user":
            return self._user()[1]
        if op == "category":
            return self._category()[1]
        if op == "object":
            return self._object(pick)[1]
        if op == "review":
            return self._review(pick)[1]
        if op == "rating":
            open_pairs = [
                (rater, review_id)
                for review_id, writer in self.writers.items()
                for rater in self.users
                if rater != writer and (rater, review_id) not in self.rated
            ]
            adds = 0
            if open_pairs and pick % 4:
                rater, review_id = open_pairs[pick % len(open_pairs)]
            else:
                review_id, adds = self._review(pick)
                rater, n = self._user()  # fresh id, never the writer
                adds += n
            value = HELPFULNESS_SCALE[pick % len(HELPFULNESS_SCALE)]
            community.add_rating(ReviewRating(rater, review_id, value))
            self.rated.add((rater, review_id))
            return adds + 1
        if op == "trust":
            truster, n1 = self._user(pick)
            trustee, n2 = self._user()
            community.add_trust(TrustStatement(truster, trustee))
            return n1 + n2 + 1
        if op == "read":
            community.columns()
            return 0
        raise AssertionError(op)


def _encoded_counts(community):
    return (
        community.num_users(),
        len(community.category_ids()),
        community.num_reviews(),
        community.num_ratings(),
    )


def _column_arrays(columns):
    return {
        name: getattr(columns, name)
        for name in CommunityColumns.__slots__
        if not name.startswith("_") and isinstance(getattr(columns, name), np.ndarray)
    }


def assert_encodes(columns, community):
    """``columns`` holds exactly the community's records (a record scan)."""
    category_of = {obj.object_id: obj.category_id for obj in community.iter_objects()}
    order = {category_id: c for c, category_id in enumerate(community.category_ids())}
    axis = sorted(community.iter_reviews(), key=lambda r: order[category_of[r.object_id]])
    labels = columns.users.labels
    assert list(labels) == community.user_ids()
    assert columns.review_ids == tuple(review.review_id for review in axis)
    assert [labels[i] for i in columns.review_writer_idx.tolist()] == [
        review.writer_id for review in axis
    ]
    encoded = zip(
        columns.rater_idx.tolist(),
        columns.rating_review_idx.tolist(),
        columns.rating_values.tolist(),
    )
    assert [(labels[i], columns.review_ids[j], v) for i, j, v in encoded] == [
        (rating.rater_id, rating.review_id, rating.value)
        for rating in community.iter_ratings()
    ]


def assert_same_columns(got, want):
    """Every array of ``got`` equals ``want``'s in values and dtype."""
    assert got.users == want.users
    assert got.categories == want.categories
    assert got.review_ids == want.review_ids
    got_arrays, want_arrays = _column_arrays(got), _column_arrays(want)
    assert got_arrays.keys() == want_arrays.keys()
    for name, array in want_arrays.items():
        assert got_arrays[name].dtype == array.dtype, name
        assert np.array_equal(got_arrays[name], array), name


@given(
    start=st.sampled_from([(), INTERLEAVED]),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=1000)),
        max_size=24,
    ),
    whole_at=st.none() | st.integers(min_value=0, max_value=24),
)
@settings(max_examples=200, deadline=None)
# three ratings of existing reviews between two reads, two of them in one
# category: the ratings-only refresh splices them on a reordered axis
@example(
    start=INTERLEAVED,
    ops=[("read", 0), ("rating", 1), ("rating", 1), ("rating", 1), ("read", 0)],
    whole_at=None,
)
# the same on a community built whole from the interleaved start
@example(
    start=INTERLEAVED,
    ops=[("read", 0), ("rating", 1), ("rating", 1), ("rating", 1), ("read", 0)],
    whole_at=0,
)
def test_version_counts_successful_adds_and_columns_never_stale(start, ops, whole_at):
    """``whole_at``: before that op, the records so far are built whole
    (``from_columns``) and the ops go on on that community."""
    driver = MutationDriver(start)
    community = driver.community
    read = community.columns()
    read_counts = _encoded_counts(community)
    snapshots = []
    for step, (op, pick) in enumerate(ops):
        if step == whole_at:
            whole = Community.from_columns(community.record_columns(), name="prop")
            assert whole.version == whole.change_log.epoch == community.version
            driver.community = community = whole
            read, read_counts = community.columns(), _encoded_counts(community)
        before = community.version
        adds = driver.apply(op, pick)
        assert community.version == before + adds
        if op != "read":
            continue
        current = community.columns()
        if _encoded_counts(community) != read_counts:
            assert current is not read
        else:
            # pure object/trust growth: cache hit
            assert current is read
        assert len(current.users) == community.num_users()
        assert current.num_reviews == community.num_reviews()
        assert current.num_ratings == community.num_ratings()
        assert community.columns() is current
        assert_encodes(current, community)
        snapshots.append((current, {k: v.copy() for k, v in _column_arrays(current).items()}))
        read, read_counts = current, _encoded_counts(community)
    # the refreshed view equals a cold build of the same records
    cold = CommunityColumns.from_community(clone_community(community))
    assert_encodes(cold, community)
    assert_same_columns(community.columns(), cold)
    # and no snapshot handed out earlier changed under its holder
    for snapshot, arrays in snapshots:
        for name, array in arrays.items():
            assert np.array_equal(getattr(snapshot, name), array), name
