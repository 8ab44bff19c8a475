"""A chain of ``Community.columns()`` refreshes against cold builds.

A ratings-only refresh appends to logs that later snapshots share, copies
no rating and carries the review axis and the count matrices forward; a
new review or category re-encodes the snapshot.  After every refresh in a
random chain of arrivals, each column, each category's ratings and both
count matrices must equal a cold :meth:`CommunityColumns.from_community`
build bit for bit, and every snapshot handed out earlier must still equal
the copy its holder took of it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.community import Community, CommunityColumns, Review, ReviewRating, ReviewedObject
from repro.engine import clone_community

#: every array a snapshot exposes, the category-major ``srt_*`` included
COLUMNS = (
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
)

OPS = ("rating", "user", "review", "category", "counts")
SCALE = (0.2, 0.4, 0.6, 0.8, 1.0)


class Chain:
    """A small community that grows one record at a time."""

    def __init__(self):
        self.community = Community("chain")
        self.users = [f"u{i}" for i in range(4)]
        self.reviews = []  # (review_id, writer)
        self.objects = []  # object ids
        self.categories = ["c0", "c1"]
        for user in self.users:
            self.community.add_user(user)
        for category in self.categories:
            self.community.add_category(category)
        for k in range(4):
            self._object(self.categories[k % 2])
        for k in range(3):
            self._review(k, k)
        for k in range(4):
            self._rating(k, k, SCALE[k])

    def _object(self, category):
        object_id = f"o{len(self.objects)}"
        self.community.add_object(ReviewedObject(object_id, category))
        self.objects.append(object_id)

    def _review(self, writer, target):
        review_id = f"r{len(self.reviews)}"
        writer_id = self.users[writer % len(self.users)]
        try:
            self.community.add_review(
                Review(review_id, writer_id, self.objects[target % len(self.objects)])
            )
        except Exception:
            return  # one review per (writer, object)
        self.reviews.append((review_id, writer_id))

    def _rating(self, pick, rater, value):
        review_id, writer = self.reviews[pick % len(self.reviews)]
        raters = [u for u in self.users if u != writer]
        try:
            self.community.add_rating(
                ReviewRating(raters[rater % len(raters)], review_id, value)
            )
        except Exception:
            pass  # one rating per (rater, review)

    def apply(self, op, pick, value):
        if op == "rating":
            self._rating(pick, pick // 3, value)
        elif op == "user":
            user = f"u{len(self.users)}"
            self.community.add_user(user)
            self.users.append(user)
            # a new user who rates at once: a ratings-only refresh on a
            # grown user axis
            self._rating(pick, len(self.users) - 1, value)
        elif op == "review":
            self._review(pick, pick // 2)
        elif op == "category":
            category = f"c{len(self.categories)}"
            self.community.add_category(category)
            self.categories.append(category)
            self._object(category)
        elif op == "counts":
            # computed count matrices are carried by the next refresh
            snapshot = self.community.columns()
            snapshot.rating_counts_matrix()
            snapshot.writing_counts_matrix()
        else:
            raise AssertionError(op)


def copy_of(snapshot):
    """Everything a holder can read from ``snapshot``, copied."""
    copy = {name: np.array(getattr(snapshot, name)) for name in COLUMNS}
    copy["writing_counts"] = snapshot.writing_counts_matrix().copy()
    copy["rating_counts"] = snapshot.rating_counts_matrix().copy()
    for c in range(len(snapshot.categories)):
        copy[f"category {c}"] = tuple(
            np.array(column) for column in snapshot.category_ratings(np.array([c]))
        )
    copy["axes"] = (snapshot.users.labels, snapshot.categories.labels, snapshot.review_ids)
    return copy


def assert_same(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if name == "axes":
            assert got[name] == value
            continue
        pairs = zip(got[name], value) if name.startswith("category") else [(got[name], value)]
        for left, right in pairs:
            assert left.dtype == right.dtype, name
            assert left.tobytes() == right.tobytes(), name


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 50), st.sampled_from(SCALE)),
        max_size=30,
    )
)
@settings(max_examples=120, deadline=None)
# ratings only, with a count read between two of them
@example(ops=[("rating", 1, 0.4), ("counts", 0, 0.2), ("rating", 5, 0.8), ("rating", 9, 1.0)])
# a new user, then a new category and a review in between ratings
@example(
    ops=[
        ("counts", 0, 0.2),
        ("user", 2, 0.6),
        ("rating", 4, 0.2),
        ("category", 0, 0.2),
        ("review", 7, 0.2),
        ("rating", 8, 1.0),
    ]
)
def test_every_refresh_equals_a_cold_build_and_kept_snapshots_hold(ops):
    chain = Chain()
    kept = []
    for op, pick, value in ops:
        chain.apply(op, pick, value)
        snapshot = chain.community.columns()
        cold = CommunityColumns.from_community(clone_community(chain.community))
        copy = copy_of(snapshot)
        assert_same(copy, copy_of(cold))
        kept.append((snapshot, copy))
    for snapshot, copy in kept:
        assert_same(copy_of(snapshot), copy)


def test_uncomputed_count_matrices_stay_lazy_and_equal_a_cold_build():
    chain = Chain()
    first = chain.community.columns()
    chain.apply("rating", 2, 0.6)
    chain.apply("user", 5, 0.8)
    refreshed = chain.community.columns()
    assert refreshed is not first
    cold = CommunityColumns.from_community(clone_community(chain.community))
    for name in ("writing_counts_matrix", "rating_counts_matrix"):
        assert getattr(refreshed, name)().tobytes() == getattr(cold, name)().tobytes()


def test_ratings_only_refresh_keeps_the_review_axis():
    chain = Chain()
    first = chain.community.columns()
    chain.apply("rating", 2, 0.6)
    refreshed = chain.community.columns()
    assert refreshed.review_ids is first.review_ids
    assert refreshed.review_writer_idx is first.review_writer_idx
    assert refreshed.num_ratings == first.num_ratings + 1


def test_two_refreshes_of_one_snapshot_do_not_share_appended_rows():
    """Refreshing one snapshot twice, for two communities that diverge
    after it, gives each its own ratings; only the first may append in
    place, and the snapshot itself stays as it was."""
    chain = Chain()
    chain.community.columns()
    chain.community.add_rating(ReviewRating("u3", "r1", 0.8))
    # a refreshed snapshot: its logs have room to append in place
    snapshot = chain.community.columns()
    before = copy_of(snapshot)
    other = clone_community(chain.community)
    chain.community.add_rating(ReviewRating("u0", "r2", 0.6))
    other.add_rating(ReviewRating("u3", "r0", 1.0))
    chain.community.add_rating(ReviewRating("u0", "r1", 0.4))
    other.add_rating(ReviewRating("u0", "r1", 0.2))
    communities = (chain.community, other)
    refreshed = [CommunityColumns.refreshed(snapshot, c) for c in communities]
    for community, columns in zip(communities, refreshed):
        cold = CommunityColumns.from_community(clone_community(community))
        assert_same(copy_of(columns), copy_of(cold))
    assert_same(copy_of(snapshot), before)
