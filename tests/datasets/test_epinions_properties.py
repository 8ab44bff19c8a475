"""Property tests: Epinions file round-trips on randomised communities, and
the loader against the record-by-record loader it replaced, on dirty files."""

import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import DatasetError, IntegrityError
from repro.community import (
    Community,
    HELPFULNESS_SCALE,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)
from repro.datasets import load_epinions_community, write_epinions_files


@st.composite
def random_communities(draw):
    """Small random-but-valid communities (2-6 users, 1-3 categories)."""
    num_users = draw(st.integers(2, 6))
    num_categories = draw(st.integers(1, 3))
    users = [f"user{i}" for i in range(num_users)]
    categories = [f"cat{k}" for k in range(num_categories)]

    community = Community("prop")
    for user in users:
        community.add_user(user)
    for category in categories:
        community.add_category(category)

    num_objects = draw(st.integers(1, 5))
    for o in range(num_objects):
        community.add_object(
            ReviewedObject(f"obj{o}", categories[o % num_categories])
        )

    review_count = 0
    for o in range(num_objects):
        for writer in users:
            if draw(st.booleans()):
                community.add_review(Review(f"rev{review_count}", writer, f"obj{o}"))
                review_count += 1

    for review in list(community.iter_reviews()):
        for rater in users:
            if rater != review.writer_id and draw(st.booleans()):
                value = draw(st.sampled_from(HELPFULNESS_SCALE))
                community.add_rating(ReviewRating(rater, review.review_id, value))

    for source in users:
        for target in users:
            if source != target and draw(st.integers(0, 4)) == 0:
                community.add_trust(TrustStatement(source, target))
    return community


class TestEpinionsRoundtripProperty:
    @given(random_communities())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_roundtrip_preserves_relations(self, tmp_path_factory, community):
        directory = str(tmp_path_factory.mktemp("epinions"))
        write_epinions_files(community, directory)
        reloaded = load_epinions_community(directory)

        assert reloaded.num_reviews() == community.num_reviews()
        assert reloaded.num_ratings() == community.num_ratings()
        assert set(reloaded.trust_edges()) == set(community.trust_edges())

        original = community.direct_connections()
        rebuilt = reloaded.direct_connections()
        assert set(rebuilt) == set(original)
        for pair, values in original.items():
            assert sorted(rebuilt[pair]) == pytest.approx(sorted(values))

        # category assignment of every review survives
        for review in community.iter_reviews():
            assert reloaded.review_category(
                review.review_id
            ) == community.review_category(review.review_id)


# ------------------------------------------------- the record-by-record oracle


def legacy_load(directory, *, skip_unknown_reviews=True, skip_self_ratings=True):
    """The loader as it was before it built communities whole: every line
    becomes a model object and one ``add_*`` call.  Kept as the oracle."""
    content_path = os.path.join(directory, "mc.txt")
    rating_path = os.path.join(directory, "rating.txt")
    trust_path = os.path.join(directory, "user_rating.txt")
    reviews = list(_legacy_content(content_path))
    community = Community("epinions")
    categories = sorted({category for _, _, _, category in reviews})
    users = {author_id for _, author_id, _, _ in reviews}
    ratings = list(_legacy_ratings(rating_path))
    users |= {member_id for _, member_id, _ in ratings}
    trust_edges = []
    if os.path.exists(trust_path):
        trust_edges = list(_legacy_trust(trust_path))
        for source, target in trust_edges:
            users |= {source, target}
    for uid in sorted(users):
        community.add_user(uid)
    for cid in categories:
        community.add_category(cid)
    seen_objects, known_reviews = set(), set()
    for review_id, author_id, subject_id, category in reviews:
        if subject_id not in seen_objects:
            community.add_object(ReviewedObject(subject_id, category))
            seen_objects.add(subject_id)
        community.add_review(Review(review_id, author_id, subject_id))
        known_reviews.add(review_id)
    seen_pairs = set()
    for review_id, member_id, value in ratings:
        if review_id not in known_reviews:
            if skip_unknown_reviews:
                continue
            raise DatasetError(f"rating references unknown review {review_id!r}")
        if (member_id, review_id) in seen_pairs:
            continue
        if skip_self_ratings and community.review_writer(review_id) == member_id:
            continue
        seen_pairs.add((member_id, review_id))
        community.add_rating(ReviewRating(member_id, review_id, value))
    seen_trust = set()
    for source, target in trust_edges:
        if source == target or (source, target) in seen_trust:
            continue
        seen_trust.add((source, target))
        community.add_trust(TrustStatement(source, target))
    return community


def _legacy_fields(path):
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield line_no, [field.strip() for field in line.split("|")]


def _legacy_content(path):
    first_seen = {}
    for line_no, fields in _legacy_fields(path):
        if len(fields) == 3:
            review_id, author_id, subject_id = fields
            category = "epinions"
        elif len(fields) >= 4:
            review_id, author_id, subject_id, category = fields[:4]
        else:
            raise DatasetError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}")
        known, known_line = first_seen.setdefault(subject_id, (category, line_no))
        if known != category:
            raise DatasetError(
                f"{path}:{line_no}: subject {subject_id!r} listed under category "
                f"{category!r}, but line {known_line} lists it under {known!r}"
            )
        yield review_id, author_id, subject_id, category


def _legacy_ratings(path):
    for line_no, fields in _legacy_fields(path):
        if len(fields) < 3:
            raise DatasetError(f"{path}:{line_no}: expected 3 fields, got {len(fields)}")
        review_id, member_id, raw = fields[:3]
        try:
            stars = int(raw)
        except ValueError as exc:
            raise DatasetError(f"{path}:{line_no}: bad rating {raw!r}") from exc
        if not 1 <= stars <= 5:
            raise DatasetError(f"{path}:{line_no}: rating must be 1..5, got {stars}")
        yield review_id, member_id, HELPFULNESS_SCALE[stars - 1]


def _legacy_trust(path):
    for line_no, fields in _legacy_fields(path):
        if len(fields) < 2:
            raise DatasetError(f"{path}:{line_no}: expected >=2 fields, got {len(fields)}")
        source, target = fields[:2]
        value = fields[2] if len(fields) >= 3 else "1"
        if value == "-1":
            continue
        if value != "1":
            raise DatasetError(f"{path}:{line_no}: trust value must be 1 or -1, got {value!r}")
        yield source, target


LOADER_DEFECTS = (
    "repeated-review-id",
    "second-review",
    "moved-subject",
    "short-content",
    "bad-stars",
    "short-rating",
    "bad-trust-value",
    "short-trust",
)


#: Field padding: none, ASCII blanks, or other characters ``str.strip``
#: removes, among them ``\x85``, ``\x0b``, ``\x0c`` and ``\x1c``, which
#: ``str.splitlines`` would take for line ends.
PADDINGS = (
    ("",),
    ("", " ", "\t"),
    ("", " ", "\xa0", "\u3000", "\x85", "\x0b", "\x0c", "\x1c", "\x1f"),
)

#: Line ends of one file: each as universal newlines read it, or mixed.
LINE_ENDS = (("\n",), ("\r\n",), ("\r",), ("\n", "\r\n", "\r"))

#: Lines every file may hold besides its records.
EXTRA_LINES = ("", "  ", "# note", "\t# note", "\u3000# a|b|c|d|e", "#")


@st.composite
def dirty_files(draw):
    """The text of mc.txt, rating.txt and user_rating.txt.

    A file set may have blank and comment lines, padded fields, ``\\r\\n``
    or lone ``\\r`` line ends, no final line end, an empty file, a ``#``
    inside ids, extra fields, 3-field and 4-field content rows in one file,
    unknown, repeated and self ratings, distrust, self and repeated trust;
    up to two lines are rejected outright.  Every id is non-empty.
    """
    mark = draw(st.sampled_from(["", "#"]))  # inside every id, never first
    users = [f"u{mark}{i}" for i in range(draw(st.integers(1, 5)))]
    subjects = {
        f"s{mark}{j}": draw(st.sampled_from(["c0", "c1", "c2"]))
        for j in range(draw(st.integers(1, 4)))
    }
    # content rows carry 3 fields (category "epinions") or 4, per subject
    content_widths = draw(st.sampled_from([(3,), (4,), (3, 4)]))
    width = {subject: draw(st.sampled_from(content_widths)) for subject in subjects}
    pairs = [(user, subject) for user in users for subject in sorted(subjects)]
    written = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=6))
    defects = draw(st.lists(st.sampled_from(LOADER_DEFECTS), max_size=2)) if draw(st.booleans()) else []
    padding = draw(st.sampled_from(PADDINGS))
    extra_fields = draw(st.sampled_from([(0,), (0, 1, 2)]))

    def line(fields, *, extra=True):
        if extra:
            fields = [*fields, *(f"x{k}" for k in range(draw(st.sampled_from(extra_fields))))]
        return "|".join(
            draw(st.sampled_from(padding)) + field + draw(st.sampled_from(padding))
            for field in fields
        )

    def insert(lines, text):
        lines.insert(draw(st.integers(0, len(lines))), text)

    def review(review_id, author, subject):
        if width.get(subject, 4) == 3:
            return line([review_id, author, subject], extra=False)
        return line([review_id, author, subject, subjects[subject]])

    content = [review(f"r{mark}{k}", *pair) for k, pair in enumerate(written)]
    reviews = [f"r{mark}{k}" for k in range(len(written))]
    subjects["s-new"] = "c0"
    if "repeated-review-id" in defects and written:
        insert(content, review(reviews[0], draw(st.sampled_from(users)), "s-new"))
    if "second-review" in defects and written:
        insert(content, review("r-second", *written[0]))
    if "moved-subject" in defects and written:
        insert(content, line(["r-moved", draw(st.sampled_from(users)), written[0][1], "c9"]))
    if "short-content" in defects:
        insert(content, "r-short|u0")

    rated = st.sampled_from([*reviews, *reviews, *reviews, "ghost"])
    triples = [
        (draw(rated), draw(st.sampled_from(users)), stars)
        for stars in draw(st.lists(st.sampled_from("12345"), min_size=1, max_size=10))
    ]
    if draw(st.booleans()):
        review_id, member, _ = draw(st.sampled_from(triples))
        insert(triples, (review_id, member, draw(st.sampled_from("12345"))))
    ratings = [line(list(triple)) for triple in triples]
    if "bad-stars" in defects:
        insert(ratings, line([draw(rated), "u0", draw(st.sampled_from(["0", "x"]))]))
    if "short-rating" in defects:
        insert(ratings, "r0|u0")

    trust = []
    for _ in range(draw(st.integers(0, 6))):
        value = draw(st.sampled_from([["1"], ["1"], ["-1"], []]))
        pair = [draw(st.sampled_from(users)), draw(st.sampled_from(users))]
        trust.append(line([*pair, *value], extra=bool(value)))
    if "bad-trust-value" in defects:
        insert(trust, "u0|u1|7")
    if "short-trust" in defects:
        insert(trust, "u0")

    texts = []
    for lines in (content, ratings, trust):
        if draw(st.integers(0, 9)) == 0:
            lines.clear()  # an empty file
        for _ in range(draw(st.integers(0, 2))):
            insert(lines, draw(st.sampled_from(EXTRA_LINES)))
        ends = draw(st.sampled_from(LINE_ENDS))
        last = draw(st.booleans())  # whether the last line has its line end
        texts.append(
            "".join(
                text + (draw(st.sampled_from(ends)) if k < len(lines) - 1 or last else "")
                for k, text in enumerate(lines)
            )
        )
    return texts


class TestLoaderMatchesTheRecordByRecordOracle:
    @given(
        files=dirty_files(),
        skip_unknown_reviews=st.booleans(),
        skip_self_ratings=st.booleans(),
        with_trust=st.booleans(),
    )
    @settings(
        max_examples=600,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_community_or_same_error(
        self, tmp_path_factory, files, skip_unknown_reviews, skip_self_ratings, with_trust
    ):
        directory = tmp_path_factory.mktemp("dirty")
        for name, text in zip(("mc.txt", "rating.txt", "user_rating.txt"), files):
            if name != "user_rating.txt" or with_trust:
                # bytes, so every line end reaches the loaders as drawn
                (directory / name).write_bytes(text.encode("utf-8"))
        flags = dict(skip_unknown_reviews=skip_unknown_reviews, skip_self_ratings=skip_self_ratings)
        try:
            want = legacy_load(str(directory), **flags)
        except (DatasetError, IntegrityError) as error:
            # every rejection is now a DatasetError naming its file and line
            with pytest.raises(DatasetError) as raised:
                load_epinions_community(str(directory), **flags)
            message = str(raised.value)
            assert message.endswith(str(error))
            assert re.match(r".*\.txt:\d+: ", message), message
            return
        got = load_epinions_community(str(directory), **flags)
        assert got.summary() == want.summary()
        assert got.version == want.version
        assert list(got.iter_users()) == list(want.iter_users())
        assert list(got.iter_categories()) == list(want.iter_categories())
        assert list(got.iter_objects()) == list(want.iter_objects())
        assert list(got.iter_reviews()) == list(want.iter_reviews())
        assert list(got.iter_ratings()) == list(want.iter_ratings())
        assert got.trust_edges() == want.trust_edges()
