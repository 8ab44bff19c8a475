"""Tests for the extended-Epinions-format loaders."""

import os

import pytest

from repro import obs
from repro.common.errors import DatasetError
from repro.community import Community, Review, ReviewRating, ReviewedObject, TrustStatement
from repro.datasets import (
    CommunityProfile,
    generate_community,
    load_epinions_community,
    write_epinions_files,
)


def write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@pytest.fixture
def epinions_dir(tmp_path):
    """A tiny, hand-written extended-Epinions dump."""
    write(
        tmp_path / "mc.txt",
        [
            "r1|alice|movie-1|movies",
            "r2|bob|movie-1|movies",
            "r3|alice|book-1|books",
        ],
    )
    write(
        tmp_path / "rating.txt",
        [
            "r1|bob|5",
            "r1|carol|4",
            "r2|carol|2",
            "r3|bob|3",
        ],
    )
    write(
        tmp_path / "user_rating.txt",
        [
            "bob|alice|1",
            "carol|alice|1",
            "carol|bob|-1",  # distrust: dropped
        ],
    )
    return str(tmp_path)


class TestLoading:
    def test_entities_loaded(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert set(community.user_ids()) == {"alice", "bob", "carol"}
        assert set(community.category_ids()) == {"books", "movies"}
        assert community.num_reviews() == 3
        assert community.num_ratings() == 4

    def test_star_ratings_mapped_to_scale(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert community.ratings_of_review("r1") == [("bob", 1.0), ("carol", 0.8)]
        assert community.ratings_of_review("r2") == [("carol", 0.4)]

    def test_distrust_edges_dropped(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert set(community.trust_edges()) == {("bob", "alice"), ("carol", "alice")}

    def test_categories_inherited_by_reviews(self, epinions_dir):
        community = load_epinions_community(epinions_dir)
        assert community.review_category("r3") == "books"

    def test_three_column_content_defaults_category(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|thing-1"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.category_ids() == ["epinions"]

    def test_missing_trust_file_ok(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|thing-1"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.num_trust_edges() == 0

    def test_trace_splits_parsing_and_the_build(self, epinions_dir):
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            community = load_epinions_community(epinions_dir)
        parse, build = recorder.roots
        assert (parse.name, build.name) == ("datasets.parse", "community.build")
        assert build.attributes == community.summary()

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        write(tmp_path / "mc.txt", ["# header", "", "r1|alice|thing-1"])
        write(tmp_path / "rating.txt", ["r1|bob|3", ""])
        community = load_epinions_community(str(tmp_path))
        assert community.num_reviews() == 1


class TestDirtyData:
    def test_missing_content_file(self, tmp_path):
        with pytest.raises(DatasetError, match="content file"):
            load_epinions_community(str(tmp_path))

    def test_missing_rating_file(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        with pytest.raises(DatasetError, match="rating file"):
            load_epinions_community(str(tmp_path))

    def test_unknown_review_skipped_by_default(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3", "ghost|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.num_ratings() == 1

    def test_unknown_review_raises_when_strict(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["ghost|bob|3"])
        with pytest.raises(DatasetError, match="unknown review"):
            load_epinions_community(str(tmp_path), skip_unknown_reviews=False)

    def test_self_ratings_skipped(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|alice|5", "r1|bob|3"])
        community = load_epinions_community(str(tmp_path))
        assert community.ratings_of_review("r1") == [("bob", 0.6)]

    def test_duplicate_rating_keeps_first(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|5", "r1|bob|1"])
        community = load_epinions_community(str(tmp_path))
        assert community.ratings_of_review("r1") == [("bob", 1.0)]

    def test_out_of_range_stars_rejected(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|9"])
        with pytest.raises(DatasetError, match="1..5"):
            load_epinions_community(str(tmp_path))

    def test_malformed_rating_value(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|five"])
        with pytest.raises(DatasetError, match="bad rating"):
            load_epinions_community(str(tmp_path))

    def test_short_content_line(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        with pytest.raises(DatasetError, match="expected 3 or 4"):
            load_epinions_community(str(tmp_path))

    def test_self_trust_dropped(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        write(tmp_path / "user_rating.txt", ["bob|bob|1", "bob|alice|1"])
        community = load_epinions_community(str(tmp_path))
        assert community.trust_edges() == [("bob", "alice")]

    def test_subject_under_two_categories_rejected(self, tmp_path):
        # the second review's subject already belongs to c1
        write(tmp_path / "mc.txt", ["r1|u1|s1|c1", "r2|u2|s1|c2"])
        write(tmp_path / "rating.txt", ["r1|u2|3"])
        with pytest.raises(DatasetError, match=r"mc\.txt:2: subject 's1' .* 'c2', but line 1 .* 'c1'"):
            load_epinions_community(str(tmp_path))

    def test_unknown_review_names_its_line_when_strict(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3", "# note", "ghost|bob|3"])
        with pytest.raises(
            DatasetError, match=r"rating\.txt:3: rating references unknown review 'ghost'"
        ):
            load_epinions_community(str(tmp_path), skip_unknown_reviews=False)

    def test_self_rating_names_its_line_when_kept(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3", "r1|alice|5"])
        with pytest.raises(
            DatasetError,
            match=r"rating\.txt:2: user 'alice' cannot rate their own review 'r1'",
        ):
            load_epinions_community(str(tmp_path), skip_self_ratings=False)

    def test_duplicate_review_id_names_its_line(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t", "", "r1|bob|u"])
        write(tmp_path / "rating.txt", ["r1|carol|3"])
        with pytest.raises(
            DatasetError, match=r"mc\.txt:3: reviews: duplicate primary key 'r1'"
        ):
            load_epinions_community(str(tmp_path))

    def test_second_review_of_a_subject_names_its_line(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t", "r2|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        with pytest.raises(
            DatasetError,
            match=r"mc\.txt:2: unique \(writer, object\) violated: 'alice' already reviewed 't'",
        ):
            load_epinions_community(str(tmp_path))

    @pytest.mark.parametrize(
        "content,ratings,trust,where,field",
        [
            (["r1|alice|t", "|bob|t"], ["r1|bob|3"], [], r"mc\.txt:2", "review"),
            (["r1| |t"], ["r1|bob|3"], [], r"mc\.txt:1", "author"),
            (["r1|alice||c"], ["r1|bob|3"], [], r"mc\.txt:1", "subject"),
            (["r1|alice|t|"], ["r1|bob|3"], [], r"mc\.txt:1", "category"),
            (["r1|alice|t"], ["r1|bob|3", "r1||3"], [], r"rating\.txt:2", "member"),
            (["r1|alice|t"], ["r1|bob|3"], ["bob|alice|1", "|alice|1"], r"user_rating\.txt:2", "truster"),
            (["r1|alice|t"], ["r1|bob|3"], ["bob||1"], r"user_rating\.txt:1", "trustee"),
        ],
    )
    def test_empty_id_names_its_line(self, tmp_path, content, ratings, trust, where, field):
        write(tmp_path / "mc.txt", content)
        write(tmp_path / "rating.txt", ratings)
        write(tmp_path / "user_rating.txt", trust)
        with pytest.raises(DatasetError, match=rf"{where}: empty {field} id"):
            load_epinions_community(str(tmp_path))

    def test_empty_id_of_a_distrust_line_is_dropped_with_it(self, tmp_path):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        write(tmp_path / "user_rating.txt", ["bob||-1", "bob|alice|1"])
        community = load_epinions_community(str(tmp_path))
        assert community.trust_edges() == [("bob", "alice")]

    def test_first_bad_line_of_a_file_raises(self, tmp_path):
        # a short line after a bad star value: the earlier line wins
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3", "r1|carol|0", "r1|dave"])
        with pytest.raises(DatasetError, match=r"rating\.txt:2: rating must be 1\.\.5, got 0"):
            load_epinions_community(str(tmp_path))

    @pytest.mark.parametrize("value", ["7", "abc"])
    def test_trust_value_other_than_one_or_minus_one_rejected(self, tmp_path, value):
        write(tmp_path / "mc.txt", ["r1|alice|t"])
        write(tmp_path / "rating.txt", ["r1|bob|3"])
        write(tmp_path / "user_rating.txt", ["bob|alice|1", f"alice|bob|{value}"])
        with pytest.raises(
            DatasetError, match=rf"user_rating\.txt:2: trust value must be 1 or -1, got '{value}'"
        ):
            load_epinions_community(str(tmp_path))


class TestRoundTrip:
    def test_synthetic_community_roundtrips(self, tmp_path):
        profile = CommunityProfile(
            num_users=60,
            category_names=("a", "b"),
            objects_per_category=15,
            num_advisors=5,
            num_top_reviewers=5,
        )
        original = generate_community(profile, seed=3).community
        write_epinions_files(original, str(tmp_path))
        reloaded = load_epinions_community(str(tmp_path))

        # same relations (users may differ: only active users appear in files)
        assert reloaded.num_reviews() == original.num_reviews()
        assert reloaded.num_ratings() == original.num_ratings()
        assert set(reloaded.trust_edges()) == set(original.trust_edges())
        original_pairs = original.direct_connections()
        reloaded_pairs = reloaded.direct_connections()
        assert set(reloaded_pairs) == set(original_pairs)
        for pair, values in original_pairs.items():
            assert sorted(reloaded_pairs[pair]) == sorted(values)

    def test_off_scale_value_rejected(self, tmp_path, monkeypatch, two_category_community):
        raters, reviews, values = two_category_community.encoded_ratings()
        values[3] += 0.05
        monkeypatch.setattr(
            two_category_community, "encoded_ratings", lambda: (raters, reviews, values)
        )
        with pytest.raises(DatasetError, match=r"value 0\.45 is not on the helpfulness"):
            write_epinions_files(two_category_community, str(tmp_path))

    def test_files_created(self, tmp_path, epinions_dir):
        community = load_epinions_community(epinions_dir)
        out = tmp_path / "out"
        write_epinions_files(community, str(out))
        assert sorted(os.listdir(out)) == ["mc.txt", "rating.txt", "user_rating.txt"]


def community_with(user="bob", category="books", obj="b1", review="r1", truster="carol"):
    """alice reviews ``obj`` in ``category``; ``user`` rates the review and
    ``truster`` trusts alice."""
    return Community.from_records(
        users=["alice", user, truster],
        categories=[category],
        objects=[ReviewedObject(obj, category)],
        reviews=[Review(review, "alice", obj)],
        ratings=[ReviewRating(user, review, 0.8)],
        trust=[TrustStatement(truster, "alice")],
    )


# one case per rule: (rule, the ids that break it, the error they raise)
UNWRITABLE = [
    ("separator", {"user": "b|ob"}, r"user 'b\|ob': an id holding '\|', '\\n' or '\\r'"),
    ("newline", {"obj": "b\n1"}, r"object 'b\\n1': an id holding"),
    ("carriage-return", {"category": "bo\roks"}, r"category 'bo\\roks': an id holding"),
    ("leading-space", {"user": " bob"}, r"user ' bob': an id with leading or trailing"),
    ("trailing-tab", {"review": "r1\t"}, r"review 'r1\\t': an id with leading or trailing"),
    ("hash-review-id", {"review": "#r1"}, r"review '#r1': an id starting with '#' would start"),
    (
        "hash-truster-id",
        {"truster": "#carol"},
        r"trust statement \('#carol', 'alice'\): a truster id starting with '#'",
    ),
]


class TestUnwritableIds:
    @pytest.mark.parametrize(
        "ids,match", [case[1:] for case in UNWRITABLE], ids=[case[0] for case in UNWRITABLE]
    )
    def test_refused_before_any_file_is_opened(self, tmp_path, ids, match):
        out = tmp_path / "out"
        with pytest.raises(DatasetError, match=match):
            write_epinions_files(community_with(**ids), str(out))
        assert not out.exists()

    def test_a_hash_after_the_first_character_or_off_a_line_start_round_trips(self, tmp_path):
        # "#bob" only rates, so it never starts a line
        original = community_with(user="#bob", category="#books", obj="b#1", review="r#1")
        write_epinions_files(original, str(tmp_path))
        reloaded = load_epinions_community(str(tmp_path))
        assert list(reloaded.iter_reviews()) == list(original.iter_reviews())
        assert list(reloaded.iter_ratings()) == list(original.iter_ratings())
        assert reloaded.trust_edges() == original.trust_edges()
