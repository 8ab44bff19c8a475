"""Tests for the structured change log: Delta records and epoch semantics."""

import pytest

from repro.common.errors import ValidationError
from repro.community import (
    ChangeLog,
    Community,
    Delta,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
)


class TestChangeLog:
    def test_fresh_log_is_empty_at_epoch_zero(self):
        log = ChangeLog()
        assert log.epoch == 0
        assert len(log) == 0
        assert log.since(0) == ()

    def test_log_starts_at_a_given_epoch_with_nothing_to_replay(self):
        log = ChangeLog(5)
        assert (log.epoch, log.floor, len(log)) == (5, 5, 0)
        assert log.since(5) == ()
        with pytest.raises(ValidationError):
            log.since(4)
        assert log.record("user", user_id="a").epoch == 6
        assert [d.epoch for d in log.since(5)] == [6]
        with pytest.raises(ValidationError):
            ChangeLog(-1)

    def test_record_assigns_monotonic_epochs(self):
        log = ChangeLog()
        first = log.record("user", user_id="alice")
        second = log.record("rating", user_id="bob", category_id="movies")
        assert (first.epoch, second.epoch) == (1, 2)
        assert log.epoch == 2
        assert list(log) == [first, second]

    def test_record_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ChangeLog().record("merge")

    def test_since_returns_suffix_oldest_first(self):
        log = ChangeLog()
        for i in range(4):
            log.record("user", user_id=f"u{i}")
        tail = log.since(2)
        assert [d.epoch for d in tail] == [3, 4]
        assert log.since(4) == ()
        assert len(log.since(0)) == 4

    @pytest.mark.parametrize("cursor", [-1, 5])
    def test_since_rejects_out_of_range_cursor(self, cursor):
        log = ChangeLog()
        log.record("user", user_id="a")
        with pytest.raises(ValidationError):
            log.since(cursor)

    def test_deltas_are_immutable(self):
        delta = ChangeLog().record("user", user_id="a")
        with pytest.raises(AttributeError):
            delta.kind = "trust"


class TestMutatorsEmitDeltas:
    """Every Community mutator appends exactly one structured delta (rule R7)."""

    def test_full_mutation_sequence(self):
        community = Community("log")
        community.add_user("alice")
        community.add_user("bob")
        community.add_category("movies")
        community.add_object(ReviewedObject("m1", "movies"))
        community.add_review(Review("r1", "alice", "m1"))
        community.add_rating(ReviewRating("bob", "r1", 0.8))
        community.add_trust(TrustStatement("bob", "alice"))

        log = community.change_log
        assert log.epoch == 7
        kinds = [d.kind for d in log]
        assert kinds == [
            "user", "user", "category", "object", "review", "rating", "trust",
        ]
        rating = log.since(5)[0]
        assert rating == Delta(
            epoch=6,
            kind="rating",
            user_id="bob",
            category_id="movies",
            target_id="r1",
        )
        trust = log.since(6)[0]
        assert (trust.user_id, trust.target_id) == ("bob", "alice")

    def test_review_delta_carries_object_category(self, two_category_community):
        epoch = two_category_community.change_log.epoch
        two_category_community.add_review(Review("rb7", "bob", "m2"))
        (delta,) = two_category_community.change_log.since(epoch)
        assert delta.kind == "review"
        assert delta.category_id == "movies"
        assert delta.user_id == "bob"

    def test_failed_mutation_logs_nothing(self, two_category_community):
        epoch = two_category_community.change_log.epoch
        from repro.common.errors import IntegrityError

        with pytest.raises(IntegrityError):
            two_category_community.add_review(Review("rx", "bob", "ghost"))
        assert two_category_community.change_log.epoch == epoch

    def test_logs_are_per_community(self):
        a, b = Community("a"), Community("b")
        a.add_user("u1")
        assert a.change_log.epoch == 1
        assert b.change_log.epoch == 0
        with pytest.raises(ValidationError):
            b.change_log.since(1)


class TestCompaction:
    def filled_log(self, n=5):
        log = ChangeLog()
        for i in range(n):
            log.record("user", user_id=f"u{i}")
        return log

    def test_compact_drops_prefix_and_advances_floor(self):
        log = self.filled_log(5)
        assert log.compact(3) == 3
        assert log.floor == 3
        assert len(log) == 2
        assert log.epoch == 5  # epochs are never renamed

    def test_retained_deltas_keep_their_epochs(self):
        log = self.filled_log(5)
        log.compact(3)
        assert [d.epoch for d in log.since(3)] == [4, 5]

    def test_compact_defaults_to_everything(self):
        log = self.filled_log(4)
        assert log.compact() == 4
        assert len(log) == 0
        assert log.since(4) == ()

    def test_since_rejects_cursor_below_floor(self):
        log = self.filled_log(5)
        log.compact(3)
        with pytest.raises(ValidationError, match=r"\[3, 5\]"):
            log.since(2)

    def test_compact_is_idempotent(self):
        log = self.filled_log(5)
        log.compact(3)
        assert log.compact(3) == 0
        assert log.compact(2) == 0  # below the floor is a no-op, not an error
        assert log.floor == 3

    def test_compact_rejects_out_of_range_point(self):
        log = self.filled_log(3)
        with pytest.raises(ValidationError):
            log.compact(7)
        with pytest.raises(ValidationError):
            log.compact(-1)

    def test_compact_empty_log_is_noop(self):
        log = ChangeLog()
        assert log.compact() == 0
        assert log.floor == 0

    def test_recording_resumes_after_compaction(self):
        log = self.filled_log(3)
        log.compact()
        delta = log.record("user", user_id="late")
        assert delta.epoch == 4
        assert log.since(3) == (delta,)
