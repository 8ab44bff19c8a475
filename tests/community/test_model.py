"""Tests for community value types."""

import pytest

from repro.common.errors import ValidationError
from repro.community import (
    HELPFULNESS_SCALE,
    Category,
    Review,
    ReviewRating,
    ReviewedObject,
    TrustStatement,
    User,
)
from repro.community.model import is_on_scale


class TestHelpfulnessScale:
    def test_five_stages_matching_the_paper(self):
        assert HELPFULNESS_SCALE == (0.2, 0.4, 0.6, 0.8, 1.0)

    @pytest.mark.parametrize("value", HELPFULNESS_SCALE)
    def test_stage_values_on_scale(self, value):
        assert is_on_scale(value)

    def test_tolerates_float_noise(self):
        assert is_on_scale(0.2 + 1e-12)
        assert is_on_scale(1.0 - 1e-12)

    @pytest.mark.parametrize("value", [0.0, 0.3, 1.2, -0.2, "0.2", True, None])
    def test_off_scale_values(self, value):
        assert not is_on_scale(value)


class TestEntityValidation:
    def test_user_requires_nonempty_id(self):
        with pytest.raises(ValidationError):
            User(user_id="")

    def test_category_requires_nonempty_id(self):
        with pytest.raises(ValidationError):
            Category(category_id="")

    def test_object_requires_category(self):
        with pytest.raises(ValidationError):
            ReviewedObject(object_id="o1", category_id="")

    def test_review_requires_all_ids(self):
        with pytest.raises(ValidationError):
            Review(review_id="r1", writer_id="", object_id="o1")

    def test_rating_requires_scale_value(self):
        with pytest.raises(ValidationError, match="rating value"):
            ReviewRating(rater_id="u1", review_id="r1", value=0.5)

    def test_rating_on_scale_accepted(self):
        rating = ReviewRating(rater_id="u1", review_id="r1", value=0.8)
        assert rating.value == 0.8

    def test_trust_statement_rejects_self_trust(self):
        with pytest.raises(ValidationError, match="themselves"):
            TrustStatement(truster_id="u1", trustee_id="u1")

    def test_entities_are_frozen(self):
        user = User(user_id="u1")
        with pytest.raises(AttributeError):
            user.user_id = "u2"

    def test_entities_are_hashable(self):
        assert len({User("u1"), User("u1"), User("u2")}) == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda text: User("u1", name=text),
            lambda text: Category("c1", name=text),
            lambda text: ReviewedObject("o1", "c1", title=text),
        ],
        ids=["user-name", "category-name", "object-title"],
    )
    def test_name_and_title_must_be_text_or_none(self, make):
        for bad in (7, 0.5, b"bytes", ["x"]):
            with pytest.raises(ValidationError, match="string or None"):
                make(bad)
        assert make(None) is not None
        assert make("Alien") is not None
