"""The paper's motivating scenario: e-commerce with no web of trust at all.

Run with::

    python examples/ecommerce_cold_start.py

An e-commerce site has product reviews and review-helpfulness ratings but
*no* trust feature (the paper's intro: "a web of trust is not always
available especially in e-commerce environments").  This example:

1. generates such a community and then *hides* the trust network --
   the framework never sees it;
2. derives the full trust matrix from ratings alone;
3. recommends trustworthy reviewers for individual shoppers;
4. reveals the hidden trust network only to *validate* the
   recommendations (ranking AUC and precision@5 vs shoppers' actual
   trust decisions).
"""

from repro import (
    Community,
    ExpertiseEstimator,
    affiliation_matrix,
    derive_trust,
    direct_connection_matrix,
    ground_truth_matrix,
)
from repro.datasets import CommunityProfile, generate_community

PROFILE = CommunityProfile(
    num_users=500,
    category_names=(
        "Electronics",
        "Home & Kitchen",
        "Sports",
        "Toys",
        "Books",
        "Garden",
    ),
    objects_per_category=80,
    num_advisors=10,
    num_top_reviewers=15,
)


def main() -> None:
    dataset = generate_community(PROFILE, seed=21)
    full = dataset.community

    # --- the site's reality: reviews + ratings, zero trust statements ----
    from repro.community import Review, ReviewRating

    site = Community("ecommerce")
    for user in full.user_ids():
        site.add_user(user)
    for category in full.iter_categories():
        site.add_category(category)
    for obj in full.iter_objects():
        site.add_object(obj)
    for review in full.iter_reviews():
        site.add_review(Review(review.review_id, review.writer_id, review.object_id))
    for rating in full.iter_ratings():
        site.add_rating(ReviewRating(rating.rater_id, rating.review_id, rating.value))
    assert site.num_trust_edges() == 0, "the site has no trust feature"

    print(f"e-commerce site: {site.num_users()} users, {site.num_reviews()} reviews, "
          f"{site.num_ratings()} helpfulness ratings, 0 trust statements\n")

    # --- derive trust from ratings alone ---------------------------------
    expertise = ExpertiseEstimator().fit(site)
    affinity = affiliation_matrix(site)
    trust = derive_trust(affinity, expertise.expertise)
    print(f"derived {trust.num_entries()} trust degrees "
          f"({trust.density():.1%} of all user pairs) without any trust ratings\n")

    # --- recommend reviewers for a few shoppers --------------------------
    names = {category.category_id: category.name for category in site.iter_categories()}
    shoppers = [u for u in site.user_ids() if trust.row_size(u) >= 5][:3]
    for shopper in shoppers:
        row = trust.row(shopper)
        top = sorted(row.items(), key=lambda item: -item[1])[:3]
        interests = sorted(
            ((names[c], affinity.get(shopper, c)) for c in site.category_ids()),
            key=lambda item: -item[1],
        )[:2]
        interest_text = ", ".join(f"{name} ({value:.2f})" for name, value in interests)
        print(f"shopper {shopper} (interests: {interest_text})")
        for target, value in top:
            expert_in = max(
                site.category_ids(), key=lambda c: expertise.expertise.get(target, c)
            )
            print(f"  -> trust {target} at {value:.3f} "
                  f"(top expertise: {names[expert_in]})")
        print()

    # --- validation against the hidden ground truth ----------------------
    # the paper's own methodology (§IV.C): binarise both the derived matrix
    # and the mean-rating baseline at each user's generousness and compare
    # how much of the (hidden) trust network each recovers
    from repro import baseline_matrix, binarize_top_k, generousness
    from repro.metrics import validate_trust

    connections = direct_connection_matrix(full)
    hidden_truth = ground_truth_matrix(full)
    k_by_user = generousness(connections, hidden_truth)

    model_binary = binarize_top_k(trust, k_by_user)
    naive_binary = binarize_top_k(baseline_matrix(full), k_by_user)
    model = validate_trust(model_binary, connections, hidden_truth)
    naive = validate_trust(naive_binary, connections, hidden_truth)

    print("validation against the trust network the site never saw:")
    print(f"  derived-trust recall  = {model.recall:.3f}")
    print(f"  mean-rating baseline  = {naive.recall:.3f}")
    print("the derived web recovers far more of the hidden trust network than")
    print("ranking reviewers by the ratings a shopper gave them (paper Table 4).")
    assert model.recall > naive.recall, "derived trust must beat the naive baseline"


if __name__ == "__main__":
    main()
