"""Propagating the derived web of trust (paper §V future work).

Run with::

    python examples/trust_propagation.py

Derives a web of trust from rating data and runs all four propagation
models the paper cites on it.  Each takes the trust matrix itself (a
``UserPairMatrix``):

- TidalTrust: infer source->sink trust for pairs with *no* derived edge;
- EigenTrust: a global trust ranking of the community;
- Guha et al.: densify the binary web with atomic propagations;
- Appleseed: a personalised trust ranking for one user.
"""

from repro.datasets import CommunityProfile, generate_community
from repro.experiments import run_pipeline
from repro.propagation import appleseed, eigen_trust, guha_propagation, tidal_trust

PROFILE = CommunityProfile(num_users=300, num_advisors=10, num_top_reviewers=12)


def main() -> None:
    dataset = generate_community(PROFILE, seed=11)
    artifacts = run_pipeline(dataset=dataset)
    derived_web = artifacts.derived_binary
    print(f"derived web of trust: {len(derived_web.users)} users, "
          f"{derived_web.num_entries()} edges\n")

    # --- TidalTrust: local inference across the derived web ----------------
    sources = [u for u in derived_web.source_ids() if derived_web.row_size(u) >= 3]
    inferred = 0
    examples = []
    for source in sources[:30]:
        for target in sources[:30]:
            if source == target or derived_web.contains(source, target):
                continue
            value = tidal_trust(derived_web, source, target)
            if value is not None:
                inferred += 1
                if len(examples) < 3:
                    examples.append((source, target, value))
    print(f"TidalTrust inferred trust for {inferred} unconnected pairs, e.g.:")
    for source, target, value in examples:
        print(f"  t({source} -> {target}) = {value:.3f}")

    # --- EigenTrust: global ranking ----------------------------------------
    scores = eigen_trust(derived_web)
    top = sorted(scores.items(), key=lambda item: -item[1])[:5]
    print("\nEigenTrust global top-5 over the derived web:")
    for user, score in top:
        marker = " (designated Top Reviewer)" if user in dataset.top_reviewers else ""
        print(f"  {user}: {score:.4f}{marker}")

    # --- Guha et al.: densification ----------------------------------------
    propagated = guha_propagation(derived_web, steps=2, top_k=20)
    print(f"\nGuha propagation densified the web from "
          f"{derived_web.num_entries()} to {propagated.num_entries()} edges "
          "(direct + co-citation + transpose + coupling, 2 steps)")

    # --- Appleseed: personalised ranking ------------------------------------
    source = max(sources, key=derived_web.row_size)
    ranks = appleseed(derived_web, source)
    personal_top = sorted(
        ((u, r) for u, r in ranks.items() if u != source), key=lambda item: -item[1]
    )[:5]
    print(f"\nAppleseed personalised top-5 for {source}:")
    for user, rank in personal_top:
        print(f"  {user}: {rank:.2f} energy")


if __name__ == "__main__":
    main()
