"""Auditing the count mechanism: sensitivity and empirical epsilon.

Builds a small instance, enumerates adjacent datasets under both adjacency
notions, verifies the win-count sensitivity bounds by brute force, and then
replays the noisy top-k mechanism a million times on one adjacent pair to
estimate the worst observed privacy-loss ratio. The estimate lower-bounds
the true epsilon and should sit below the declared budget.
"""

import numpy as np

from dpranking.audit import (CountTopKMechanism, enumerate_adjacent,
                             estimate_epsilon, sensitivity_check,
                             user_replacement_pairs)
from dpranking.data import (generate_theta, rho_from_theta,
                            sample_edge_outcomes, sample_er_graph,
                            sample_individual)
from dpranking.links import get_link


def main():
    rng = np.random.default_rng(0)
    link = get_link("logistic")
    n, k = 4, 2
    theta = generate_theta(n, k, seed=rng, top_inclusive=True)
    rho = rho_from_theta(theta, link)

    edge_data = sample_edge_outcomes(sample_er_graph(n, 1.0, seed=rng),
                                     rho, seed=rng)
    edge_pairs = enumerate_adjacent(edge_data, budget=1000, seed=rng)
    report = sensitivity_check(edge_pairs)
    print(f"edge adjacency: {report.pairs_checked} pairs, "
          f"max l1 change of win counts = {report.max_l1} (bound 2)")

    L = 5
    ind_data = sample_individual(n, 50, L, rho, seed=rng)
    ind_pairs = user_replacement_pairs(ind_data, 200, seed=rng)
    report = sensitivity_check(ind_pairs)
    print(f"user replacement: {report.pairs_checked} pairs, "
          f"max per-item change = {report.per_coordinate_max} (bound L={L}), "
          f"max l1 change = {report.max_l1} (bound 2L={2 * L})")

    print("\nempirical epsilon of noisy top-2 counts (1e6 replays per pair):")
    for eps in (0.5, 1.0, 2.5):
        mech = CountTopKMechanism(k=k, epsilon=eps, regime="edge")
        est = estimate_epsilon(mech, edge_pairs[0], samples=1_000_000, seed=rng)
        print(f"  declared eps={eps:<4} estimated lower bound "
              f"{est.epsilon_hat:.3f}  (conclusive={est.conclusive})")

    print("\nThe estimate stays below the declared budget: the Laplace")
    print("mechanism spends less privacy on this pair than its worst case.")


if __name__ == "__main__":
    main()
