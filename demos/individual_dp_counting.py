"""Individual-DP top-k selection via noisy win counts.

Here the protected unit is a whole user: all L of their comparisons can be
replaced at once, which moves the win counts by up to 2L in l1, so the count
mechanism adds Laplace(2L/epsilon) noise. The
demo sweeps the number of users m and shows the sample size needed for exact
top-k recovery at each privacy level, mirroring the separation-threshold
story: recovery is easy once the tau gap clears the threshold.
"""

import math

import numpy as np

from dpranking import (generate_theta, get_link, noisy_topk, rho_from_theta,
                       sample_individual, tau, true_topk, win_counts)
from dpranking.metrics import separation_threshold


def main():
    n, L, k, trials = 16, 5, 4, 50
    link = get_link("logistic")

    print(f"n={n} items, L={L} comparisons per user, exact top-{k} recovery rate")
    header = f"{'m':>6} " + " ".join(f"eps={e:>4}" for e in ("0.5", "1", "2.5", "inf"))
    print(header)
    for m in (250, 1000, 4000, 16000):
        rng = np.random.default_rng(m)
        row = [f"{m:>6}"]
        for eps in (0.5, 1.0, 2.5, math.inf):
            hits = 0
            for _ in range(trials):
                theta = generate_theta(n, k, seed=rng, top_inclusive=True)
                rho = rho_from_theta(theta, link)
                true_set = true_topk(tau(rho), k)
                data = sample_individual(n, m, L, rho, seed=rng)
                est = noisy_topk(win_counts(data), k, eps, "individual",
                                 L=L, seed=rng)
                hits += int(np.array_equal(est, true_set))
            row.append(f"{hits / trials:8.2f}")
        thresh = separation_threshold("individual", n, 1.0, m=m)
        row.append(f"  (threshold at eps=1: {thresh:.3f})")
        print(" ".join(row))

    print("\nMore users shrink both the sampling noise and the relative")
    print("impact of the Laplace perturbation; smaller epsilon needs more m.")


if __name__ == "__main__":
    main()
