#!/usr/bin/env python3
"""Why random K-out initialisation is a good start: small diameter, expansion.

A batch round of descent at most doubles the undirected start-graph hop
span of every friend arc, so batch descent needs at least ceil(log2 h)
rounds, where h, at most the diameter, is the largest hop distance from a
point to one of its exact neighbours: a small diameter buys few doublings.
Pointwise passes are not covered by this bound.  Random K-out graphs have
logarithmic diameter because small vertex sets expand:
|N(X)| > (K - 1 - eps) |X|.
"""

import numpy as np

from nndlab.descent import random_kout
from nndlab.diagnostics import (
    diameter_experiment,
    expansion_alpha_reference,
    expansion_check,
)

print("=== Diameters of random K-out graphs, n = 10^4 ===")
for K in (3, 8):
    report = diameter_experiment(10_000, K, trials=10, epsilon=0.5, seed=0)
    print(f"K = {K}: diameters {sorted(report.diameters)}  "
          f"(bound (1+eps) log_(K-1) n = {report.bound:.1f})")

print()
print("=== Vertex expansion, n = 10^4, K = 16, eps = 1 ===")
F = random_kout(10_000, 16, np.random.default_rng(0))
report = expansion_check(F, expansion_alpha=0.05, epsilon=1.0, sample_sets=5000, seed=1)
print(f"sampled {report.sample_sets} sets up to size {report.max_size}")
print(f"violations of |N(X)| > (K-1-eps)|X|: {report.violations}")
print(f"smallest slack |N(X)|/|X| - (K-1-eps): {report.min_margin:.2f}")
print(f"(the union-bound proof would take alpha = "
      f"{expansion_alpha_reference(16, 1.0):.2e}; the experiment exposes it as a knob)")
