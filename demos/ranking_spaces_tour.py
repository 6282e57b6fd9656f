#!/usr/bin/env python3
"""Tour of the example similarity spaces and their exact rank tables.

Walks through the star-path metric (everyone agrees who the good neighbors
are), random circle points, powers of two, and random strings under the
longest-common-substring distance (nobody's opinion helps anybody else).
"""

import numpy as np

from nndlab.ranking import exact_knn
from nndlab.spaces import (
    PowersOfTwoSpace,
    circle_sample,
    lcs_qk,
    lcs_sample,
    paris_space,
    rank_table,
)

print("=== Star-path (Paris) metric ===")
space = paris_space(range(1, 13))
table = rank_table(space)
graph = exact_knn(table, 4)
print("d(x_i, x_j) = eta_i + eta_j, etas = 1..12")
print("4-NN of x_7 :", graph.neighbors[6], " (the four leaves closest to the hub)")
print("4-NN of x_12:", graph.neighbors[11], "(same four: every far leaf agrees)")

print()
print("=== Random points on a circle ===")
circle = circle_sample(10, seed=42)
ct = rank_table(circle)
print("angles:", np.round(circle.angles, 2))
print("each point's nearest neighbor:", [int(ct.order[x][0]) for x in range(circle.n)])

print()
print("=== Powers of two ===")
p2 = PowersOfTwoSpace(6)
pt = rank_table(p2)
print("values:", p2.values)
print("the two nearest neighbors of 32 are", [p2.values[i] for i in pt.order[5][:2]])

print()
print("=== Longest common substring ===")
lcs = lcs_sample(6, 40, seed=7)
rho = lcs.distance(0, np.array([1, 2, 3]))
for i, r in zip((1, 2, 3), rho):
    print(f"rho(s0, s{i}) = {r:.3f}   shared length m(1 - rho) = {round(lcs.m * (1 - r))}")

print()
print("At realistic scales the shared substrings are tiny relative to m,")
print("so knowing two strings are both close to a third says almost nothing:")
q_K, q_1 = lcs_qk(2 ** 16, 2 ** 33, 32, 2 ** -4)
print(f"m = 2^16, n = 2^33, K = 32, p = 2^-4  ->  q_K = {q_K:.2f}, q_1 = {q_1:.2f}")
print(f"typical shared length {round(q_K)}..{round(q_1) + 1} of 65536 characters")
