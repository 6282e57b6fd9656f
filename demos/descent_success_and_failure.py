#!/usr/bin/env python3
"""Descent succeeding on a star metric and stalling on a generic system.

On the star-path metric every point ranks the others identically, so friend
lists are maximally informative and a handful of batch rounds recover the
exact K-NN graph.  On the image of a uniformly random pair order, each
point's ranking is independent of everyone else's opinions about third
parties, friend lists carry no signal, and recall plateaus far below 1.
"""

from nndlab.concordance import generic_crs
from nndlab.descent import (FriendState, batch_round, default_budget, pointwise_pass, random_kout,
                            run_nnd)
from nndlab.ranking import RankingOracle, exact_knn, recall
from nndlab.spaces import paris_space, rank_table

import numpy as np

N, K = 1024, 8

print(f"=== Star-path metric, n={N}, K={K}, batch rounds ===")
table = rank_table(paris_space(range(1, N + 1)))
oracle = RankingOracle(table)
exact = exact_knn(table, K)
state = FriendState(random_kout(N, K, 0))
print("round  changed  recall")
for r in range(1, 6):
    state, changed = batch_round(state, oracle)
    print(f"{r:>5}  {changed:>7}  {recall(state.to_graph(), exact):.4f}")
print(f"comparisons charged: {oracle.comparisons:,}")

print()
print(f"=== Generic concordant system, n=512, K={K}, scheduled passes ===")
crs_table = generic_crs(512, seed=0).table
oracle2 = RankingOracle(crs_table)
exact2 = exact_knn(crs_table, K)
state2 = FriendState(random_kout(512, K, 0))
schedule = np.random.default_rng(0).permutation(512)
budget = default_budget(512, K)
print(f"budget: {budget} passes (2 log_K n)")
print("pass   changed  recall")
for r in range(1, budget + 1):
    state2, changed = pointwise_pass(state2, schedule, oracle2)
    print(f"{r:>4}  {changed:>8}  {recall(state2.to_graph(), exact2):.4f}")

print()
print("Same comparison through the one-call driver:")
res = run_nnd(RankingOracle(table), N, K, mode="batch", seed=1)
res.recall = recall(res.graph, exact)
print(f"star path : rounds={res.rounds}  recall={res.recall:.3f}")
res2 = run_nnd(RankingOracle(crs_table), 512, K, mode="pointwise", seed=1, stop="budget")
res2.recall = recall(res2.graph, exact2)
print(f"generic   : rounds={res2.rounds}  recall={res2.recall:.3f}")
