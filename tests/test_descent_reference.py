"""Descent's selection against its verbatim copy in ``reference_descent``.

On Paris, uniformly random and generic concordant tables with n from 3 to 60,
K from 1 to n - 1 and arbitrary seeds, three pointwise passes and three
batch rounds give the same friend matrices and changes for the same charges
as the reference, and ``RankingOracle.top_k`` gives the same ids in the same
order for the same charge as the reference body, on any pool of k or more
candidates that omits x.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_descent as ref
from nndlab.concordance import generic_crs
from nndlab.descent import FriendState, batch_round, pointwise_pass, random_kout
from nndlab.ranking import RankingOracle
from nndlab.spaces import paris_space, random_ranking_table, rank_table

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def tables(draw):
    """A table of n in 3..60 items from one of the three families."""
    n = draw(st.integers(3, 60))
    kind = draw(st.sampled_from(["paris", "random-ranking", "generic-crs"]))
    if kind == "paris":
        return rank_table(paris_space(range(1, n + 1)))
    seed = draw(SEEDS)
    return random_ranking_table(n, seed) if kind == "random-ranking" else generic_crs(n, seed).table


@st.composite
def starts(draw):
    """A table, a K in 1..n-1 and a random K-out start state on it."""
    table = draw(tables())
    k = draw(st.integers(1, table.n - 1))
    return table, k, draw(SEEDS)


def assert_same_step(got, want):
    """Two steps' ``(state, changed)`` returns: the same friend matrix and count."""
    (state, changed), (ref_state, ref_changed) = got, want
    np.testing.assert_array_equal(state.friends, ref_state.friends)
    assert changed == ref_changed


def run_both(step, ref_step, table, k, seed, *args):
    """Three steps from one start, with the new oracle and with the reference's."""
    state, ref_state = (FriendState(random_kout(table.n, k, seed)) for _ in range(2))
    oracle, ref_oracle = RankingOracle(table), ref.ReferenceOracle(table)
    for _ in range(3):
        got, want = step(state, *args, oracle), ref_step(ref_state, *args, ref_oracle)
        assert_same_step(got, want)
        assert oracle.comparisons == ref_oracle.comparisons
        state, ref_state = got[0], want[0]


@settings(max_examples=150, deadline=None)
@given(starts())
def test_pointwise_passes_match_reference(start):
    table, k, seed = start
    schedule = np.random.default_rng(seed).permutation(table.n)
    run_both(pointwise_pass, ref.pointwise_pass, table, k, seed, schedule)


@settings(max_examples=150, deadline=None)
@given(starts())
def test_batch_rounds_match_reference(start):
    run_both(batch_round, ref.batch_round, *start)


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_top_k_matches_reference(table, data):
    x = data.draw(st.integers(0, table.n - 1))
    k = data.draw(st.integers(1, table.n - 1))
    others = [y for y in range(table.n) if y != x]
    pool = np.array(data.draw(st.lists(st.sampled_from(others), min_size=k, unique=True)),
                    dtype=np.int64)
    oracle, ref_oracle = RankingOracle(table), ref.ReferenceOracle(table)
    got, want = oracle.top_k(x, pool, k), ref_oracle.top_k(x, pool, k)
    assert got.tolist() == want.tolist()
    assert oracle.comparisons == ref_oracle.comparisons
