"""Descent's whole-array steps against the visit-order loop in ``reference_descent``.

A pointwise pass is computed one dependency level at a time, and the levels
depend on the schedule: any permutation, and the identity and reversed
schedules on start states that make a pass one point per level, give the
reference's friend matrices, work and changes.  A batch round gives the same
state at any owner-chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_descent as ref
from nndlab import descent
from nndlab.descent import FriendState, batch_round, pointwise_pass, random_kout
from nndlab.ranking import RankingOracle
from nndlab.spaces import paris_space, random_ranking_table, rank_table
from test_descent_reference import assert_same_state, run_both, starts


@settings(max_examples=150, deadline=None)
@given(starts(), st.data())
def test_pointwise_passes_match_reference_under_any_schedule(start, data):
    table, k, seed = start
    schedule = np.array(data.draw(st.permutations(range(table.n))))
    run_both(pointwise_pass, ref.pointwise_pass, table, k, seed, schedule)


def chain(n, k, step):
    """F(x) = x - step, x - 2 step, ... (mod n): each point waits for the one before it."""
    return (np.arange(n)[:, None] - step * np.arange(1, k + 1)) % n


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reversed"])
@pytest.mark.parametrize("table", [rank_table(paris_space(range(1, 41))), random_ranking_table(40, 5)],
                         ids=["paris", "random-ranking"])
def test_one_point_per_level_matches_reference(table, reverse, k, monkeypatch):
    n = table.n
    schedule = np.arange(n)[::-1] if reverse else np.arange(n)
    start = chain(n, k, -1 if reverse else 1)
    levels = []
    set_friends = FriendState.set_friends

    def record(self, x, new):
        levels.append(np.size(x))
        set_friends(self, x, new)

    monkeypatch.setattr(FriendState, "set_friends", record)
    oracle, ref_oracle = RankingOracle(table), ref.ReferenceOracle(table)
    got = pointwise_pass(FriendState(start), schedule, oracle)
    assert levels == [1] * n
    monkeypatch.undo()
    want = ref.pointwise_pass(FriendState(start), schedule, ref_oracle)
    assert_same_state(got, want)
    assert oracle.comparisons == ref_oracle.comparisons


@settings(max_examples=60, deadline=None)
@given(starts(), st.sampled_from([1, 7, 100, 5000]))
def test_batch_round_is_the_same_at_any_chunk_size(start, chunk_keys):
    table, k, seed = start
    state = FriendState(random_kout(table.n, k, seed))
    want = batch_round(state, RankingOracle(table))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent, "_CHUNK_KEYS", chunk_keys)
        got = batch_round(state, RankingOracle(table))
    assert_same_state(got, want)
