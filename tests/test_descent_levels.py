"""Descent's whole-array steps against the visit-order loop in ``reference_descent``.

A pointwise pass is computed one dependency level at a time, and the levels
depend on the schedule: any permutation, and the identity and reversed
schedules on start states that make a pass one point per level, give the
reference's friend matrices, work and changes.  A batch round gives the same
state at any owner-chunk size, and matches the reference on starts whose
in-degrees sit at the edges of its in-degree classes.
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
from test_descent_reference import assert_same_step, run_both, starts


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
    assert_same_step(got, want)
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
    assert_same_step(got, want)


def with_indegrees(indeg, k, seed):
    """A K-out start in which point t has in-degree ``indeg[t]`` (they sum to n K).

    Targets are served in decreasing demand by the sources with the most free
    slots, so one hub may take every other point as a cofriend.
    """
    n = len(indeg)
    free = np.full(n, k)
    rows = [[] for _ in range(n)]
    for t in np.argsort(-np.asarray(indeg), kind="stable"):
        sources = sorted((s for s in range(n) if s != t and free[s]), key=lambda s: -free[s])
        for s in sources[: indeg[t]]:
            rows[s].append(t)
            free[s] -= 1
    rng = np.random.default_rng(seed)
    return np.array([rng.permutation(row) for row in rows])


def class_edges(n, k):
    """In-degrees n - 1 (a hub), 0, 1 and 2^j - 1, 2^j up to n / 2, the rest spread evenly."""
    edges = [n - 1, 0, 1] + [d for j in range(2, (n // 2).bit_length()) for d in (2**j - 1, 2**j)]
    rest = n - len(edges)
    left = n * k - sum(edges)
    return edges + [left // rest + (i < left % rest) for i in range(rest)]


@pytest.mark.parametrize("chunk_keys", [None, 40], ids=["one-chunk", "split-classes"])
@pytest.mark.parametrize("n,k", [(40, 3), (64, 3), (70, 4)])
def test_batch_round_matches_reference_at_in_degree_class_edges(n, k, chunk_keys, monkeypatch):
    indeg = class_edges(n, k)
    start = with_indegrees(indeg, k, seed=n)
    assert np.bincount(start.ravel(), minlength=n).tolist() == indeg
    assert not (start == np.arange(n)[:, None]).any()
    if chunk_keys is not None:
        # at 40 entries a chunk holds at most two owners of in-degree 1
        monkeypatch.setattr(descent, "_CHUNK_KEYS", chunk_keys)
    table = random_ranking_table(n, n)
    oracle, ref_oracle = RankingOracle(table), ref.ReferenceOracle(table)
    got, want = (FriendState(start), None), (FriendState(start), None)
    for _ in range(2):
        got, want = batch_round(got[0], oracle), ref.batch_round(want[0], ref_oracle)
        assert_same_step(got, want)
    assert oracle.comparisons == ref_oracle.comparisons
