import functools
import math

import numpy as np
import pytest
from scipy import sparse, stats

from nndlab.descent import (
    FriendState,
    _cofriends,
    batch_round,
    default_budget,
    pointwise_pass,
    random_kout,
    run_nnd,
    run_report,
)
from nndlab.diagnostics import undirected_adjacency
from nndlab.errors import InputError
from nndlab.ranking import RankingOracle, exact_knn, recall
from nndlab.spaces import circle_sample, paris_space, random_ranking_table, rank_table
from nndlab.concordance import generic_crs


def paris_oracle(n):
    return RankingOracle(rank_table(paris_space(range(1, n + 1))))


def worst_ranks(state, table):
    """Per-point max rank of the current friend set (quality measure)."""
    rows = np.arange(state.n)[:, None]
    return table.ranks[rows, state.friends].max(axis=1)


def assert_csr_transpose(F):
    # batch_round takes cofriends as the CSR of F's arcs keyed by target;
    # compare that with a transpose built pair by pair
    n = len(F)
    indptr, cof = _cofriends(F)
    for x in range(n):
        expected = sorted(y for y in range(n) if x in F[y])
        assert cof[indptr[x] : indptr[x + 1]].tolist() == expected


class TestInit:
    def test_forced_when_n_is_k_plus_1(self):
        state = FriendState(random_kout(5, 4, 0))
        for x in range(5):
            assert set(state.friends[x]) == set(range(5)) - {x}

    def test_cofriend_conservation(self):
        state = FriendState(random_kout(10_000, 16, 1))
        assert np.bincount(state.friends.ravel(), minlength=state.n).sum() == 10_000 * 16

    def test_cofriend_counts_are_binomial(self):
        # chi-square against Binomial(n-1, K/(n-1)) at the 1% level
        n, K = 10_000, 16
        state = FriendState(random_kout(n, K, 7))
        counts = np.bincount(state.friends.ravel(), minlength=n)
        dist = stats.binom(n - 1, K / (n - 1))
        hi = int(dist.ppf(0.99999)) + 1
        observed = np.bincount(np.minimum(counts, hi), minlength=hi + 1)
        expected = dist.pmf(np.arange(hi + 1)) * n
        expected[hi] += (1 - dist.cdf(hi)) * n
        # merge sparse tail bins so expected counts stay above 5
        cut = np.flatnonzero(expected >= 5)
        lo, hi2 = cut[0], cut[-1]
        obs = np.concatenate(
            [[observed[:lo].sum()], observed[lo : hi2 + 1], [observed[hi2 + 1 :].sum()]]
        )
        exp = np.concatenate(
            [[expected[:lo].sum()], expected[lo : hi2 + 1], [expected[hi2 + 1 :].sum()]]
        )
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue > 0.01

    def test_rejects_k_out_of_range(self):
        with pytest.raises(InputError):
            FriendState(random_kout(5, 5, 0))

    def test_uniform_rows_are_distinct_items(self):
        F = random_kout(500, 12, 3)
        assert all(len(set(row)) == 12 for row in F)
        assert not (F == np.arange(500)[:, None]).any()


class TestBatchRound:
    def test_exact_graph_is_fixed_point(self):
        oracle = paris_oracle(20)
        exact = exact_knn(oracle.table, 3)
        state = FriendState(exact.neighbors.copy())
        after, changed = batch_round(state, oracle)
        assert changed == 0
        assert np.array_equal(
            np.sort(after.friends, axis=1), np.sort(exact.neighbors, axis=1)
        )

    def test_noop_when_n_is_k_plus_1(self):
        oracle = paris_oracle(5)
        state = FriendState(random_kout(5, 4, 0))
        assert batch_round(state, oracle)[1] == 0

    def test_independent_of_evaluation_order(self):
        # recompute the round with shuffled vertex processing; same result
        oracle = RankingOracle(random_ranking_table(40, seed=2))
        state = FriendState(random_kout(40, 4, 3))
        after, _ = batch_round(state, oracle)

        F = state.friends
        shuffled = np.empty_like(F)
        order = np.random.default_rng(0).permutation(40)
        for x in order:
            cof = np.flatnonzero((F == x).any(1))
            parts = [F[x], F[F[x]].ravel(), cof, F[cof].ravel()]
            pool = np.unique(np.concatenate(parts))
            pool = pool[pool != x]
            ranks = oracle.table.ranks[x, pool]
            keep = np.argpartition(ranks, 4 - 1)[:4] if pool.size > 4 else np.arange(pool.size)
            shuffled[x] = pool[keep[np.argsort(ranks[keep])]]
        assert np.array_equal(after.friends, shuffled)

    def test_transpose_invariant(self):
        oracle = paris_oracle(30)
        state, _ = batch_round(FriendState(random_kout(30, 4, 4)), oracle)
        assert_csr_transpose(state.friends)


class TestPointwisePass:
    def test_matches_batch_when_complete(self):
        oracle = paris_oracle(6)
        state = FriendState(random_kout(6, 5, 1))
        assert batch_round(state, oracle)[1] == 0
        assert pointwise_pass(state, np.arange(6), oracle)[1] == 0

    def test_recall_improves_with_passes(self):
        oracle = paris_oracle(100)
        exact = exact_knn(oracle.table, 4)
        state = FriendState(random_kout(100, 4, 5))
        schedule = np.arange(100)
        recalls = []
        for _ in range(3):
            state, _ = pointwise_pass(state, schedule, oracle)
            recalls.append(recall(state.to_graph(), exact))
        assert recalls[2] >= recalls[1] >= recalls[0] - 1e-12

    def test_k_squared_new_candidates_per_visit(self):
        # each visit exposes at most K^2 candidates beyond the current set
        K = 8
        table = generic_crs(128, seed=11).table
        state = FriendState(random_kout(128, K, 12))
        F = state.friends
        for x in range(128):
            pool = np.unique(F[F[x]].ravel())
            new = np.setdiff1d(pool, np.append(F[x], x))
            assert new.size <= K * K

    def test_schedule_must_be_permutation(self):
        state = FriendState(random_kout(8, 2, 0))
        with pytest.raises(InputError):
            pointwise_pass(state, np.array([0, 1, 2, 3, 4, 5, 6, 6]), paris_oracle(8))

    def test_transpose_invariant(self):
        oracle = paris_oracle(25)
        state = FriendState(random_kout(25, 3, 6))
        after, _ = pointwise_pass(state, np.random.default_rng(0).permutation(25), oracle)
        assert_csr_transpose(after.friends)


class MeterlessOracle:
    """An oracle's ``n`` and ``top_k`` without its comparison meter."""

    def __init__(self, oracle):
        self.n, self.top_k = oracle.n, oracle.top_k


@pytest.mark.parametrize(
    "step",
    [batch_round, lambda state, oracle: pointwise_pass(state, np.arange(40)[::-1], oracle)],
    ids=["batch_round", "pointwise_pass"],
)
def test_rounds_do_not_read_the_meter(step):
    # run_nnd alone reads the oracle's meter, once before its first round and once after its last
    oracle = paris_oracle(40)
    state = FriendState(random_kout(40, 4, 5))
    got, want = step(state, MeterlessOracle(oracle)), step(state, oracle)
    np.testing.assert_array_equal(got[0].friends, want[0].friends)
    assert got[1] == want[1]


@pytest.mark.parametrize("items", [20, 5], ids=["bigger", "smaller"])
@pytest.mark.parametrize(
    "step",
    [batch_round, lambda state, oracle: pointwise_pass(state, np.arange(10), oracle)],
    ids=["batch_round", "pointwise_pass"],
)
def test_steps_refuse_an_oracle_over_another_item_count(step, items):
    # run_nnd's refusal: a bigger table's rows were read as the state's, a smaller one's ids refused
    oracle = RankingOracle(random_ranking_table(items, seed=0))
    with pytest.raises(InputError, match="^oracle item count does not match n$"):
        step(FriendState(random_kout(10, 3, 0)), oracle)
    assert oracle.comparisons == 0


@pytest.mark.parametrize("mode", ["batch", "pointwise"])
def test_steps_by_hand_give_run_nnds_counts_and_graph(mode):
    # run_nnd's start, then its steps one by one: each returns (FriendState, int), and
    # run_nnd keeps those ints as round_changes
    n, K, seed = 96, 4, 3
    table = random_ranking_table(n, seed=1) if mode == "pointwise" else paris_oracle(n).table
    result = run_nnd(RankingOracle(table), n, K, mode=mode, seed=seed)
    oracle = RankingOracle(table)
    rng = np.random.default_rng(seed)
    state = FriendState(random_kout(n, K, rng))
    schedule = rng.permutation(n)
    changes = []
    for _ in range(result.rounds):
        if mode == "batch":
            state, changed = batch_round(state, oracle)
        else:
            state, changed = pointwise_pass(state, schedule, oracle)
        assert type(state) is FriendState and type(changed) is int
        changes.append(changed)
    assert changes == result.round_changes
    np.testing.assert_array_equal(state.friends, result.graph.neighbors)
    assert oracle.comparisons == result.comparisons


@functools.cache
def doubling_table(space, n):
    return rank_table(paris_space(range(1, n + 1)) if space == "paris" else circle_sample(n, 0))


def start_hops(F):
    """All-pairs hop distances of F's undirected graph: one BFS from every point at once."""
    n = len(F)
    indptr, nbrs = undirected_adjacency(F)
    adjacency = sparse.csr_array((np.ones(nbrs.size, dtype=np.float32), nbrs, indptr), (n, n))
    hops = np.where(np.eye(n, dtype=bool), 0, -1)
    frontier, d = np.eye(n, dtype=np.float32), 0
    while frontier.any():
        d += 1
        reached = (adjacency @ frontier > 0) & (hops < 0)
        hops[reached] = d
        frontier = reached.astype(np.float32)
    return hops


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("K", [4, 8])
@pytest.mark.parametrize("space", ["paris", "circle"])
def test_batch_rounds_at_most_double_the_start_graph_hop_span(space, K, seed):
    # a batch round takes x's candidates from F(x), its cofriends and their friends, each
    # a friend arc away: after round t every friend arc spans at most 2^t start-graph hops
    n = 1024
    oracle = RankingOracle(doubling_table(space, n))
    state = FriendState(random_kout(n, K, seed))
    hops = start_hops(state.friends)
    rows = np.arange(n)[:, None]
    for t in range(1, 7):
        state, _ = batch_round(state, oracle)
        span = hops[rows, state.friends]
        assert (span > 0).all()
        assert span.max() <= 2**t


class TestRunNnd:
    def test_paris_converges_to_exact(self):
        oracle = paris_oracle(2048)
        result = run_nnd(oracle, 2048, 8, mode="batch", seed=0, max_rounds=4, stop="budget")
        assert recall(result.graph, exact_knn(oracle.table, 8)) == 1.0

    def test_random_rankings_defeat_descent(self):
        # no metric, independent rankings: friends carry no information,
        # recall stays far from 1 after the whole budget
        table = random_ranking_table(512, seed=1)
        oracle = RankingOracle(table)
        result = run_nnd(oracle, 512, 8, mode="pointwise", seed=1, stop="budget")
        assert result.rounds == default_budget(512, 8)
        assert recall(result.graph, exact_knn(table, 8)) < 0.5

    def test_forced_instance_converges_in_one_round(self):
        oracle = paris_oracle(5)
        result = run_nnd(oracle, 5, 4, mode="batch", seed=3)
        assert result.rounds == 1
        assert recall(result.graph, exact_knn(oracle.table, 4)) == 1.0

    def test_deterministic_given_seed(self):
        table = random_ranking_table(64, seed=9)
        a = run_nnd(RankingOracle(table), 64, 4, mode="pointwise", seed=5)
        b = run_nnd(RankingOracle(table), 64, 4, mode="pointwise", seed=5)
        assert a.graph == b.graph and a.comparisons == b.comparisons

    @pytest.mark.parametrize("mode", ["batch", "pointwise"])
    @pytest.mark.parametrize("stop", ["no_change", "budget"])
    def test_comparisons_are_this_runs_charges(self, mode, stop):
        fresh, shared = paris_oracle(64), paris_oracle(64)
        want = run_nnd(fresh, 64, 4, mode=mode, seed=1, stop=stop)
        assert want.comparisons == fresh.comparisons > 0
        run_nnd(shared, 64, 4, mode=mode, seed=0, stop=stop)  # charges the shared meter first
        for _ in range(2):
            before = shared.comparisons
            got = run_nnd(shared, 64, 4, mode=mode, seed=1, stop=stop)
            assert got.comparisons == want.comparisons == shared.comparisons - before
            assert got.rounds == len(got.round_changes) == want.rounds

    def test_monotone_quality_per_vertex(self):
        oracle = paris_oracle(128)
        state = FriendState(random_kout(128, 4, 8))
        worst = worst_ranks(state, oracle.table)
        for _ in range(4):
            state, _ = batch_round(state, oracle)
            new_worst = worst_ranks(state, oracle.table)
            assert (new_worst <= worst).all()
            worst = new_worst

    def test_work_accounting_bound_per_round(self):
        n, K = 256, 8
        oracle = RankingOracle(random_ranking_table(n, seed=2))
        state = FriendState(random_kout(n, K, 2))
        before = oracle.comparisons
        batch_round(state, oracle)
        per_round = oracle.comparisons - before
        assert per_round <= 8 * n * K * K * math.ceil(math.log2(K * K + K))

    def test_budget_default(self):
        assert default_budget(512, 8) == 6
        assert default_budget(2048, 8) == 8
        with pytest.raises(InputError, match="--rounds"):
            default_budget(512, 1)

    def test_invalid_arguments(self):
        oracle = paris_oracle(10)
        with pytest.raises(InputError):
            run_nnd(oracle, 10, 3, mode="turbo")
        with pytest.raises(InputError):
            run_nnd(oracle, 10, 3, stop="sometimes")
        with pytest.raises(InputError):
            run_nnd(oracle, 12, 3)
        for K in (0, 10):
            with pytest.raises(InputError):
                run_nnd(oracle, 10, K)

    def test_report_fields(self):
        oracle = paris_oracle(32)
        result = run_nnd(oracle, 32, 4, mode="batch", seed=0)
        result.recall = recall(result.graph, exact_knn(oracle.table, 4))
        report = run_report(result)
        assert {"mode", "n", "K", "seed", "rounds", "comparisons", "round_changes", "recall"} <= set(report)
        assert len(report["round_changes"]) == report["rounds"]
