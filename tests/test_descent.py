import math

import numpy as np
import pytest
from scipy import stats

from nndlab.descent import (
    FriendState,
    batch_round,
    default_budget,
    friend_barter,
    init_random_kout,
    pointwise_pass,
    random_kout,
    run_nnd,
    run_report,
)
from nndlab.errors import InputError
from nndlab.ranking import RankingOracle, csr, exact_knn, recall
from nndlab.spaces import paris_space, random_ranking_table, rank_table
from nndlab.concordance import generic_crs


def paris_oracle(n):
    return RankingOracle(rank_table(paris_space(range(1, n + 1))))


def assert_csr_transpose(F):
    # batch_round takes cofriends as the CSR of F's arcs keyed by target;
    # compare that with a transpose built pair by pair
    n, k = F.shape
    indptr, cof = csr(F.ravel(), np.repeat(np.arange(n, dtype=np.int32), k), n)
    for x in range(n):
        expected = sorted(y for y in range(n) if x in F[y])
        assert cof[indptr[x] : indptr[x + 1]].tolist() == expected


class TestInit:
    def test_forced_when_n_is_k_plus_1(self):
        state = init_random_kout(5, 4, seed=0)
        for x in range(5):
            assert set(state.friends[x]) == set(range(5)) - {x}

    def test_cofriend_conservation(self):
        state = init_random_kout(10_000, 16, seed=1)
        assert np.bincount(state.friends.ravel(), minlength=state.n).sum() == 10_000 * 16

    def test_cofriend_counts_are_binomial(self):
        # chi-square against Binomial(n-1, K/(n-1)) at the 1% level
        n, K = 10_000, 16
        state = init_random_kout(n, K, seed=7)
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
            init_random_kout(5, 5, seed=0)

    def test_uniform_rows_are_distinct_items(self):
        F = random_kout(500, 12, 3)
        assert all(len(set(row)) == 12 for row in F)
        assert not (F == np.arange(500)[:, None]).any()


class TestFriendBarter:
    def test_no_new_candidates_means_no_change(self):
        oracle = paris_oracle(8)
        friends = np.array([[1, 2], [0, 2], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]])
        state = FriendState(friends.copy())
        new_x, _ = friend_barter(state, 3, 4, oracle)
        assert set(new_x) == {0, 1}

    def test_paris_example(self):
        # x knows the two worst leaves, y knows two good ones; x adopts y's
        oracle = paris_oracle(8)
        friends = np.array(
            [[6, 7], [6, 7], [6, 7], [6, 7], [6, 7], [0, 4], [0, 1], [0, 1]]
        )
        state = FriendState(friends.copy())
        new_x, _ = friend_barter(state, 2, 5, oracle)
        assert list(new_x) == [0, 4]

    def test_idempotent(self):
        oracle = paris_oracle(10)
        state = FriendState(random_kout(10, 3, 5))
        friend_barter(state, 1, 7, oracle)
        snapshot = state.friends.copy()
        friend_barter(state, 1, 7, oracle)
        assert np.array_equal(np.sort(state.friends, axis=1), np.sort(snapshot, axis=1))

    def test_self_barter_rejected(self):
        state = FriendState(random_kout(6, 2, 0))
        with pytest.raises(InputError):
            friend_barter(state, 2, 2, paris_oracle(6))

    def test_keeps_transpose_in_sync(self):
        state = FriendState(random_kout(12, 3, 1))
        friend_barter(state, 0, 5, paris_oracle(12))
        assert_csr_transpose(state.friends)


class TestBatchRound:
    def test_exact_graph_is_fixed_point(self):
        oracle = paris_oracle(20)
        exact = exact_knn(oracle.table, 3)
        state = FriendState(exact.neighbors.copy())
        after = batch_round(state, oracle)
        assert after.last_changes == 0
        assert np.array_equal(
            np.sort(after.friends, axis=1), np.sort(exact.neighbors, axis=1)
        )

    def test_noop_when_n_is_k_plus_1(self):
        oracle = paris_oracle(5)
        state = init_random_kout(5, 4, seed=0)
        assert batch_round(state, oracle).last_changes == 0

    def test_independent_of_evaluation_order(self):
        # recompute the round with shuffled vertex processing; same result
        oracle = RankingOracle(random_ranking_table(40, seed=2))
        state = init_random_kout(40, 4, seed=3)
        after = batch_round(state, oracle, include_cofriends=True)

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
        state = batch_round(init_random_kout(30, 4, seed=4), oracle)
        assert_csr_transpose(state.friends)

    def test_round_counter_advances(self):
        oracle = paris_oracle(12)
        state = init_random_kout(12, 3, seed=0)
        assert batch_round(state, oracle).t == 1


class TestPointwisePass:
    def test_matches_batch_when_complete(self):
        oracle = paris_oracle(6)
        state = init_random_kout(6, 5, seed=1)
        b = batch_round(state.copy(), oracle)
        p = pointwise_pass(state.copy(), np.arange(6), oracle)
        assert b.last_changes == 0 and p.last_changes == 0

    def test_recall_improves_with_passes(self):
        oracle = paris_oracle(100)
        exact = exact_knn(oracle.table, 4)
        state = init_random_kout(100, 4, seed=5)
        schedule = np.arange(100)
        recalls = []
        for _ in range(3):
            state = pointwise_pass(state, schedule, oracle)
            recalls.append(recall(state.to_graph(), exact))
        assert recalls[2] >= recalls[1] >= recalls[0] - 1e-12

    def test_k_squared_new_candidates_per_visit(self):
        # each visit exposes at most K^2 candidates beyond the current set
        K = 8
        table = generic_crs(128, seed=11).table
        state = init_random_kout(128, K, seed=12)
        F = state.friends
        for x in range(128):
            pool = np.unique(F[F[x]].ravel())
            new = np.setdiff1d(pool, np.append(F[x], x))
            assert new.size <= K * K

    def test_schedule_must_be_permutation(self):
        state = init_random_kout(8, 2, seed=0)
        with pytest.raises(InputError):
            pointwise_pass(state, np.array([0, 1, 2, 3, 4, 5, 6, 6]), paris_oracle(8))

    def test_transpose_invariant(self):
        oracle = paris_oracle(25)
        state = init_random_kout(25, 3, seed=6)
        after = pointwise_pass(state, np.random.default_rng(0).permutation(25), oracle)
        assert_csr_transpose(after.friends)


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

    def test_monotone_quality_per_vertex(self):
        oracle = paris_oracle(128)
        state = init_random_kout(128, 4, seed=8)
        worst = state.worst_ranks(oracle.table)
        for _ in range(4):
            state = batch_round(state, oracle)
            new_worst = state.worst_ranks(oracle.table)
            assert (new_worst <= worst).all()
            worst = new_worst

    def test_work_accounting_bound_per_round(self):
        n, K = 256, 8
        oracle = RankingOracle(random_ranking_table(n, seed=2))
        state = init_random_kout(n, K, seed=2)
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
