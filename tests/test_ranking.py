import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nndlab.concordance import LinearOrder, baranyai_order
from nndlab.errors import InputError
from nndlab.ranking import (
    KnnGraph,
    RankTable,
    RankingOracle,
    exact_knn,
    exact_knn_via_oracle,
    ranking_from_distance_matrix,
    ranking_from_distances,
    recall,
    unique_keys,
)
from nndlab.spaces import random_ranking_table


def paris_dist(etas):
    return lambda i, j: etas[i] + etas[j]


class TestRankingFromDistances:
    def test_paris_five_points(self):
        etas = [1, 2, 3, 4, 5]
        table = ranking_from_distances(range(5), paris_dist(etas))
        # x_5 ranks x_1..x_4 in eta order
        assert [table.rank(4, y) for y in range(4)] == [1, 2, 3, 4]

    def test_two_points(self):
        table = ranking_from_distances(range(2), lambda i, j: 1.0)
        assert table.rank(0, 1) == 1
        assert table.rank(1, 0) == 1

    def test_powers_of_two_nearest_of_32(self):
        values = [2 ** i for i in range(6)]
        table = ranking_from_distances(range(6), lambda i, j: abs(values[i] - values[j]))
        # nearest two of 32 are 16 then 8
        assert list(table.order[5][:2]) == [4, 3]

    def test_non_finite_distance_rejected(self):
        with pytest.raises(InputError):
            ranking_from_distances(range(3), lambda i, j: math.inf)

    def test_negative_distance_rejected(self):
        with pytest.raises(InputError):
            ranking_from_distances(range(3), lambda i, j: -1.0)

    def test_tie_break_is_index_order_by_default(self):
        # all distances equal: ranking must follow item ids
        table = ranking_from_distances(range(5), lambda i, j: 1.0)
        for x in range(5):
            assert list(table.order[x]) == [y for y in range(5) if y != x]

    def test_tie_break_override(self):
        priority = [4, 3, 2, 1, 0]  # reversed precedence
        table = ranking_from_distances(range(5), lambda i, j: 1.0, tie_break=priority)
        for x in range(5):
            assert list(table.order[x]) == [y for y in reversed(range(5)) if y != x]

    def test_bad_tie_break_rejected(self):
        with pytest.raises(InputError):
            ranking_from_distances(range(3), lambda i, j: 1.0, tie_break=[0, 0, 1])

    def test_matches_bruteforce_sort(self):
        # random instances with deliberate ties, up to n = 200
        for n, seed in [(20, 0), (73, 1), (200, 2)]:
            rng = np.random.default_rng(seed)
            d = rng.integers(1, 30, size=(n, n)).astype(float)
            d = np.triu(d, 1)
            d = d + d.T
            table = ranking_from_distance_matrix(d)
            for x in range(0, n, max(1, n // 11)):
                expected = sorted((y for y in range(n) if y != x), key=lambda y: (d[x, y], y))
                assert list(table.order[x]) == expected


class TestRankTable:
    def test_rejects_non_permutation_rows(self):
        with pytest.raises(InputError):
            RankTable(np.array([[1, 1], [0, 2], [0, 1]]))

    def test_rejects_self_in_row(self):
        with pytest.raises(InputError):
            RankTable(np.array([[0, 1], [0, 2], [0, 1]]))

    def test_size_cap(self):
        order = np.array([[1, 2], [0, 2], [0, 1]])
        with pytest.raises(InputError):
            RankTable(order, max_items=2)

    def test_csv_roundtrip(self):
        table = random_ranking_table(7, seed=3)
        assert RankTable.from_csv(table.to_csv()) == table

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_preference_is_exclusive(self, seed):
        # exactly one of "prefers y to z", "prefers z to y" holds
        table = random_ranking_table(6, seed=seed)
        rng = np.random.default_rng(seed)
        x, y, z = rng.choice(6, size=3, replace=False)
        assert table.prefers(x, y, z) != table.prefers(x, z, y)


class TestExactKnn:
    def test_paris_shared_neighbor_sets(self):
        table = ranking_from_distances(range(12), paris_dist(list(range(1, 13))))
        graph = exact_knn(table, 4)
        for j in range(4, 12):
            assert set(graph.neighbors[j]) == {0, 1, 2, 3}

    def test_complete_graph_when_k_is_n_minus_1(self):
        table = random_ranking_table(6, seed=0)
        graph = exact_knn(table, 5)
        for x in range(6):
            assert set(graph.neighbors[x]) == set(range(6)) - {x}

    def test_matches_independent_full_sort(self):
        rng = np.random.default_rng(42)
        angles = rng.uniform(0, 2 * np.pi, size=20)

        def dist(i, j):
            delta = abs(angles[i] - angles[j])
            return min(delta, 2 * np.pi - delta)

        table = ranking_from_distances(range(20), dist)
        graph = exact_knn(table, 3)
        for x in range(20):
            expected = sorted((y for y in range(20) if y != x), key=lambda y: (dist(x, y), y))[:3]
            assert list(graph.neighbors[x]) == expected

    def test_k_out_of_range(self):
        table = random_ranking_table(5, seed=0)
        with pytest.raises(InputError):
            exact_knn(table, 5)
        with pytest.raises(InputError):
            exact_knn(table, 0)


class TestOracle:
    def test_prefers_counts_one_each(self):
        oracle = RankingOracle(random_ranking_table(8, seed=1))
        for i in range(5):
            oracle.prefers(0, 1 + i % 3, 4 + i % 3)
        assert oracle.comparisons == 5

    def test_top_k_selection_and_charge(self):
        table = random_ranking_table(30, seed=2)
        oracle = RankingOracle(table)
        pool = np.array([3, 7, 11, 15, 19, 23])
        top = oracle.top_k(0, pool, 3)
        expected = sorted(pool, key=lambda y: table.rank(0, y))[:3]
        assert list(top) == expected
        assert oracle.comparisons == 6 * math.ceil(math.log2(6))

    def test_top_k_rejects_self(self):
        oracle = RankingOracle(random_ranking_table(6, seed=0))
        with pytest.raises(InputError):
            oracle.top_k(2, np.array([1, 2, 3]), 2)

    def test_meter_safe_under_concurrent_readers(self):
        import threading

        oracle = RankingOracle(random_ranking_table(16, seed=4))

        def worker():
            for _ in range(2000):
                oracle.prefers(0, 1, 2)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert oracle.comparisons == 8 * 2000

    def test_comparison_sort_bound(self):
        # full exact KNN through counted pairwise comparisons stays within
        # the n (n-1) ceil(log2 n) sorting budget
        n = 200
        oracle = RankingOracle(random_ranking_table(n, seed=9))
        graph = exact_knn_via_oracle(oracle, 5)
        assert oracle.comparisons <= n * (n - 1) * math.ceil(math.log2(n))
        assert graph == exact_knn(oracle.table, 5)


class TestRecall:
    def test_identity(self):
        graph = exact_knn(random_ranking_table(10, seed=0), 3)
        assert recall(graph, graph) == 1.0

    def test_disjoint(self):
        exact = KnnGraph(np.array([[(x + 1) % 6, (x + 2) % 6] for x in range(6)]))
        approx = KnnGraph(np.array([[(x + 3) % 6, (x + 4) % 6] for x in range(6)]))
        assert recall(approx, exact) == 0.0

    def test_half_right_by_construction(self):
        # n=10, K=2: one of each pair of arcs correct -> recall exactly 1/2
        exact = KnnGraph(np.array([[(x + 1) % 10, (x + 2) % 10] for x in range(10)]))
        approx = KnnGraph(np.array([[(x + 1) % 10, (x + 5) % 10] for x in range(10)]))
        assert recall(approx, exact) == 0.5

    def test_mismatched_inputs_rejected(self):
        a = exact_knn(random_ranking_table(8, seed=0), 2)
        b = exact_knn(random_ranking_table(8, seed=0), 3)
        c = exact_knn(random_ranking_table(9, seed=0), 2)
        with pytest.raises(InputError):
            recall(a, b)
        with pytest.raises(InputError):
            recall(a, c)


class TestKnnGraphSerialization:
    def test_csv_roundtrip_exact(self):
        graph = exact_knn(random_ranking_table(9, seed=5), 4)
        assert KnnGraph.from_csv(graph.to_csv()) == graph

    def test_json_roundtrip_exact(self):
        graph = exact_knn(random_ranking_table(9, seed=6), 4)
        assert KnnGraph.from_json(graph.to_json()) == graph

    def test_rejects_self_loops(self):
        with pytest.raises(InputError):
            KnnGraph(np.array([[0, 1], [0, 2], [0, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            KnnGraph(np.array([[1, 1], [0, 2], [0, 1]]))


@pytest.mark.parametrize(
    "cls,value",
    [
        (RankTable, random_ranking_table(5, seed=1)),
        (KnnGraph, exact_knn(random_ranking_table(6, seed=2), 2)),
        (LinearOrder, baranyai_order(4)),
    ],
    ids=["RankTable", "KnnGraph", "LinearOrder"],
)
@pytest.mark.parametrize(
    "row,match",
    [
        pytest.param(row, "three integers", id=row)
        for row in ["0,1", "0,1,x", "0,1,2,3", "0;1;2"]
    ]
    + [
        # an empty line is skipped, so the second data row goes missing
        pytest.param("", "exactly once", id="missing"),
        pytest.param("1,1,0", "exactly once", id="repeated"),
        pytest.param("-1,2,0", "exactly once", id="negative-key"),
        # rank 0 of item 1 would fill the cell of item 0's last rank
        pytest.param("1,0,2", "exactly once", id="rank-zero"),
    ],
)
def test_from_csv_rejects_malformed_row(cls, value, row, match):
    lines = value.to_csv().splitlines()
    lines[2] = row
    with pytest.raises(InputError, match=match):
        cls.from_csv("\n".join(lines))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
def test_unique_keys_matches_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    got = unique_keys(keys)
    assert got.dtype == keys.dtype
    np.testing.assert_array_equal(got, np.unique(keys))
