import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nndlab import ranking
from nndlab.descent import random_kout
from nndlab.errors import InputError
from nndlab.ranking import (
    KnnGraph,
    RankTable,
    RankingOracle,
    exact_knn,
    ranking_from_distance_matrix,
    recall,
    unique_keys,
)
from nndlab.spaces import random_ranking_table


def graph_to_json(graph):
    return json.dumps(
        {"n": graph.n, "k": graph.k, "neighbors": graph.neighbors.tolist()},
        sort_keys=True,
    )


def graph_from_json(text):
    obj = json.loads(text)
    return KnnGraph(np.array(obj["neighbors"]))


def paris_dist(etas):
    return np.add.outer(etas, etas)


class TestRankingFromDistances:
    def test_paris_five_points(self):
        etas = [1, 2, 3, 4, 5]
        table = ranking_from_distance_matrix(paris_dist(etas))
        # x_5 ranks x_1..x_4 in eta order
        assert [table.ranks[4, y] for y in range(4)] == [1, 2, 3, 4]

    def test_two_points(self):
        table = ranking_from_distance_matrix(np.ones((2, 2)))
        assert table.ranks[0, 1] == 1
        assert table.ranks[1, 0] == 1

    def test_powers_of_two_nearest_of_32(self):
        values = [2 ** i for i in range(6)]
        table = ranking_from_distance_matrix(np.abs(np.subtract.outer(values, values)))
        # nearest two of 32 are 16 then 8
        assert list(table.order[5][:2]) == [4, 3]

    def test_non_finite_distance_rejected(self):
        with pytest.raises(InputError):
            ranking_from_distance_matrix(np.full((3, 3), math.inf))
        one_nan = np.ones((3, 3))
        one_nan[0, 2] = math.nan
        with pytest.raises(InputError, match="finite"):
            ranking_from_distance_matrix(one_nan)

    def test_negative_distance_rejected(self):
        with pytest.raises(InputError):
            ranking_from_distance_matrix(np.full((3, 3), -1.0))

    @pytest.mark.parametrize("dist", [np.float64(1.0), np.ones(3), np.ones((2, 3))],
                             ids=["0-d", "1-d", "2x3"])
    def test_non_square_matrix_rejected(self, dist):
        with pytest.raises(InputError, match="must be square"):
            ranking_from_distance_matrix(dist)

    def test_tie_break_is_index_order_by_default(self):
        # all distances equal: ranking must follow item ids
        table = ranking_from_distance_matrix(np.ones((5, 5)))
        for x in range(5):
            assert list(table.order[x]) == [y for y in range(5) if y != x]

    def test_diagonal_is_ignored(self):
        d = np.ones((4, 4))
        np.fill_diagonal(d, [math.nan, -1.0, math.inf, 0.0])
        assert ranking_from_distance_matrix(d) == ranking_from_distance_matrix(np.ones((4, 4)))

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
    @pytest.mark.parametrize(
        "row,col,entry",
        # -1 in place of item 3 indexes column 3 all the same, and n indexes past the row
        [(1, 2, -1), (1, 0, 4), (2, 0, 1), (3, 0, 3)],
        ids=["negative", "n", "repeated", "owner"],
    )
    def test_rejects_bad_rows(self, row, col, entry):
        order = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        order[row, col] = entry
        with pytest.raises(InputError, match="row x of order must be a permutation of all "
                                             "items except x"):
            RankTable(order)

    def test_int64_order_is_accepted_with_its_ranks(self):
        order = np.array([[2, 1], [0, 2], [1, 0]], dtype=np.int64)
        table = RankTable(order)
        assert table.order.dtype == np.int32 and np.array_equal(table.order, order)
        assert table.ranks.tolist() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]

    def test_size_cap(self, monkeypatch):
        # the cap is read when a table is built, so patching it takes effect
        monkeypatch.setattr(ranking, "MAX_TABLE_ITEMS", 2)
        order = np.array([[1, 2], [0, 2], [0, 1]])
        with pytest.raises(InputError, match="rank-table cap of 2"):
            RankTable(order)


class TestExactKnn:
    def test_paris_shared_neighbor_sets(self):
        table = ranking_from_distance_matrix(paris_dist(list(range(1, 13))))
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

        table = ranking_from_distance_matrix([[dist(i, j) for j in range(20)] for i in range(20)])
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
    def test_top_k_selection_and_charge(self):
        table = random_ranking_table(30, seed=2)
        oracle = RankingOracle(table)
        pool = np.array([3, 7, 11, 15, 19, 23])
        top = oracle.top_k(0, pool, 3)
        expected = sorted(pool, key=lambda y: table.ranks[0, y])[:3]
        assert list(top) == expected
        assert oracle.comparisons == 6 * math.ceil(math.log2(6))

    def test_top_k_rejects_self(self):
        # the owner in its own pool is never selected, and its entry is not charged
        table = random_ranking_table(6, seed=0)
        oracle = RankingOracle(table)
        assert oracle.top_k(2, np.array([1, 2, 3]), 2).tolist() == sorted(
            [1, 3], key=lambda y: table.ranks[2, y])
        assert oracle.comparisons == 2

    def test_top_k_refuses_an_empty_pool_without_charge(self):
        oracle = RankingOracle(random_ranking_table(6, seed=0))
        with pytest.raises(InputError, match="at least k=3"):
            oracle.top_k(2, np.array([], dtype=np.int64), 3)
        assert oracle.comparisons == 0

    def test_top_k_refuses_an_empty_list_pool_without_charge(self):
        # [] has numpy's float dtype: a row narrower than k is refused before its ranks are read
        oracle = RankingOracle(random_ranking_table(6, seed=0))
        with pytest.raises(InputError, match="at least k=3"):
            oracle.top_k(2, [], 3)
        assert oracle.comparisons == 0

    @pytest.mark.parametrize("x", [np.array([], dtype=np.int64), np.array([])],
                             ids=["int-owners", "float-owners"])
    def test_top_k_refuses_a_batch_of_no_owners_without_charge(self, x):
        oracle = RankingOracle(random_ranking_table(6, seed=0))
        with pytest.raises(InputError, match="one row of integer candidates per owner"):
            oracle.top_k(x, np.empty((0, 4), dtype=np.int64), 3)
        assert oracle.comparisons == 0

    @pytest.mark.parametrize("x,pool", [(0, [1.0, 2.0]), (0, [1.5, 2.0]), (0, [True, False]),
                                        (1.0, [0, 2])],
                             ids=["integral-floats", "floats", "bools", "float-owner"])
    def test_top_k_refuses_non_integer_ids_without_charge(self, x, pool):
        oracle = RankingOracle(random_ranking_table(5, seed=0))
        with pytest.raises(InputError, match="integer candidates"):
            oracle.top_k(x, np.array(pool), 1)
        with pytest.raises(InputError, match="integer candidates"):
            oracle.top_k(np.array([x, 3]), np.array([pool, pool]), 1)
        assert oracle.comparisons == 0

    def test_top_k_refuses_a_short_scalar_pool_without_charge(self):
        oracle = RankingOracle(random_ranking_table(30, seed=2))
        with pytest.raises(InputError, match="at least k=5"):
            oracle.top_k(0, np.array([19, 3, 11]), 5)
        assert oracle.comparisons == 0

    def test_top_k_refuses_a_scalar_row_short_of_distinct_candidates_without_charge(self):
        # the row is wider than k, but its owner and repeats leave two candidates for k = 3
        oracle = RankingOracle(random_ranking_table(8, seed=3))
        with pytest.raises(InputError, match="at least k=3"):
            oracle.top_k(4, np.array([4, 2, 3, 4, 2]), 3)
        assert oracle.comparisons == 0

    @pytest.mark.parametrize("pool", [[4, 1, 3, 5, 3], [1, 3, 4, 1, 5], [1, 5, 3, 5, 4]],
                             ids=["first", "middle", "last"])
    def test_top_k_rejects_self_anywhere_without_charge(self, pool):
        # the owner and repeats drop wherever they sit: the pool costs what {1, 3, 5} costs
        oracle, distinct = (RankingOracle(random_ranking_table(8, seed=3)) for _ in range(2))
        want = distinct.top_k(4, np.array([1, 3, 5]), 2)
        assert oracle.top_k(4, np.array(pool), 2).tolist() == want.tolist()
        assert oracle.comparisons == distinct.comparisons == 3 * 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.data())
    def test_batched_top_k_equals_per_owner_calls(self, n, seed, data):
        table = random_ranking_table(n, seed)
        k = data.draw(st.integers(1, n - 1))
        owners = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        pools = [
            data.draw(st.lists(st.sampled_from([y for y in range(n) if y != x]),
                               min_size=k, unique=True))
            for x in owners
        ]
        scalar = RankingOracle(table)
        want = [scalar.top_k(x, np.array(pool), k).tolist() for x, pool in zip(owners, pools)]
        # each row its distinct pool with repeats and the owner mixed in, padded by the owner
        rng = np.random.default_rng(seed)
        width = max(len(pool) for pool in pools) + data.draw(st.integers(0, 2 * n))
        rows = np.empty((len(owners), width), dtype=np.int64)
        for row, x, pool in zip(rows, owners, pools):
            extra = rng.choice(pool + [x], size=width - len(pool))
            row[:] = rng.permutation(np.concatenate([pool, extra]))
        batched = RankingOracle(table)
        assert batched.top_k(np.array(owners), rows, k).tolist() == want
        assert batched.comparisons == scalar.comparisons

    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_batched_top_k_refuses_an_owner_in_any_pool_without_charge(self, where):
        # an owner in its row does not count towards k: with k = 3 that row is short
        oracle = RankingOracle(random_ranking_table(8, seed=3))
        own = np.array([1, 4, 6])
        rows = np.array([[2, 3, 5], [1, 2, 3], [0, 2, 3]])
        rows.ravel()[where] = own[where // 3]
        with pytest.raises(InputError, match="at least k=3"):
            oracle.top_k(own, rows, 3)
        assert oracle.comparisons == 0
        top = oracle.top_k(own, rows, 2)
        assert top.shape == (3, 2) and not (top == own[:, None]).any()
        assert oracle.comparisons == 2 * 6 + 2

    def test_batched_top_k_refuses_a_short_pool_without_charge(self):
        oracle = RankingOracle(random_ranking_table(8, seed=3))
        with pytest.raises(InputError, match="at least k=3"):
            oracle.top_k(np.array([1, 4]), np.array([[2, 3, 5], [2, 3, 2]]), 3)
        assert oracle.comparisons == 0
        # a scalar owner's short pool is refused the same way
        with pytest.raises(InputError, match="at least k=3"):
            oracle.top_k(4, np.array([2, 3, 2]), 3)
        assert oracle.comparisons == 0

    @pytest.mark.parametrize("x,pool", [(0, [1, -1]), (0, [2, 5]), (-1, [1, 2])],
                             ids=["candidate-minus-one", "candidate-n", "negative-owner"])
    def test_top_k_refuses_ids_outside_the_table_without_charge(self, x, pool):
        # the flat gather would read a neighbouring owner's ranks for such an id
        oracle = RankingOracle(random_ranking_table(5, seed=0))
        oracle.top_k(1, np.array([0, 2]), 1)
        before = oracle.comparisons
        with pytest.raises(InputError, match=r"all ids in \[0, 5\)"):
            oracle.top_k(x, np.array(pool), 1)
        with pytest.raises(InputError, match=r"all ids in \[0, 5\)"):
            oracle.top_k(np.array([x, 3]), np.array([pool, [0, 1]]), 1)
        assert oracle.comparisons == before

    def test_meter_safe_under_concurrent_readers(self):
        import threading

        oracle = RankingOracle(random_ranking_table(16, seed=4))

        def worker():
            for _ in range(2000):
                oracle.top_k(0, np.array([1, 2]), 1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # each call sorts a pool of 2, charged 2 * ceil(log2 2) = 2
        assert oracle.comparisons == 8 * 2000 * 2


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 30), st.data())
    def test_equals_membership_matrix_count(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        exact, approx = (
            KnnGraph(random_kout(n, k, data.draw(st.integers(0, 2**32 - 1))))
            for _ in range(2)
        )
        member = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), k)
        member[rows, exact.neighbors.ravel()] = True
        assert recall(approx, exact) == float(member[rows, approx.neighbors.ravel()].sum()) / (n * k)

    def test_mismatched_inputs_rejected(self):
        a = exact_knn(random_ranking_table(8, seed=0), 2)
        b = exact_knn(random_ranking_table(8, seed=0), 3)
        c = exact_knn(random_ranking_table(9, seed=0), 2)
        with pytest.raises(InputError):
            recall(a, b)
        with pytest.raises(InputError):
            recall(a, c)


class TestKnnGraphSerialization:
    def test_json_roundtrip_exact(self):
        graph = exact_knn(random_ranking_table(9, seed=6), 4)
        assert graph_from_json(graph_to_json(graph)) == graph

    def test_rejects_self_loops(self):
        with pytest.raises(InputError):
            KnnGraph(np.array([[0, 1], [0, 2], [0, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            KnnGraph(np.array([[1, 1], [0, 2], [0, 1]]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
def test_unique_keys_matches_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    got = unique_keys(keys)
    assert got.dtype == keys.dtype
    np.testing.assert_array_equal(got, np.unique(keys))
