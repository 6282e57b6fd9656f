import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nndlab import diagnostics
from nndlab.descent import FriendState, random_kout
from nndlab.diagnostics import (
    diameter_experiment,
    expansion_alpha_reference,
    expansion_check,
    undirected_diameter,
)
from nndlab.errors import InputError


class TestUndirectedDiameter:
    def test_path_graph(self):
        # 0-1-2-3-4 as a 1-out digraph
        F = np.array([[1], [0], [1], [2], [3]])
        assert undirected_diameter(F) == 4

    def test_complete_graph(self):
        n = 6
        F = np.array([[y for y in range(n) if y != x] for x in range(n)])
        assert undirected_diameter(F) == 1

    def test_star(self):
        F = np.array([[1], [0], [0], [0], [0], [0], [0]])
        assert undirected_diameter(F) == 2

    def test_disconnected(self):
        F = np.array([[1], [0], [3], [2]])
        assert undirected_diameter(F) == "disconnected"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitset_bfs_matches_the_largest_eccentricity(self, data):
        # blocks of 64 rows and a partial last word: n crosses 64 and 128;
        # K = 1 graphs are often disconnected
        n = data.draw(st.integers(2, 150), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        F = np.array(data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                                        min_size=n, max_size=n), label="F"))
        indptr, nbrs = diagnostics.undirected_adjacency(F)
        eccentricities = [diagnostics._bfs_eccentricity(indptr, nbrs, v, n)[0] for v in range(n)]
        want = "disconnected" if None in eccentricities else max(eccentricities)
        assert undirected_diameter(F) == want

    def test_interval_mode_brackets_exact(self, monkeypatch):
        F = random_kout(200, 3, 9)
        exact = undirected_diameter(F)
        monkeypatch.setattr(diagnostics, "EXACT_DIAMETER_LIMIT", 10)
        interval = undirected_diameter(F)
        assert isinstance(interval, tuple)
        lb, ub = interval
        assert lb <= exact <= ub


class TestDiameterExperiment:
    def test_small_run_within_bound(self):
        report = diameter_experiment(2000, 3, trials=5, epsilon=0.5, seed=2)
        assert report.disconnected == 0
        assert report.fraction_within == 1.0
        assert report.bound == pytest.approx(1.5 * math.log(2000) / math.log(2))

    def test_forced_complete_graph(self):
        report = diameter_experiment(5, 4, trials=3, epsilon=0.5, seed=0)
        assert report.diameters == [1, 1, 1]

    @pytest.mark.slow
    def test_higher_k_does_not_increase_median_diameter(self):
        low = diameter_experiment(10_000, 3, trials=7, epsilon=0.5, seed=3)
        high = diameter_experiment(10_000, 8, trials=7, epsilon=0.5, seed=3)
        assert np.median(high.diameters) <= np.median(low.diameters)

    def test_requires_k_at_least_3(self):
        with pytest.raises(InputError):
            diameter_experiment(100, 2, trials=1, epsilon=0.5, seed=0)

    def test_deterministic_report(self):
        a = diameter_experiment(500, 3, trials=4, epsilon=0.5, seed=5)
        b = diameter_experiment(500, 3, trials=4, epsilon=0.5, seed=5)
        assert a.to_json_dict() == b.to_json_dict()

    def test_histogram_csv(self):
        report = diameter_experiment(500, 3, trials=4, epsilon=0.5, seed=5)
        text = report.histogram_csv()
        assert text.startswith("diameter,count")
        total = sum(int(line.split(",")[1]) for line in text.strip().splitlines()[1:])
        assert total == 4


class TestDegreeAccounting:
    def test_degree_sum_identity(self):
        # multigraph degree = K + cofriend count sums to exactly 2 K n
        n, K = 3000, 5
        state = FriendState(random_kout(n, K, 6))
        total = sum(K + np.bincount(state.friends.ravel(), minlength=n))
        assert total == 2 * K * n

    def test_bfs_distances_symmetric(self):
        from nndlab.diagnostics import _bfs_eccentricity, undirected_adjacency

        F = random_kout(300, 3, 7)
        indptr, nbrs = undirected_adjacency(F)
        _, d0 = _bfs_eccentricity(indptr, nbrs, 0, 300)
        for v in (3, 77, 150):
            _, dv = _bfs_eccentricity(indptr, nbrs, v, 300)
            assert dv[0] == d0[v]


class TestExpansion:
    def test_singletons_always_expand(self):
        F = random_kout(500, 8, 1)
        report = expansion_check(F, 0.2, 1.0, sample_sets=200, seed=2)
        assert report.violations == 0

    def test_full_vertex_set_never_tested(self):
        F = random_kout(200, 4, 3)
        report = expansion_check(F, 0.5, 1.0, sample_sets=50, seed=4)
        assert report.max_size < 200

    def test_no_violations_at_reference_scale(self):
        F = random_kout(2000, 16, 8)
        report = expansion_check(F, 0.05, 1.0, sample_sets=2000, seed=9)
        assert report.violations == 0
        assert report.min_margin > 0

    def test_alpha_too_small_rejected(self):
        F = random_kout(100, 4, 0)
        with pytest.raises(InputError):
            expansion_check(F, 1e-6, 1.0, sample_sets=10, seed=0)

    @pytest.mark.parametrize("F", [np.array([[0]]), np.zeros((0, 3), dtype=np.int64)],
                             ids=["one-vertex", "empty"])
    def test_fewer_than_two_vertices_rejected(self, F):
        # one vertex raised ZeroDivisionError from log(1), and none a math domain error
        with pytest.raises(InputError, match="at least two vertices"):
            expansion_check(F, 0.5, 1.0, sample_sets=3, seed=0)

    def test_reference_alpha_formula(self):
        value = expansion_alpha_reference(16, 1.0)
        assert value == pytest.approx((math.e ** 3 * 17 ** 4) ** -1.0)
