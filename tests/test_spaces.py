import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_spaces
from nndlab import cli, spaces
from nndlab.errors import InputError
from nndlab.spaces import (
    LcsSpace,
    PowersOfTwoSpace,
    circle_sample,
    lcs_qk,
    lcs_sample,
    paris_space,
    random_ranking_table,
    rank_table,
    torus_poisson,
    wrapped_distance,
)


def distance_grid(space):
    ids = np.arange(space.n)
    return space.distance(ids[:, None], ids[None, :])


class TestParis:
    def test_distance_formula(self):
        d = distance_grid(paris_space([1, 2, 3]))
        assert d[0, 2] == d[2, 0] == 4.0
        assert (np.diag(d) == 0).all()

    def test_nearest_neighbor_is_first_leaf(self):
        space = paris_space(range(1, 13))
        table = rank_table(space)
        for j in range(1, 12):
            assert table.order[j][0] == 0

    def test_triangle_inequality_all_triples(self):
        d = distance_grid(paris_space([1, 2, 4, 8]))
        # d[a, c] <= d[a, b] + d[b, c] for every a, b, c at once
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12).all()

    def test_shared_knn_sets_beyond_k(self):
        table = rank_table(paris_space(range(1, 51)))
        K = 4
        reference = set(range(K))
        for j in range(K, 50):
            assert set(table.order[j][:K]) == reference

    def test_requires_increasing_etas(self):
        with pytest.raises(InputError):
            paris_space([3, 2, 1])


class TestCircle:
    def test_deterministic_given_seed(self):
        assert circle_sample(50, seed=7).angles == circle_sample(50, seed=7).angles

    def test_mean_pairwise_distance(self):
        # path distance of two uniform points averages pi/2
        space = circle_sample(2000, seed=11)
        rng = np.random.default_rng(5)
        i = rng.integers(0, space.n, size=100_000)
        j = rng.integers(0, space.n, size=100_000)
        keep = i != j
        a = np.asarray(space.angles)
        delta = np.abs(a[i[keep]] - a[j[keep]])
        d = np.minimum(delta, 2 * np.pi - delta)
        assert abs(d.mean() - np.pi / 2) < 0.02

    def test_distance_in_range(self):
        d = distance_grid(circle_sample(40, seed=0))
        assert (d >= 0).all() and (d <= np.pi + 1e-12).all()
        assert (d == d.T).all() and (np.diag(d) == 0).all()


class TestPowersOfTwo:
    def test_values(self):
        assert PowersOfTwoSpace(6).values == [1, 2, 4, 8, 16, 32]

    def test_nearest_two_of_32(self):
        table = rank_table(PowersOfTwoSpace(6))
        assert list(table.order[5][:2]) == [4, 3]

    def test_size_cap(self):
        with pytest.raises(InputError):
            PowersOfTwoSpace(60)

    @pytest.mark.parametrize("n", [1, 53])
    def test_the_space_checks_its_size(self, n):
        # built directly, 60 points ranked 5 rows unlike the exact integer order
        with pytest.raises(InputError):
            PowersOfTwoSpace(n)


def brute_lcs_length(a, b):
    # independent O(m^2) oracle: nested loops, no numpy
    best = 0
    for i in range(len(a)):
        for j in range(len(b)):
            length = 0
            while i + length < len(a) and j + length < len(b) and a[i + length] == b[j + length]:
                length += 1
            best = max(best, length)
    return best


def make_space(strings, alphabet="abcdez"):
    return LcsSpace(m=len(strings[0]), alphabet=alphabet, strings=tuple(strings))


class TestLcs:
    def test_full_prefix_match(self):
        space = make_space(["abcdea", "abcdez"])
        rho = space.distance(0, 1)
        assert rho == pytest.approx(1 / 6)

    def test_known_example(self):
        space = make_space(["abcde", "zbcdz"])
        rho = space.distance(0, 1)
        assert brute_lcs_length("abcde", "zbcdz") == 3
        assert rho == pytest.approx(0.4)

    def test_matches_bruteforce_dp(self):
        space = lcs_sample(24, 20, seed=3)
        for i in range(0, 24, 5):
            for j in range(i + 1, 24, 7):
                length = brute_lcs_length(space.strings[i], space.strings[j])
                assert space.distance(i, j) == 1.0 - length / 20

    def test_rho_symmetric(self):
        space = lcs_sample(30, 16, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            i, j = rng.choice(30, size=2, replace=False)
            assert space.distance(i, j) == space.distance(j, i)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InputError):
            LcsSpace(m=3, alphabet="abc", strings=("abc", "abcd"))

    @pytest.mark.parametrize("strings", [("abc", "abd", "abcd"), ("abc", "abd", "abz")],
                             ids=["length", "character"])
    def test_malformed_space_rejected(self, strings):
        # every string is checked when the space is built, so one bad string refuses every pair
        with pytest.raises(InputError, match="every string must be 3 characters"):
            LcsSpace(m=3, alphabet="abcd", strings=strings)

    def test_triangle_inequality_sampled(self):
        space = lcs_sample(40, 48, seed=9)
        rng = np.random.default_rng(2)
        rho = {}

        def get(i, j):
            key = (min(i, j), max(i, j))
            if key not in rho:
                rho[key] = space.distance(*key)
            return rho[key]

        for _ in range(1000):
            i, j, k = rng.choice(40, size=3, replace=False)
            assert get(i, k) <= get(i, j) + get(j, k) + 1e-12


def float_bits(x):
    # bytes tell 0.0 from -0.0, which == does not
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def lcs_spaces(draw):
    """Directly built spaces: any alphabet, with repeated and identical strings."""
    alphabet = "".join(draw(st.lists(st.characters(), min_size=1, max_size=5, unique=True)))
    m = draw(st.integers(1, 12))
    word = st.text(st.sampled_from(alphabet), min_size=m, max_size=m)
    distinct = draw(st.lists(word, min_size=1, max_size=4))
    strings = draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=7))
    return LcsSpace(m=m, alphabet=alphabet, strings=tuple(strings))


class TestLcsKernel:
    @settings(max_examples=150, deadline=None)
    @given(lcs_spaces(), st.sampled_from([1, 100, spaces._LCS_CELLS]))
    def test_distance_matches_reference_bit_for_bit(self, space, cells):
        # a small cell budget splits the pairs into many blocks, down to one pair each
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "_LCS_CELLS", cells)
            rho = distance_grid(space)
        for a in range(space.n):
            for b in range(space.n):
                assert float_bits(rho[a, b]) == float_bits(reference_spaces.lcs_rho(space, a, b))

    @settings(max_examples=200, deadline=None)
    @given(st.text("ab\u00e9\U0001f600", max_size=10), st.text("ab\u00e9\U0001f600z", max_size=14))
    def test_longest_common_substring_matches_reference(self, a, b):
        # unequal lengths and characters of no alphabet, straight through the kernel
        A, B = (np.array([[ord(c) for c in s]], dtype=np.int64) for s in (a, b))
        assert spaces._lcs_length(A, B).tolist() == [reference_spaces.lcs_length(a, b)]

    def test_memory_is_one_row_per_pair(self, monkeypatch):
        # a whole table per pair took 3 MB here, and 149 GiB at m = 200000
        space = lcs_sample(4, 1000, seed=0)
        a, b = np.triu_indices(4, 1)
        whole = space.distance(a, b)
        monkeypatch.setattr(spaces, "_LCS_CELLS", 1 << 10)
        tracemalloc.start()
        try:
            blocked = space.distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert float_bits(blocked) == float_bits(whole)
        assert peak <= 1 << 18

    def test_rank_table_of_sampled_strings_matches_reference(self):
        space = lcs_sample(30, 12, seed=2)
        rho = [[reference_spaces.lcs_rho(space, x, y) if x != y else math.inf
                for y in range(30)] for x in range(30)]
        order = [sorted(range(30), key=lambda y: (rho[x][y], y))[:-1] for x in range(30)]
        assert rank_table(space).order.tolist() == order


@pytest.mark.parametrize("n", [2, 40, 300])
def test_distance_grid_equals_matrix_expression(n):
    # the distance matrices each space was ranked by, written out
    rng = np.random.default_rng(n)
    paris = paris_space(np.cumsum(rng.uniform(0.1, 2.0, size=n)))
    e = np.asarray(paris.etas)
    d = e[:, None] + e[None, :]
    np.fill_diagonal(d, 0.0)
    assert float_bits(distance_grid(paris)) == float_bits(d)
    circle = circle_sample(n, seed=n)
    a = np.asarray(circle.angles)
    delta = np.abs(a[:, None] - a[None, :])
    assert float_bits(distance_grid(circle)) == float_bits(np.minimum(delta, 2 * np.pi - delta))
    powers = PowersOfTwoSpace(min(n, 52))  # the space is capped at 52 points
    v = np.array(powers.values, dtype=np.float64)
    assert float_bits(distance_grid(powers)) == float_bits(np.abs(v[:, None] - v[None, :]))


class TestLcsQk:
    def test_printed_numeric_example(self):
        q_K, q_1 = lcs_qk(2 ** 16, 2 ** 33, 2 ** 5, 2 ** -4)
        assert round(q_K) == 15
        assert round(q_1) == 16

    def test_monotone_in_k(self):
        q_K, q_1 = lcs_qk(1000, 10 ** 6, 16, 0.25)
        assert q_K < q_1

    def test_doubling_n_shifts_q1(self):
        p = 2 ** -4
        _, q1a = lcs_qk(2 ** 12, 2 ** 20, 8, p)
        _, q1b = lcs_qk(2 ** 12, 2 ** 21, 8, p)
        assert q1b - q1a == pytest.approx(math.log(2) / (-math.log(p)), abs=1e-12)
        assert q1b - q1a == pytest.approx(0.25, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            lcs_qk(100, 10, 10, 0.5)
        with pytest.raises(InputError):
            lcs_qk(100, 1000, 4, 1.5)


class TestTorus:
    def test_direct_distance(self):
        assert wrapped_distance(np.array([0.0, 0.0]), np.array([0.3, -0.4])) == pytest.approx(0.4)

    def test_wraparound(self):
        assert wrapped_distance(np.array([0.9]), np.array([-0.9])) == pytest.approx(0.2)

    def test_symmetry_and_triangle(self):
        space = torus_poisson(10, 3, seed=0)
        rng = np.random.default_rng(4)
        u, v, w = (rng.uniform(-1, 1, size=(10_000, 3)) for _ in range(3))
        duv = reference_spaces.wrapped_deltas(u - v).max(axis=1)
        dvu = reference_spaces.wrapped_deltas(v - u).max(axis=1)
        dvw = reference_spaces.wrapped_deltas(v - w).max(axis=1)
        duw = reference_spaces.wrapped_deltas(u - w).max(axis=1)
        assert np.allclose(duv, dvu)
        assert (duw <= duv + dvw + 1e-12).all()

    def test_poisson_count_mean(self):
        counts = [torus_poisson(50, 2, seed=s).n for s in range(10_000)]
        assert abs(np.mean(counts) - 50) < 1.5

    def test_deterministic_given_seed(self):
        a = torus_poisson(100, 3, seed=12)
        b = torus_poisson(100, 3, seed=12)
        assert np.array_equal(a.points, b.points)

    def test_ball_occupancy_fraction(self):
        space = torus_poisson(10_000, 4, seed=21)
        inside = (np.abs(space.points) <= 0.5).all(axis=1).mean()
        # the volume ratio of a radius-r ball is r^d
        assert abs(inside - 0.5 ** 4) < 0.01

    def test_equality_and_hash_are_identity(self):
        # with an ndarray field, dataclass equality raised "truth value ... is ambiguous"
        a, b = torus_poisson(10, 2, seed=0), torus_poisson(10, 2, seed=0)
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestRankTables:
    def test_every_space_yields_valid_table(self):
        # RankTable's constructor checks the per-point bijection
        rank_table(paris_space(range(1, 21)))
        rank_table(circle_sample(40, seed=1))
        rank_table(PowersOfTwoSpace(10))
        rank_table(lcs_sample(12, 16, seed=3))
        random_ranking_table(25, seed=4)

    def test_non_finite_distances_refused(self):
        # a directly built space is checked where the distances are ranked
        with pytest.raises(InputError, match="finite"):
            rank_table(spaces.ParisSpace((1.0, math.nan, 3.0)))

    def test_torus_has_no_rank_table(self):
        # the torus is searched by range query, never ranked whole
        with pytest.raises(InputError, match="no rank table builder for TorusSpace"):
            rank_table(torus_poisson(60, 2, seed=2))

    def test_random_ranking_tables_differ_across_seeds(self):
        a = random_ranking_table(12, seed=0)
        b = random_ranking_table(12, seed=1)
        assert a != b


class TestSerialization:
    def test_config_has_parameters_not_points(self, tmp_path):
        # an nnd report records how to resample its circle, never the angles
        out = tmp_path / "report.json"
        assert cli.main(["nnd", "--space", "circle", "--n", "30", "--k", "3",
                         "--seed", "9", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"seed": 9' in text and '"space": "circle"' in text
        angles = circle_sample(30, seed=9).angles
        assert not any(repr(a) in text for a in angles)
