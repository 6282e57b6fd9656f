import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nndlab import concordance, ranking
from nndlab.concordance import (
    LinearOrder,
    all_pairs,
    baranyai_order,
    concordancy_check,
    concordant5_system,
    enumerate_small,
    eulerian_order,
    generic_crs,
    is_isolated,
    linf_embed,
    n_pairs,
    pair_index,
    pair_unrank,
    phi,
    powers_of_two_order,
    verify_embedding,
    white_component,
    white_edge_fraction,
)
from nndlab.errors import InputError, NotConcordantError, ResourceLimitError
from nndlab.ranking import RankTable
from nndlab.spaces import PowersOfTwoSpace, paris_space, random_ranking_table, rank_table


def peak_bytes(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairIndexing:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.data())
    def test_roundtrip(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n_pairs(n) - 1))
        i, j = pair_unrank(k, n)
        assert 0 <= i < j < n
        assert pair_index(i, j, n) == k

    def test_lexicographic(self):
        n = 5
        assert [pair_unrank(k, n) for k in range(n_pairs(n))] == all_pairs(n)


class TestLinearOrder:
    def test_positions(self):
        order = LinearOrder(3, [(0, 1), (0, 2), (1, 2)])
        assert order.positions_array()[pair_index(0, 1, 3)] == 1
        assert order.positions_array()[pair_index(2, 1, 3)] == 3

    def test_validation(self):
        with pytest.raises(InputError):
            LinearOrder(3, [(0, 1), (0, 2), (0, 1)])
        with pytest.raises(InputError):
            LinearOrder(4, [(0, 1), (0, 2), (1, 2)])


class TestPhi:
    def test_three_point_readoff(self):
        crs = phi(LinearOrder(3, [(0, 1), (0, 2), (1, 2)]))
        assert list(crs.table.order[0]) == [1, 2]
        assert list(crs.table.order[1]) == [0, 2]
        assert list(crs.table.order[2]) == [0, 1]

    def test_images_always_concordant(self):
        for seed in range(100):
            assert generic_crs(6, seed).is_concordant

    def test_powers_order_matches_distance_ranking(self):
        image = phi(powers_of_two_order(6))
        assert image.table == rank_table(PowersOfTwoSpace(6))

    def test_restriction_soundness(self):
        # the order restricted to pairs at x reproduces x's ranking
        order = LinearOrder(
            5, [all_pairs(5)[i] for i in np.random.default_rng(3).permutation(10)]
        )
        crs = phi(order)
        pos = order.positions_array()
        for x in range(5):
            ranked = sorted(
                (y for y in range(5) if y != x), key=lambda y: pos[pair_index(x, y, 5)]
            )
            assert list(crs.table.order[x]) == ranked


    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=8),
           st.data())
    def test_batched_rows_match_phi(self, n, B, data):
        N = n_pairs(n)
        perms = np.array([data.draw(st.permutations(range(N))) for _ in range(B)],
                         dtype=np.int64)
        rows = concordance._phi_orders(perms, n)
        assert rows.shape == (B, n, n - 1)
        for perm, row in zip(perms, rows):
            order = LinearOrder.from_perm(n, perm)
            assert np.array_equal(row, phi(order).table.order)
            # item x lists the others by the position of {x, y}
            pos = order.positions_array()
            assert row.tolist() == [sorted(set(range(n)) - {x}, key=lambda y: pos[pair_index(x, y, n)])
                                    for x in range(n)]


class TestConcordancyCheck:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_batched_check_matches_per_table(self, n):
        # generic images are concordant, most random tables are cyclic
        tables = ([generic_crs(n, s).table for s in range(4)]
                  + [random_ranking_table(n, s) for s in range(8)])
        tables = [tables[i] for i in np.random.default_rng(n).permutation(len(tables))]
        expect = [concordancy_check(t).is_concordant for t in tables]
        assert any(expect) and not all(expect)
        N = n_pairs(n)
        succ, count, labels = concordance._strong_components(np.stack([t.order for t in tables]))
        on_cycle = (np.bincount(labels)[labels] > 1).reshape(len(tables), N).any(axis=1)
        assert (~on_cycle).tolist() == expect
        assert count < len(tables) * N
        # table b's rows are its own successors, shifted to the nodes b*N .. b*N + N-1
        for b, table in enumerate(tables):
            alone = concordance._successors(table.order[None])
            assert np.array_equal(succ[b * N : (b + 1) * N], alone + b * N)
        concordant = np.stack([t.order for t, ok in zip(tables, expect) if ok])
        assert concordance._strong_components(concordant)[1] == len(concordant) * N

    def test_worked_five_point_system(self):
        table, _ = concordant5_system()
        crs = concordancy_check(table)
        assert crs.is_concordant
        # relations forced across different base points
        assert crs.order_leq((0, 1), (1, 2))  # ab before bc
        assert crs.order_leq((2, 4), (0, 4))  # ce before ae
        assert crs.order_leq((1, 2), (0, 2))  # bc before ac
        assert crs.order_leq((0, 3), (1, 3))  # ad before bd
        assert not crs.order_leq((0, 2), (0, 1))  # top element precedes nothing

    def test_smallest_cyclic_system(self):
        table = RankTable(np.array([[1, 2], [2, 0], [0, 1]]))
        crs = concordancy_check(table)
        assert not crs.is_concordant
        cycle = crs.cycle
        assert len(cycle) == 3
        assert set(cycle) == {(0, 1), (0, 2), (1, 2)}

    def test_cycle_is_genuine(self):
        table = RankTable(np.array([[1, 2], [2, 0], [0, 1]]))
        crs = concordancy_check(table)
        arcs = set()
        for x in range(3):
            seq = [(min(x, int(y)), max(x, int(y))) for y in table.order[x]]
            arcs.update(zip(seq, seq[1:]))
        cycle = crs.cycle
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in arcs

    @pytest.mark.parametrize("p", [(0, 7), (-1, 3), (5, 9)], ids=["0-7", "neg1-3", "5-9"])
    def test_order_leq_refuses_pairs_outside_the_items(self, p):
        # (0, 7) once answered for the pair (1, 3), (-1, 3) overflowed and
        # (5, 9) reached the BFS as a node past the last
        crs = generic_crs(6, 0)
        with pytest.raises(InputError):
            crs.order_leq(p, (2, 3))
        with pytest.raises(InputError):
            crs.order_leq((2, 3), p)

    def test_random_systems_rarely_concordant(self):
        concordant = sum(
            concordancy_check(random_ranking_table(10, seed=s)).is_concordant
            for s in range(200)
        )
        assert concordant / 200 < 0.05


EXPECTED_5x10 = np.array(
    [
        [1.1, 0, 0, 1.4, 0, 0, 1.7, 1.8, 0, 0],
        [-1.1, 0, 0, 0, 1.5, 0, 0, 0, 1.9, 2.0],
        [0, 1.2, 1.3, 0, -1.5, 0, 0, -1.8, 0, 0],
        [0, -1.2, 0, 0, 0, 1.6, -1.7, 0, -1.9, 0],
        [0, 0, -1.3, -1.4, 0, -1.6, 0, 0, 0, -2.0],
    ]
)


class TestEmbedding:
    def test_worked_example_matrix(self):
        table, extension = concordant5_system()
        emb = linf_embed(concordancy_check(table), extension=extension)
        assert np.allclose(emb.coords, EXPECTED_5x10, atol=1e-12)

    def test_two_points(self):
        table = RankTable(np.array([[1], [0]]))
        emb = linf_embed(concordancy_check(table))
        assert np.allclose(emb.coords, [[2.0], [-2.0]])

    def test_distances_follow_positions(self):
        crs = generic_crs(8, seed=4)
        emb = linf_embed(crs, seed=0)
        N = n_pairs(8)
        D = emb.distances()
        position = {p: k + 1 for k, p in enumerate(emb.column_pairs)}
        for i in range(8):
            for j in range(i + 1, 8):
                assert abs(D[i, j] - (2 + 2 * position[(i, j)] / N)) < 1e-12

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (8, 2), (17, 3), (40, 4)])
    def test_distances_equal_broadcast_form(self, n, seed):
        # the n x n x N broadcast this once allocated, as the byte-for-byte reference
        emb = linf_embed(generic_crs(n, seed=seed), seed=seed)
        c = emb.coords
        want = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
        got = emb.distances()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_verify_accepts_output(self):
        crs = generic_crs(7, seed=1)
        assert verify_embedding(crs, linf_embed(crs, seed=2))

    def test_verify_rejects_row_swap(self):
        crs = generic_crs(6, seed=2)
        emb = linf_embed(crs, seed=0)
        coords = emb.coords.copy()
        coords[[0, 1]] = coords[[1, 0]]
        broken = type(emb)(coords, emb.column_pairs)
        assert not verify_embedding(crs, broken)

    def test_verify_accepts_scaling(self):
        crs = generic_crs(6, seed=3)
        emb = linf_embed(crs, seed=0)
        scaled = type(emb)(emb.coords * 3.0, emb.column_pairs)
        assert verify_embedding(crs, scaled)

    def test_rejects_cyclic_input_with_witness(self):
        bad = concordancy_check(RankTable(np.array([[1, 2], [2, 0], [0, 1]])))
        with pytest.raises(NotConcordantError) as err:
            linf_embed(bad)
        assert len(err.value.cycle) >= 3

    def test_rejects_non_extension(self):
        table, extension = concordant5_system()
        crs = concordancy_check(table)
        reversed_ext = LinearOrder(5, list(reversed(extension.pairs)))
        with pytest.raises(InputError):
            linf_embed(crs, extension=reversed_ext)

    def test_seeded_extension_is_deterministic(self):
        crs = generic_crs(7, seed=5)
        a = linf_embed(crs, seed=11)
        b = linf_embed(crs, seed=11)
        assert np.array_equal(a.coords, b.coords)

    def test_matrix_entry_invariants(self):
        # per column: support exactly the pair's two rows, sum zero,
        # magnitudes in (1, 2] strictly increasing with position
        emb = linf_embed(generic_crs(9, seed=6), seed=0)
        coords = emb.coords
        assert np.allclose(coords.sum(axis=0), 0.0)
        magnitudes = []
        for col, (i, j) in enumerate(emb.column_pairs):
            support = np.flatnonzero(coords[:, col])
            assert sorted(support) == [i, j]
            mag = abs(coords[i, col])
            assert 1.0 < mag <= 2.0
            magnitudes.append(mag)
        assert (np.diff(magnitudes) > 0).all()

    def test_equality_and_hash_are_identity(self):
        # with an ndarray field, dataclass equality raised "truth value ... is ambiguous"
        a, b = (linf_embed(generic_crs(6, seed=0), seed=0) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


def _producer_call(name, n):
    """A call of the rank-table producer ``name`` at n items, its input built here."""
    if name == "rank_table":
        space = paris_space(range(1, n + 1))
        return lambda: rank_table(space)
    if name == "phi":
        order = LinearOrder.from_perm(n, np.arange(n_pairs(n)))
        return lambda: phi(order)
    producer = {"random_ranking_table": random_ranking_table, "generic_crs": generic_crs}[name]
    return lambda: producer(n, 0)


@pytest.mark.parametrize("name", ["rank_table", "random_ranking_table", "generic_crs", "phi"])
def test_table_producers_check_the_cap_before_building(name, monkeypatch):
    # with the cap at 100, n=3000 once traced 172-215 MiB before the refusal; one
    # item past the real cap, a paris distance matrix alone would be 8.6 GB
    call = _producer_call(name, 3000)
    monkeypatch.setattr(ranking, "MAX_TABLE_ITEMS", 100)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="rank-table cap"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def white_swaps(order):
    """Entry pos - 1: whether swapping positions pos, pos + 1 is white, by the
    predicate ``is_isolated`` and the white BFS run."""
    return concordance._disjoint(order.perm[:-1], order.perm[1:], order.n)


class TestWhiteGraph:
    def test_disjoint_swap_is_white(self):
        order = LinearOrder(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
        assert white_swaps(order)[0]

    def test_shared_point_swap_is_black(self):
        order = LinearOrder(4, [(0, 1), (1, 2), (0, 2), (1, 3), (0, 3), (2, 3)])
        assert not white_swaps(order)[0]

    def test_whiteness_equals_phi_invariance(self):
        rng = np.random.default_rng(17)
        pairs = all_pairs(5)
        order = LinearOrder(5, [pairs[i] for i in rng.permutation(len(pairs))])
        base = phi(order).table

        def swapped(pos):  # the order with the pairs at positions pos and pos + 1 exchanged
            perm = order.perm.copy()
            perm[[pos - 1, pos]] = perm[[pos, pos - 1]]
            return LinearOrder.from_perm(5, perm)

        unchanged = [phi(swapped(pos)).table == base for pos in range(1, order.N)]
        assert white_swaps(order).tolist() == unchanged
        assert any(unchanged) and not all(unchanged)

    def test_powers_component_is_singleton(self):
        component = white_component(powers_of_two_order(6), cap=100)
        assert len(component) == 1 and component.complete

    def test_baranyai_component_n4(self):
        order = baranyai_order(4)
        component = white_component(order, cap=1000)
        assert component.complete
        assert len(component) >= 2 ** 3  # each of 3 matchings reorderable
        base = phi(order).table
        assert all(phi(o).table == base for o in component.orders)

    def test_cap_flags_partial(self):
        component = white_component(baranyai_order(6), cap=50)
        assert not component.complete
        assert len(component) >= 50

    def test_one_order_expands_within_its_block(self, monkeypatch):
        # one order of N pairs has up to N - 1 white swaps; all of them at once
        # took 12 MB here, and a (44849, 44850) array at baranyai n = 300
        monkeypatch.setattr(concordance, "_BLOCK_ENTRIES", 1 << 12)
        component, peak = peak_bytes(white_component, baranyai_order(60), cap=5)
        assert len(component) == 5 and not component.complete
        assert peak <= 1 << 20


class TestSpecialOrders:
    def test_powers_order_prefix(self):
        order = powers_of_two_order(6)
        assert order.pairs[:6] == ((0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3))

    def test_powers_isolated_various_n(self):
        for n in (4, 5, 6, 7):
            assert is_isolated(powers_of_two_order(n))

    def test_powers_blocks_keep_isolation(self):
        # any permutation inside the dashed blocks leaves the order isolated:
        # group j (pairs whose larger exponent is j) occupies positions
        # [j(j-1)/2, j(j+1)/2), and its block drops the group's first pair
        n = 5
        order = list(powers_of_two_order(n).pairs)
        blocks = [(j * (j - 1) // 2 + 1, j * (j + 1) // 2) for j in range(2, n)]
        assert [b - a for a, b in blocks] == [1, 2, 3]
        options = [list(itertools.permutations(order[a:b])) for a, b in blocks]
        count = 0
        for choice in itertools.product(*options):
            rebuilt = list(order)
            for (a, b), perm in zip(blocks, choice):
                rebuilt[a:b] = perm
            assert is_isolated(LinearOrder(n, rebuilt))
            count += 1
        assert count == 1 * 2 * 6

    def test_baranyai_matching_structure(self):
        pairs = baranyai_order(6).pairs
        matchings = [pairs[r * 3 : (r + 1) * 3] for r in range(5)]
        for matching in matchings:
            assert len(matching) == 3
            seen = [v for p in matching for v in p]
            assert sorted(seen) == list(range(6))

    def test_baranyai_all_swaps_white_n6(self):
        order = baranyai_order(6)
        assert white_swaps(order).all()

    def test_baranyai_within_matching_reorder_preserves_phi(self):
        order = baranyai_order(4)
        base = phi(order).table
        size = 2
        for r in range(3):
            pairs = list(order.pairs)
            a = r * size
            pairs[a : a + size] = reversed(pairs[a : a + size])
            assert phi(LinearOrder(4, pairs)).table == base

    def test_baranyai_odd_rejected(self):
        with pytest.raises(InputError):
            baranyai_order(5)

    def test_eulerian_small_circuit(self):
        order = eulerian_order(3)
        assert white_swaps(order).tolist() == [False, False]

    def test_eulerian_isolated_n5(self):
        order = eulerian_order(5)
        assert order.N == 10  # LinearOrder validated each pair used once
        assert is_isolated(order)

    def test_eulerian_even_rejected(self):
        with pytest.raises(InputError):
            eulerian_order(4)


class TestWhiteEdgeFraction:
    def test_exact_small_values(self):
        assert white_edge_fraction(4, samples=10)[0] == Fraction(1, 5)
        assert white_edge_fraction(3, samples=10)[0] == 0

    @pytest.mark.parametrize("samples", [0, -3])
    def test_refuses_fewer_than_one_sample(self, samples):
        # no sample divided by zero, and a negative count read as -0.0
        with pytest.raises(InputError, match="samples >= 1"):
            white_edge_fraction(5, samples=samples)

    def test_formula_identity(self):
        for n in range(4, 12):
            exact, _ = white_edge_fraction(n, samples=10)
            assert exact == 1 - Fraction(4, n + 1)

    def test_monte_carlo_agrees(self):
        exact, empirical = white_edge_fraction(10, samples=100_000, seed=0)
        assert exact == Fraction(7, 11)
        assert abs(empirical - 7 / 11) < 0.01

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # the positions and pairs of every sample took 3.4 MB here, and would
        # take 9 GB at --samples 3e8
        whole = white_edge_fraction(10, samples=100_000, seed=4)
        monkeypatch.setattr(concordance, "FRACTION_ROWS", 64)
        blocked, peak = peak_bytes(white_edge_fraction, 10, samples=100_000, seed=4)
        assert blocked == whole
        assert peak <= 1 << 19


class TestEnumerateSmall:
    def test_n3_census(self):
        census = enumerate_small(3)
        assert census.num_orders == 6
        assert census.num_systems == 6
        assert census.all_concordant
        assert census.components_equal_fibers
        assert sum(s * c for s, c in census.component_sizes.items()) == 6

    def test_n4_census(self):
        census = enumerate_small(4)
        assert census.num_orders == 720
        assert census.components_equal_fibers
        assert census.white_fraction_exact == Fraction(1, 5)
        assert census.white_edges * 5 == census.adjacent_slots
        assert census.bounds_ok

    def test_refuses_large_n(self):
        with pytest.raises(ResourceLimitError):
            enumerate_small(6)


class TestGenericCrs:
    def test_always_concordant(self):
        assert generic_crs(9, seed=123).is_concordant

    def test_seeds_give_distinct_systems(self):
        tables = {generic_crs(8, seed=s).table for s in range(100)}
        assert len(tables) == 100

    def test_deterministic(self):
        assert generic_crs(8, seed=5).table == generic_crs(8, seed=5).table


class TestConcordant5:
    def test_extension_maps_back_to_table(self):
        table, extension = concordant5_system()
        assert phi(extension).table == table
