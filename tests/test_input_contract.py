"""The library's input contract: item ids are integers in [0, n), counts and
seeds are integers, and reals are finite, or ``InputError``.

Every public callable that takes item ids is drawn with valid arguments and
one corruption of its ids: float ids (integral ones too), bool ids, -1, n,
an int64 id of 2^32 or more (an int32 cast would wrap it to a valid id),
a 1-D array where a 2-D one is due, and a column where a 1-D one is due.
Each must raise ``InputError`` before the oracle charges anything.
``test_every_export_is_drawn_or_exempt`` keeps the list whole: each
callable the package exports is drawn here, or is named in ``EXEMPT`` with
the reason it takes no ids.

Every count, seed and real of the exports is drawn the same way in
``NUMERIC``: a count with NaN, +-inf, one below its least value, a fraction,
``True`` and 2^64 (a count in ``OVERSIZED`` refuses 2^64 as a resource
limit); a seed the same way but for 2^64, which is a valid seed; a real with
NaN and +-inf.  Integral floats and a seed of 2^70 stay accepted.  ``test_every_numeric_export_is_drawn_or_named`` requires each
export in ``EXEMPT`` to be drawn there, or named in ``NOT_NUMERIC`` with the
reason it takes no number.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nndlab
from nndlab import (
    Crs,
    FriendState,
    KnnGraph,
    LinearOrder,
    RankingOracle,
    RankTable,
    TwoNrqParams,
    TwoNrqState,
    baranyai_order,
    batch_round,
    concordancy_check,
    default_budget,
    diameter_experiment,
    enumerate_small,
    eulerian_order,
    exact_knn,
    expansion_check,
    g_min_overlap,
    generic_crs,
    init_e0,
    linf_embed,
    pointwise_pass,
    powers_of_two_order,
    random_kout,
    range_query_round,
    run_2nrq,
    run_nnd,
    solve_next_radius,
    undirected_diameter,
    verify_sampling_property,
    white_component,
    white_edge_fraction,
)
from nndlab.concordance import n_pairs
from nndlab.errors import InputError, ResourceLimitError
from nndlab.rangequery import ball_scan
from nndlab.ranking import checked_count, checked_ids
from nndlab.spaces import (
    LcsSpace,
    PowersOfTwoSpace,
    TorusSpace,
    circle_sample,
    lcs_qk,
    lcs_sample,
    paris_space,
    random_ranking_table,
    torus_poisson,
)

N = 6
TABLE = random_ranking_table(N, seed=0)
ORACLE = RankingOracle(TABLE)
KOUT = random_kout(N, 2, 0)
CRS = generic_crs(N, 0)
POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, size=(N, 2))
POOLS = np.array([[1, 2, 3], [0, 2, 4]])

# name: (the export it draws, valid ids, their bound n, a call with those ids)
SITES = {
    "RankTable": ("RankTable", TABLE.order, N, RankTable),
    "KnnGraph": ("KnnGraph", exact_knn(TABLE, 2).neighbors, N, KnnGraph),
    "top_k-owner": ("RankingOracle", np.array(0), N, lambda x: ORACLE.top_k(x, POOLS[0], 2)),
    "top_k-pool": ("RankingOracle", POOLS[0], N, lambda pool: ORACLE.top_k(0, pool, 2)),
    "top_k-batch-owners": ("RankingOracle", np.array([0, 1]), N,
                           lambda x: ORACLE.top_k(x, POOLS, 2)),
    "top_k-batch-pools": ("RankingOracle", POOLS, N,
                          lambda pools: ORACLE.top_k(np.array([0, 1]), pools, 2)),
    "FriendState": ("FriendState", KOUT, N, FriendState),
    "batch_round": ("batch_round", KOUT, N, lambda F: batch_round(FriendState(F), ORACLE)),
    "pointwise_pass-friends": ("pointwise_pass", KOUT, N,
                               lambda F: pointwise_pass(FriendState(F), np.arange(N), ORACLE)),
    "pointwise_pass-schedule": ("pointwise_pass", np.arange(N)[::-1], N,
                                lambda s: pointwise_pass(FriendState(KOUT), s, ORACLE)),
    "TwoNrqState": ("TwoNrqState", np.array([1, 2 * N + 3, 4 * N + 5]), N * N,
                    lambda keys: TwoNrqState(TorusSpace(POINTS), keys)),
    "ball_scan": ("ball_scan", np.array([0, 3, 5]), N,
                  lambda centres: list(ball_scan(POINTS, centres, 0.3))),
    "LinearOrder": ("LinearOrder", np.array([(0, 1), (1, 2), (0, 2)]), 3,
                    lambda pairs: LinearOrder(3, pairs)),
    "LinearOrder.from_perm": ("LinearOrder", np.random.default_rng(0).permutation(n_pairs(N)),
                              n_pairs(N), lambda perm: LinearOrder.from_perm(N, perm)),
    "Crs.order_leq": ("Crs", np.array([[0, 1], [2, 3]]), N,
                      lambda pq: CRS.order_leq(pq[0], pq[1])),
    "undirected_diameter": ("undirected_diameter", KOUT, N, undirected_diameter),
    "expansion_check": ("expansion_check", KOUT, N,
                        lambda F: expansion_check(F, 0.5, 1.0, 3, 0)),
}

# exports that take no item ids, or take them only inside objects whose
# constructors are drawn above
EXEMPT = {
    "NndlabError": "an exception type",
    "InputError": "an exception type",
    "NotConcordantError": "an exception type; its cycle is evidence the package built",
    "ResourceLimitError": "an exception type",
    "ScheduleExhausted": "an exception type",
    "exact_knn": "takes a RankTable and a count K",
    "ranking_from_distance_matrix": "takes distances, not ids",
    "recall": "takes two KnnGraphs, checked when they were built",
    "NndResult": "a result record of run_nnd",
    "default_budget": "takes the counts n and K",
    "random_kout": "takes counts and a seed",
    "run_nnd": "takes an oracle, counts and a seed",
    "run_report": "takes an NndResult",
    "EmbeddingMatrix": "a result record of linf_embed; its column_pairs only label CSV columns",
    "SmallCensus": "a result record of enumerate_small",
    "WhiteComponent": "a result record of white_component",
    "baranyai_order": "takes a count n",
    "eulerian_order": "takes a count n",
    "powers_of_two_order": "takes a count n",
    "concordancy_check": "takes a RankTable",
    "concordant5_system": "takes no arguments",
    "enumerate_small": "takes a count n",
    "generic_crs": "takes a count n and a seed",
    "is_isolated": "takes a LinearOrder",
    "white_component": "takes a LinearOrder and a cap",
    "linf_embed": "takes a Crs and an optional LinearOrder",
    "verify_embedding": "takes a Crs and an EmbeddingMatrix",
    "phi": "takes a LinearOrder",
    "white_edge_fraction": "takes counts and a seed",
    "Schedule": "a result record of compute_schedule",
    "TwoNrqParams": "takes n, K, d and alpha, no ids",
    "compute_schedule": "takes TwoNrqParams",
    "g_min_overlap": "takes distances and a dimension",
    "init_e0": "takes a space, a count K and a seed",
    "range_query_round": "takes a TwoNrqState, radii and a seed",
    "run_2nrq": "takes counts, alpha and a seed",
    "solve_next_radius": "takes TwoNrqParams and a radius",
    "verify_sampling_property": "takes a TwoNrqState, a radius, a rate and counts",
    "DiameterReport": "a result record of diameter_experiment",
    "ExpansionReport": "a result record of expansion_check",
    "diameter_experiment": "takes counts, epsilon and a seed",
}


def _corruptions(ids):
    return ["float", "integral-float", "bool", "minus-one", "n", "past-int32"] + (
        {1: ["two-d"], 2: ["one-d"]}.get(ids.ndim, []))


def _corrupt(ids, n, corruption, at):
    """``ids`` with the corruption applied, at flat position ``at`` where it is one entry."""
    if corruption == "bool":
        return ids.astype(bool)
    if corruption == "one-d":
        return ids.ravel()
    if corruption == "two-d":
        return ids[:, None]
    dtype = {"float": np.float64, "integral-float": np.float64, "past-int32": np.int64}
    bad = ids.astype(dtype.get(corruption, ids.dtype))
    if corruption == "float":
        bad.flat[at] += 0.5
    elif corruption == "minus-one":
        bad.flat[at] = -1
    elif corruption == "n":
        bad.flat[at] = n
    elif corruption == "past-int32":
        bad.flat[at] += 2**32
    return bad


@pytest.mark.parametrize("site", sorted(SITES))
def test_valid_ids_are_accepted(site):
    _, ids, _, call = SITES[site]
    call(ids.copy())


@pytest.mark.parametrize("site", sorted(SITES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_ids_raise_input_error_before_any_charge(site, data):
    _, ids, n, call = SITES[site]
    corruption = data.draw(st.sampled_from(_corruptions(ids)), label="corruption")
    bad = _corrupt(ids, n, corruption, data.draw(st.integers(0, ids.size - 1), label="at"))
    before = ORACLE.comparisons
    with pytest.raises(InputError):
        call(bad)
    assert ORACLE.comparisons == before


@pytest.mark.parametrize(
    "call",
    [
        lambda: RankTable([[1.5], [0.2]]),
        lambda: KnnGraph(np.array([[2**32 + 1], [0]])),
        lambda: FriendState([[1.7], [0.2]]),
        lambda: FriendState([[1], [5], [0]]),
        lambda: pointwise_pass(FriendState([[1], [2], [0]]), [0.0, 1.0, 2.0], ORACLE),
        lambda: TwoNrqState(TorusSpace(POINTS), [1.5]),
        lambda: LinearOrder.from_perm(3, [0.5, 1.2, 2.9]),
        lambda: undirected_diameter(np.array([[1], [7], [0]])),
        lambda: undirected_diameter(np.array([1, 2, 0])),
        lambda: expansion_check(np.array([[1], [7], [0]]), 0.5, 1.0, 3, 0),
        lambda: TwoNrqState(TorusSpace(np.zeros((6, 2))), np.array([[1, 15], [29, 2]])),
        lambda: list(ball_scan(POINTS, np.array([[0], [3]]), 0.3)),
    ],
    ids=["RankTable-floats", "KnnGraph-past-int32", "FriendState-floats", "FriendState-n",
         "pointwise_pass-float-schedule", "TwoNrqState-float-key", "from_perm-floats",
         "undirected_diameter-n", "undirected_diameter-1-D", "expansion_check-n",
         "TwoNrqState-2-D", "ball_scan-2-D"],
)
def test_ids_once_cast_or_unchecked_are_refused(call):
    # each of these was truncated, wrapped, accepted or raised a raw numpy error
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_negative_ids_of_every_width_are_refused_below_any_bound(dtype):
    # -1 read as an unsigned id of its own width is 2^bits - 1, inside a bound of 2^bits
    bound = 2 ** (8 * np.dtype(dtype).itemsize)
    with pytest.raises(InputError):
        checked_ids(np.array([0, -1], dtype=dtype), bound, "refused")
    ids = np.array([0, np.iinfo(dtype).max], dtype=dtype)
    assert checked_ids(ids, bound, "") is ids  # neither cast nor copied


def test_every_export_is_drawn_or_exempt():
    exported = {
        name for name, value in vars(nndlab).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, types.ModuleType)
    }
    drawn = {export for export, *_ in SITES.values()}
    assert not drawn & set(EXEMPT)
    assert sorted(exported - drawn - set(EXEMPT)) == [], "exports neither drawn nor exempt"
    assert sorted(set(EXEMPT) - exported) == [], "exempt names the package does not export"
    assert all(EXEMPT.values())


# ---------------------------------------------------------------------------
# Counts, seeds and reals

TORUS = torus_poisson(200, 2, seed=0)
E0 = init_e0(TORUS, 12, seed=1)
PARAMS = TwoNrqParams(3000, 12, 2, 0.5)
SEED, REAL = "seed", "real"

# name: (the export it draws, a call taking keyword arguments, valid ones,
# and the kind of each: the least value of a count, SEED or REAL)
NUMERIC = {
    "exact_knn": ("exact_knn", lambda **a: exact_knn(TABLE, **a), {"K": 2}, {"K": 1}),
    "top_k": ("RankingOracle", lambda **a: ORACLE.top_k(0, POOLS[0], **a), {"k": 2}, {"k": 1}),
    "default_budget": ("default_budget", default_budget, {"n": 512, "K": 8}, {"n": 1, "K": 2}),
    "random_kout": ("random_kout", random_kout, {"n": N, "K": 2, "seed_or_rng": 0},
                    {"n": 2, "K": 1, "seed_or_rng": SEED}),
    "run_nnd": ("run_nnd", lambda **a: run_nnd(ORACLE, **a),
                {"n": N, "K": 2, "seed": 0, "max_rounds": 2},
                {"n": N, "K": 1, "seed": SEED, "max_rounds": 1}),
    "LinearOrder": ("LinearOrder", lambda **a: LinearOrder(pairs=[(0, 1), (1, 2), (0, 2)], **a),
                    {"n": 3}, {"n": 0}),
    "LinearOrder.from_perm": ("LinearOrder", lambda **a: LinearOrder.from_perm(perm=[2, 0, 1], **a),
                              {"n": 3}, {"n": 0}),
    "expansion_check": ("expansion_check", lambda **a: expansion_check(KOUT, **a),
                        {"expansion_alpha": 0.5, "epsilon": 1.0, "sample_sets": 3, "seed": 0},
                        {"expansion_alpha": REAL, "epsilon": REAL, "sample_sets": 1,
                         "seed": SEED}),
    "baranyai_order": ("baranyai_order", baranyai_order, {"n": 6}, {"n": 4}),
    "eulerian_order": ("eulerian_order", eulerian_order, {"n": 5}, {"n": 3}),
    "powers_of_two_order": ("powers_of_two_order", powers_of_two_order, {"n": 5}, {"n": 3}),
    "enumerate_small": ("enumerate_small", enumerate_small, {"n": 3}, {"n": 2}),
    "generic_crs": ("generic_crs", generic_crs, {"n": N, "seed": 0}, {"n": 2, "seed": SEED}),
    "white_component": ("white_component", lambda **a: white_component(baranyai_order(4), **a),
                        {"cap": 5}, {"cap": 1}),
    "linf_embed": ("linf_embed", lambda **a: linf_embed(CRS, **a), {"seed": 0}, {"seed": SEED}),
    "white_edge_fraction": ("white_edge_fraction", white_edge_fraction,
                            {"n": 5, "samples": 10, "seed": 0},
                            {"n": 3, "samples": 1, "seed": SEED}),
    "TwoNrqParams": ("TwoNrqParams", TwoNrqParams, {"n": 3000, "K": 12, "d": 2, "alpha": 0.5},
                     {"n": REAL, "K": 1, "d": 1, "alpha": REAL}),
    "g_min_overlap": ("g_min_overlap", g_min_overlap, {"s": 0.3, "r": 0.4, "d": 2},
                      {"s": REAL, "r": REAL, "d": 1}),
    "init_e0": ("init_e0", lambda **a: init_e0(TORUS, **a), {"K": 12, "seed": 0},
                {"K": REAL, "seed": SEED}),
    "range_query_round": ("range_query_round", lambda **a: range_query_round(E0, **a),
                          {"r_t": 0.5, "r_prev": 1.0, "seed": 0},
                          {"r_t": REAL, "r_prev": REAL, "seed": SEED}),
    "solve_next_radius": ("solve_next_radius", lambda **a: solve_next_radius(PARAMS, **a),
                          {"r_prev": 1.0}, {"r_prev": REAL}),
    "verify_sampling_property": ("verify_sampling_property",
                                 lambda **a: verify_sampling_property(E0, **a),
                                 {"r_t": 0.5, "theta_t": 0.1, "sample_size": 10, "seed": 0},
                                 {"r_t": REAL, "theta_t": REAL, "sample_size": 2, "seed": SEED}),
    "run_2nrq": ("run_2nrq", run_2nrq,
                 {"n_mean": 200, "K": 12, "d": 2, "alpha": 0.5, "seed": 0, "sample_size": 10},
                 {"n_mean": REAL, "K": 1, "d": 1, "alpha": REAL, "seed": SEED, "sample_size": 2}),
    "diameter_experiment": ("diameter_experiment", diameter_experiment,
                            {"n": 30, "K": 3, "trials": 2, "epsilon": 0.5, "seed": 0},
                            {"n": 4, "K": 3, "trials": 1, "epsilon": REAL, "seed": SEED}),
}

# counts refused above a cap as a resource limit, not as bad input
OVERSIZED = {("enumerate_small", "n"): ResourceLimitError}

# exports in EXEMPT that take no count, seed or real
NOT_NUMERIC = {
    "NndlabError": "an exception type",
    "InputError": "an exception type",
    "NotConcordantError": "an exception type",
    "ResourceLimitError": "an exception type",
    "ScheduleExhausted": "an exception type",
    "ranking_from_distance_matrix": "takes a distance matrix, checked entry by entry",
    "recall": "takes two KnnGraphs",
    "NndResult": "a result record of run_nnd",
    "run_report": "takes an NndResult",
    "EmbeddingMatrix": "a result record of linf_embed",
    "SmallCensus": "a result record of enumerate_small",
    "WhiteComponent": "a result record of white_component",
    "concordancy_check": "takes a RankTable",
    "concordant5_system": "takes no arguments",
    "is_isolated": "takes a LinearOrder",
    "verify_embedding": "takes a Crs and an EmbeddingMatrix",
    "phi": "takes a LinearOrder",
    "Schedule": "a result record of compute_schedule",
    "compute_schedule": "takes TwoNrqParams",
    "DiameterReport": "a result record of diameter_experiment",
    "ExpansionReport": "a result record of expansion_check",
}


def _bad_numbers(kind):
    """The values a number of this kind is drawn with, each to be refused."""
    if kind == REAL:
        return [math.nan, math.inf, -math.inf]
    low = 0 if kind == SEED else kind
    bad = [math.nan, math.inf, -math.inf, low - 1, low + 0.5, True]
    return bad if kind == SEED else bad + [2**64]


@pytest.mark.parametrize("site", sorted(NUMERIC))
def test_valid_numbers_integral_floats_and_large_seeds_are_accepted(site):
    _, call, valid, kinds = NUMERIC[site]
    call(**valid)
    call(**{name: 2**70 if kinds[name] == SEED else float(value) for name, value in valid.items()})


@pytest.mark.parametrize("site", sorted(NUMERIC))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_numbers_raise_input_error_before_any_charge(site, data):
    _, call, valid, kinds = NUMERIC[site]
    name = data.draw(st.sampled_from(sorted(kinds)), label="parameter")
    value = data.draw(st.sampled_from(_bad_numbers(kinds[name])), label="value")
    error = OVERSIZED.get((site, name), InputError) if value == 2**64 else InputError
    before = ORACLE.comparisons
    with pytest.raises(error):
        call(**{**valid, name: value})
    assert ORACLE.comparisons == before


def test_every_numeric_export_is_drawn_or_named():
    drawn = {export for export, *_ in NUMERIC.values()}
    assert not drawn & set(NOT_NUMERIC)
    assert sorted(set(EXEMPT) - drawn - set(NOT_NUMERIC)) == [], "exports neither drawn nor named"
    assert sorted(set(NOT_NUMERIC) - set(EXEMPT)) == [], "named exports that are not exempt"
    assert all(NOT_NUMERIC.values())


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_2nrq(3000, 12.7, 2, 0.5, 1),
        lambda: ORACLE.top_k(0, [1, 2, 3, 4], -1),
        lambda: TwoNrqParams(1e4, 12, 2.9, 0.5),
        lambda: run_nnd(ORACLE, N, 2, max_rounds=2.9),
        lambda: circle_sample(2.5, 0),
        lambda: PowersOfTwoSpace(5.9),
        lambda: random_kout(30, 3, -1),
        lambda: generic_crs(8, 2.5),
        lambda: expansion_check(random_kout(30, 3, 0), 0.5, 1.0, 0, 0),
        lambda: diameter_experiment(30, 3, 1.5, 0.5, 0),
        lambda: lcs_sample(4, 2.5, 0),
        lambda: lcs_qk(32, 100, 2.5, 0.25),
        lambda: torus_poisson(100, 2.5, 0),
        lambda: random_ranking_table(4.5, 0),
    ],
    ids=["run_2nrq-K", "top_k-k", "TwoNrqParams-d", "run_nnd-max_rounds", "circle_sample-n",
         "PowersOfTwoSpace-n", "random_kout-seed", "generic_crs-seed",
         "expansion_check-sample_sets", "diameter_experiment-trials", "lcs_sample-m",
         "lcs_qk-K", "torus_poisson-d", "random_ranking_table-n"],
)
def test_counts_once_cast_or_unchecked_are_refused(call):
    # each of these was truncated, rounded, run with a quiet result or raised a numpy error
    before = ORACLE.comparisons
    with pytest.raises(InputError):
        call()
    assert ORACLE.comparisons == before


@pytest.mark.parametrize(
    "call",
    [
        lambda: TwoNrqParams(10**400, 12, 2, 0.5),
        lambda: paris_space([math.nan, 1.0]),
        lambda: paris_space([1.0, math.inf]),
        lambda: LinearOrder(2**62, [(0, 1)]),
        lambda: paris_space([1, 10**400]),
        lambda: paris_space(["a", "b"]),
        lambda: paris_space([None, 1.0]),
        lambda: torus_poisson(1e300, 2, 0),
        lambda: run_2nrq(1e300, 12, 2, 0.5, 0),
        lambda: batch_round(FriendState(random_kout(10, 3, 0)),
                            RankingOracle(random_ranking_table(20, 0))),
        lambda: pointwise_pass(FriendState(random_kout(10, 3, 0)), np.arange(10),
                               RankingOracle(random_ranking_table(20, 0))),
        lambda: batch_round(FriendState(random_kout(10, 3, 0)),
                            RankingOracle(random_ranking_table(5, 0))),
        lambda: TwoNrqState(TorusSpace(np.zeros(5)), [1]),
        lambda: TorusSpace(np.zeros((5, 0))),
        lambda: TorusSpace(np.array([[0.5, math.nan], [0.0, 0.0]])),
        lambda: list(ball_scan(np.zeros(5), np.array([0]), 0.3)),
        lambda: Crs([[1, 2], [0, 2], [0, 1]]),
        lambda: concordancy_check([[1, 2], [0, 2], [0, 1]]),
        lambda: RankingOracle([[1, 2], [0, 2], [0, 1]]),
        lambda: LcsSpace(3, "acgt", ("acg", "acgt")),
    ],
    ids=["TwoNrqParams-n-past-float", "paris_space-nan-eta", "paris_space-inf-eta",
         "LinearOrder-n-past-int64-pair-index", "paris_space-eta-past-float",
         "paris_space-string-etas", "paris_space-none-eta", "torus_poisson-n-past-poisson",
         "run_2nrq-n-past-poisson", "batch_round-bigger-oracle",
         "pointwise_pass-bigger-oracle", "batch_round-smaller-oracle",
         "TorusSpace-1-D-points", "TorusSpace-no-column", "TorusSpace-nan-point",
         "ball_scan-1-D-points", "Crs-list-table", "concordancy_check-list-table",
         "RankingOracle-list-table", "LcsSpace-short-string"],
)
def test_values_outside_the_exports_fuzz_are_refused(call):
    # an OverflowError from float(n), a space that only its rank table refused, an
    # OverflowError from pair_index's int64 arithmetic, an OverflowError, a ValueError
    # and a TypeError from float(eta), numpy's "lam value too large" from a
    # Poisson mean past 9.2e18, two steps that ranked a state's points by the rows
    # of a bigger table, one that refused them as candidate ids of a smaller one,
    # torus spaces whose d was set apart from their points (a state over a 1-D
    # array, no coordinates, a NaN coordinate), a raw "not enough values to
    # unpack" from 1-D points, an AttributeError from a table given as a list, and
    # a string space refused only at its first distance
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: expansion_check(KOUT, math.nan, 1.0, 3, 0),
        lambda: expansion_check(KOUT, 0.5, math.nan, 3, 0),
        lambda: verify_sampling_property(E0, 0.5, math.nan, 10),
        lambda: verify_sampling_property(E0, 0.5, 2.5, 10),
    ],
    ids=["expansion_check-nan-alpha", "expansion_check-nan-epsilon",
         "verify_sampling_property-nan-theta", "verify_sampling_property-theta-above-1"],
)
def test_real_arguments_once_unchecked_are_refused(call):
    # a ValueError from int(), a report dumping NaN and Infinity, and a meaningless rate_z
    with pytest.raises(InputError):
        call()


def test_integral_floats_are_counts():
    assert circle_sample(1e3, 0).n == 1000
    assert baranyai_order(6.0) == baranyai_order(6)  # a TypeError from range() once
    result = run_nnd(ORACLE, float(N), 2.0, seed=float(2**70), max_rounds=2.0)
    assert [type(v) for v in (result.graph.n, result.graph.k, result.seed)] == [int, int, int]
    assert result.seed == 2**70
    assert checked_count(np.float32(3), 1, "") == 3


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -1, True, np.bool_(True), 2**63, "3",
                                   None, np.array(3)])
def test_checked_count_refuses_what_is_not_an_integer_in_range(value):
    with pytest.raises(InputError, match="^refused$"):
        checked_count(value, 0, "refused")
