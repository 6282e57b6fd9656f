"""The library's input contract: item ids are integers in [0, n), or ``InputError``.

Every public callable that takes item ids is drawn with valid arguments and
one corruption of its ids: float ids (integral ones too), bool ids, -1, n,
an int64 id of 2^32 or more (an int32 cast would wrap it to a valid id),
a 1-D array where a 2-D one is due, and a column where a 1-D one is due.
Each must raise ``InputError`` before the oracle charges anything.
``test_every_export_is_drawn_or_exempt`` keeps the list whole: each
callable the package exports is drawn here, or is named in ``EXEMPT`` with
the reason it takes no ids.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nndlab
from nndlab import (
    FriendState,
    KnnGraph,
    LinearOrder,
    RankingOracle,
    RankTable,
    TwoNrqState,
    batch_round,
    exact_knn,
    expansion_check,
    generic_crs,
    pointwise_pass,
    random_kout,
    undirected_diameter,
)
from nndlab.concordance import n_pairs
from nndlab.errors import InputError
from nndlab.rangequery import ball_scan
from nndlab.ranking import checked_ids
from nndlab.spaces import TorusSpace, random_ranking_table

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
                    lambda keys: TwoNrqState(TorusSpace(2, POINTS), keys)),
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
    "init_random_kout": "takes counts and a seed",
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
    "TwoNrqParams": "a parameter record of derive_params",
    "compute_schedule": "takes TwoNrqParams",
    "derive_params": "takes n, K, d and alpha, no ids",
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
        lambda: TwoNrqState(TorusSpace(2, POINTS), [1.5]),
        lambda: LinearOrder.from_perm(3, [0.5, 1.2, 2.9]),
        lambda: undirected_diameter(np.array([[1], [7], [0]])),
        lambda: undirected_diameter(np.array([1, 2, 0])),
        lambda: expansion_check(np.array([[1], [7], [0]]), 0.5, 1.0, 3, 0),
        lambda: TwoNrqState(TorusSpace(2, np.zeros((6, 2))), np.array([[1, 15], [29, 2]])),
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
