"""The cell-grid ball scan and the range-query round against brute force and reference copies.

``ball_scan`` is checked against an all-points scan on arbitrary point sets,
including points on cell boundaries and radii r = 2/g, and its runs against
the verbatim copy in ``reference_rangequery`` that also returned distances.
``verify_sampling_property`` and ``ideal_state`` are checked against their
verbatim pre-grid copies for d in {1, 2, 3} and radii on every side of the
scan's switches: r >= 1 makes every ball the whole torus, which verification
does not scan; 0.4 < r < 1 scans every point as one row (g <= 3); r <= 0.4
uses the grid.  Small Hypothesis states also put the KS draws at a ball's
first and last members.
``range_query_round`` is checked against its verbatim copy that gathered the
proposals as an array of vertex pairs: equal edges, work counts, acceptance
counts and "exceeds 1" errors.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rangequery as ref
from nndlab import rangequery
from nndlab.errors import InputError, NndlabError
from nndlab.rangequery import (
    TwoNrqState,
    ball_scan,
    ideal_state,
    init_e0,
    range_query_round,
    verify_sampling_property,
)
from nndlab.spaces import TorusSpace, torus_poisson, wrapped_deltas, wrapped_distance

RADII = (1.5, 1.0, 0.6, 0.2, 0.07)


def _brute_balls(points, centres, r):
    for c in centres:
        dist = wrapped_deltas(points[c] - points).max(axis=1)
        members = np.flatnonzero(dist <= r)
        yield members, dist[members]


def _scanned_balls(points, centres, r):
    """Each ball's decoded (ball, vertex) keys; the keys of a run must ascend."""
    for start, indptr, keys in ball_scan(points, centres, r):
        assert indptr[0] == 0 and indptr[-1] == keys.size
        assert (np.diff(keys) > 0).all()
        owner, vertex = np.divmod(keys, len(points))
        for k in range(indptr.size - 1):
            yield owner[indptr[k] : indptr[k + 1]], vertex[indptr[k] : indptr[k + 1]]


@st.composite
def _ball_cases(draw):
    d = draw(st.integers(1, 3))
    cells = draw(st.integers(2, 12))
    on_grid = st.sampled_from([2.0 / cells, 2.0 / cells - 1e-9, 2.0 / cells + 1e-9])
    r = draw(on_grid | st.floats(0.01, 1.0))
    g = int(2.0 / r) - 1
    # cell walls of the scan's own grid, and points exactly r from a wall
    boundary = [-1.0 + 2.0 * k / max(g, 1) for k in range(max(g, 1))] + [-1.0 + r, 1.0 - r]
    coord = st.sampled_from(boundary) | st.floats(-1.0, 1.0, exclude_max=True)
    m = draw(st.integers(1, 40))
    point = st.lists(coord, min_size=d, max_size=d)
    points = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    centres = np.array(draw(st.permutations(range(m))))[: draw(st.integers(1, m))]
    entries = draw(st.sampled_from([1, 7, 1 << 20]))
    return points, centres, r, entries


@settings(max_examples=200, deadline=None)
@given(_ball_cases())
def test_ball_scan_matches_brute_force(case):
    points, centres, r, entries = case
    with mock.patch.object(rangequery, "_SCAN_ENTRIES", entries):
        scanned = list(_scanned_balls(points, centres, r))
    brute = list(_brute_balls(points, centres, r))
    assert len(scanned) == len(brute)
    for c, (owner, members), (want_members, want_dist) in zip(centres, scanned, brute):
        np.testing.assert_array_equal(members, want_members)
        assert (owner == owner[0]).all()
        # the distances verify computes for the members it picks
        dist = wrapped_distance(points[c], points[members])
        assert dist.tobytes() == want_dist.tobytes()


@settings(max_examples=100, deadline=None)
@given(_ball_cases())
def test_ball_scan_runs_match_reference(case):
    points, centres, r, entries = case
    m = len(points)
    with mock.patch.object(rangequery, "_SCAN_ENTRIES", entries), \
            mock.patch.object(ref, "_SCAN_ENTRIES", entries):
        runs = list(ball_scan(points, centres, r))
        want = list(ref.ball_scan(points, centres, r))
    assert len(runs) == len(want)
    for (start, indptr, keys), (want_start, want_ptr, idx, _) in zip(runs, want):
        assert start == want_start
        np.testing.assert_array_equal(indptr, want_ptr)
        owner = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        np.testing.assert_array_equal(keys, owner * m + idx)


def _mixed_state(d, r, seed):
    """In-range neighbours from an ideal sample plus out-of-range random edges.

    About 60 points per ball, at least 1000 points and at most 12000.
    """
    space = torus_poisson(min(12000, max(1000, 60 / r ** d)), d, seed=seed)
    m = space.n
    theta = min(0.5, 12.0 / (m * r ** d))
    near = ideal_state(space, r, theta, t=2, seed=seed + 1)
    far = init_e0(space, 2, float(m), seed=seed + 2)
    return TwoNrqState(space, np.concatenate([near.edges, far.edges]), t=2), theta


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("cap, entries", [(3, 20_000), (200, 1 << 20), (3, 1 << 16), (200, 1 << 16)])
def test_verify_matches_reference(d, r, cap, entries):
    # cap 3 subsamples nearly every ball; cap 200 keeps the small-radius balls whole
    state, theta = _mixed_state(d, r, seed=40 + d)
    want = ref.verify_sampling_property(state, r, theta, 150, seed=7, ks_cap_per_vertex=cap)
    with mock.patch.object(rangequery, "_SCAN_ENTRIES", entries):
        got = verify_sampling_property(state, r, theta, 150, seed=7, ks_cap_per_vertex=cap)
    assert repr(got) == repr(want)


def _reference_report(*args, **kwargs):
    """The reference's report; its empty-slice statistics warn, so they are muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ref.verify_sampling_property(*args, **kwargs)


@st.composite
def _verify_cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = draw(st.integers(4, 12))
    r_t = draw(st.sampled_from([1.0, 1.5, 2.0 / g]) | st.floats(0.01, 1.0))
    # a spread below 1 packs the points; some sit on the walls of a scan grid
    points = rng.uniform(-1.0, 1.0, size=(m, d)) * draw(st.sampled_from([1.0, 0.3, 0.05]))
    on_wall = rng.random((m, d)) < draw(st.sampled_from([0.0, 0.3]))
    points[on_wall] = -1.0 + 2.0 * rng.integers(0, g, size=on_wall.sum()) / g
    points.setflags(write=False)
    space = TorusSpace(d, points, float(m), 0)
    kind = draw(st.sampled_from(["arbitrary", "empty", "in-range plus far"]))
    if kind == "arbitrary":
        edges = rng.integers(0, m, size=(draw(st.integers(1, 6 * m)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
    elif kind == "empty":
        edges = np.zeros((0, 2), dtype=np.int64)
    else:
        near = ideal_state(space, r_t, draw(st.floats(0.1, 0.9)), t=0, seed=rng.integers(99))
        far = rng.integers(0, m, size=(draw(st.integers(0, 3)), 2))
        edges = np.concatenate([near.edges, far[far[:, 0] != far[:, 1]]])
    state = TwoNrqState(space, edges, t=draw(st.integers(0, 5)))
    kwargs = dict(sample_size=draw(st.integers(2, m + 3)), seed=draw(st.integers(0, 2 ** 32 - 1)),
                  ks_cap_per_vertex=draw(st.integers(1, 5)))
    return state, r_t, kwargs, draw(st.sampled_from([1, 7, 1 << 16]))


@settings(max_examples=300, deadline=None)
@given(_verify_cases())
def test_verify_matches_reference_on_small_states(case):
    # small caps and balls put draws at each ball's first and last members
    state, r_t, kwargs, entries = case
    want = _reference_report(state, r_t, 0.3, **kwargs)
    with mock.patch.object(rangequery, "_SCAN_ENTRIES", entries):
        got = verify_sampling_property(state, r_t, 0.3, **kwargs)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("r", [1.0, 1.5])
def test_verify_does_not_scan_whole_torus_balls(r):
    def no_scan(*args):
        raise AssertionError("ball_scan called for a whole-torus ball")

    state, theta = _mixed_state(2, r, seed=42)
    want = ref.verify_sampling_property(state, r, theta, 150, seed=7, ks_cap_per_vertex=3)
    with mock.patch.object(rangequery, "ball_scan", no_scan):
        got = verify_sampling_property(state, r, theta, 150, seed=7, ks_cap_per_vertex=3)
    assert repr(got) == repr(want)


def test_verify_without_usable_rates_does_not_warn():
    # no sampled ball holds another vertex: the rate statistics are undefined
    state = init_e0(torus_poisson(8, 2, 0), 2, 3.0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify_sampling_property(state, 0.07, 0.1, 7)
    assert np.isnan(got.rate_mean) and np.isnan(got.rate_se) and got.rate_z == np.inf
    assert got.to_json_dict()["rate_z"] is None
    assert repr(got) == repr(_reference_report(state, 0.07, 0.1, 7))


@pytest.mark.parametrize("d, m", [(1, 800), (2, 1500), (3, 3000)])
@pytest.mark.parametrize("r", RADII)
def test_ideal_state_matches_reference(d, m, r):
    space = torus_poisson(m, d, seed=60 + d)
    want = ref.ideal_state(space, r, 0.3, t=4, seed=9)
    with mock.patch.object(rangequery, "_SCAN_ENTRIES", 5000):
        got = ideal_state(space, r, 0.3, t=4, seed=9)
    assert got.t == want.t == 4
    assert got.edges.dtype == np.int64
    np.testing.assert_array_equal(got.edges, want.edges)


def test_edges_are_lexicographic_distinct_pairs():
    space = torus_poisson(300, 2, seed=3)
    rng = np.random.default_rng(4)
    edges = rng.integers(0, space.n, size=(2000, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    state = TwoNrqState(space, np.concatenate([edges, edges[::-1, ::-1]]))
    np.testing.assert_array_equal(state.edges, np.unique(np.sort(edges, axis=1), axis=0))
    assert TwoNrqState(space, np.zeros((0, 2))).edges.shape == (0, 2)


@pytest.mark.parametrize("size, r, message", [(0, 1.0, "at least 2"), (1, 1.0, "at least 2"),
                                              (500, 0.0, "r_t > 0")])
def test_verify_rejects_degenerate_arguments(size, r, message):
    # one sampled vertex has no standard error; a radius of 0 has empty balls
    space = torus_poisson(500, 2, seed=5)
    state = init_e0(space, 12, float(space.n), seed=6)
    with pytest.raises(InputError, match=message):
        verify_sampling_property(state, r, 12.0 / space.n, size, seed=0)


def test_acceptance_above_one_is_a_package_error():
    pts = np.array([[0.0, 0.0], [0.15, 0.0], [-0.15, 0.0]])
    pts.setflags(write=False)
    space = TorusSpace(2, pts, 3.0, 0)
    state = TwoNrqState(space, np.array([[0, 1], [0, 2]]), t=0)
    # the overlap volume never exceeds 2^d, so g = 2^d + 1 forces a rate above 1
    with pytest.raises(NndlabError, match="exceeds 1"):
        range_query_round(state, 0.5, 1.0, 2 ** 2 + 1, seed=0)
    assert range_query_round(state, 0.5, 1.0, 0.5, seed=0).distance_evals == 1


@st.composite
def _round_cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a spread below 1 packs the points so that most proposals are in range
    points = rng.uniform(-1.0, 1.0, size=(m, d)) * draw(st.sampled_from([1.0, 0.3, 0.05]))
    on_grid = rng.random((m, d)) < draw(st.sampled_from([0.0, 0.3]))
    points[on_grid] = rng.choice([-1.0, -0.5, 0.0, 0.5], size=on_grid.sum())
    points.setflags(write=False)
    space = TorusSpace(d, points, float(m), 0)
    kind = draw(st.sampled_from(["arbitrary"] * 3 + ["empty", "matching"]))
    if kind == "arbitrary":
        edges = rng.integers(0, m, size=(draw(st.integers(1, 6 * m)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
    elif kind == "empty":
        edges = np.zeros((0, 2), dtype=np.int64)
    else:  # every degree at most 1: nothing is proposed
        edges = rng.permutation(m)[: 2 * draw(st.integers(0, m // 2))].reshape(-1, 2)
    r_prev = draw(st.just(1.0) | st.floats(0.02, 1.0))
    r_t = r_prev * draw(st.floats(0.05, 0.999))
    # the schedule's own g, a multiple of it, or anything up to past 2^d; a g
    # above some in-range overlap volume makes a rate exceed 1
    g_min = rangequery.g_min_overlap(r_t, r_prev, d)
    g = draw(st.just(g_min) | st.floats(0.0, 4.0).map(g_min.__mul__)
             | st.floats(0.0, 2.0 ** d + 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return TwoNrqState(space, edges, t=draw(st.integers(0, 5))), r_t, r_prev, g, seed


def _outcome(fn, *args):
    try:
        return fn(*args, return_accept_counts=True)
    except InputError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_round_cases())
def test_range_query_round_matches_reference(case):
    state, r_t, r_prev, g, seed = case
    got = _outcome(range_query_round, state, r_t, r_prev, g, seed)
    want = _outcome(ref.range_query_round, state, r_t, r_prev, g, seed)
    if isinstance(want, str):
        assert got == want
        return
    (new, counts), (want_new, want_counts) = got, want
    assert new.edges.tobytes() == want_new.edges.tobytes()
    assert new.distance_evals == want_new.distance_evals
    assert new.t == want_new.t == state.t + 1
    assert counts == want_counts
    plain = range_query_round(state, r_t, r_prev, g, seed)
    assert plain.edges.tobytes() == new.edges.tobytes()


@pytest.mark.parametrize("d, n, k", [(1, 3000, 5), (2, 20000, 12), (3, 8000, 30)])
def test_range_query_round_matches_reference_at_scale(d, n, k):
    # rounds 1-3 of a real run, each fed the reference's own previous state
    space = torus_poisson(n, d, seed=d)
    params = rangequery.derive_params(float(space.n), k, d, 0.5)
    radii = rangequery.compute_schedule(params).radii
    state = init_e0(space, k, float(space.n), seed=d + 1)
    for t in range(1, min(4, len(radii))):
        g = rangequery.g_min_overlap(radii[t], radii[t - 1], d)
        got = range_query_round(state, radii[t], radii[t - 1], g, seed=t)
        state = ref.range_query_round(state, radii[t], radii[t - 1], g, seed=t)
        assert got.edges.tobytes() == state.edges.tobytes()
        assert got.distance_evals == state.distance_evals
