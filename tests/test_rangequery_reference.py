"""The cell-grid ball scan against brute force and against the quadratic code it replaced.

``ball_scan`` is checked against an all-points scan on arbitrary point sets,
including points on cell boundaries and radii r = 2/g.  ``verify_sampling_property``
and ``ideal_state`` are checked against their verbatim pre-grid copies in
``reference_rangequery`` for d in {1, 2, 3} and radii on both sides of the
whole-row switch (r > 0.4 scans every point, r <= 0.4 uses the grid).
"""

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
from nndlab.spaces import TorusSpace, torus_poisson, wrapped_deltas

RADII = (1.0, 0.6, 0.2, 0.07)


def _brute_balls(points, centres, r):
    for c in centres:
        dist = wrapped_deltas(points[c] - points).max(axis=1)
        members = np.flatnonzero(dist <= r)
        yield members, dist[members]


def _scanned_balls(points, centres, r):
    for start, indptr, idx, dist in ball_scan(points, centres, r):
        for k in range(indptr.size - 1):
            yield idx[indptr[k] : indptr[k + 1]], dist[indptr[k] : indptr[k + 1]]


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
    for (idx, dist), (want_idx, want_dist) in zip(scanned, brute):
        np.testing.assert_array_equal(idx, want_idx)
        assert dist.tobytes() == want_dist.tobytes()


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
@pytest.mark.parametrize("cap, entries", [(3, 20_000), (200, 1 << 20)])
def test_verify_matches_reference(d, r, cap, entries):
    # cap 3 subsamples nearly every ball; cap 200 keeps the small-radius balls whole
    state, theta = _mixed_state(d, r, seed=40 + d)
    want = ref.verify_sampling_property(state, r, theta, 150, seed=7, ks_cap_per_vertex=cap)
    with mock.patch.object(rangequery, "_SCAN_ENTRIES", entries):
        got = verify_sampling_property(state, r, theta, 150, seed=7, ks_cap_per_vertex=cap)
    assert repr(got) == repr(want)


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
