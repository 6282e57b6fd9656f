"""``ranking.csr`` against the three neighbour-list builders it replaced.

The cofriend transpose of descent, the undirected adjacency of the diameter
diagnostic and the 2NRQ state's adjacency are compared with their verbatim
copies in ``reference_csr`` on arbitrary inputs, including empty edge sets
and vertices without neighbours: equal arrays with equal dtypes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csr as ref
from nndlab.diagnostics import _bfs_eccentricity, undirected_adjacency
from nndlab.rangequery import TwoNrqState, init_e0
from nndlab.ranking import csr
from nndlab.spaces import TorusSpace, torus_poisson


def assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@st.composite
def out_matrices(draw):
    """An (n, k) int32 matrix over [0, n); k = 0 gives no arcs at all."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(0, 5))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    return np.array(cells, dtype=np.int32).reshape(n, k)


@st.composite
def edge_sets(draw):
    """A torus sample of m points and a list of edges, possibly empty or repeated."""
    m = draw(st.integers(2, 30))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3 * m)
    )
    edges = np.array([(a, b) for a, b in pairs if a != b], dtype=np.int64).reshape(-1, 2)
    pts = np.random.default_rng(m).uniform(-1.0, 1.0, size=(m, 2))
    return TwoNrqState(TorusSpace(2, pts, float(m), 0), edges)


@settings(max_examples=200, deadline=None)
@given(out_matrices())
def test_cofriend_transpose_matches_reference(F):
    n, k = F.shape
    got = csr(F.ravel(), np.repeat(np.arange(n, dtype=np.int32), k), n)
    assert_same(got, ref._cofriend_csr(F))


@settings(max_examples=200, deadline=None)
@given(out_matrices())
def test_undirected_adjacency_matches_reference(F):
    indptr, nbrs = undirected_adjacency(F)
    assert_same((indptr, nbrs), ref.undirected_adjacency(F))
    n = F.shape[0]
    for source in range(min(n, 4)):
        ecc, dist = _bfs_eccentricity(indptr, nbrs, source, n)
        want_ecc, want_dist = ref._bfs_eccentricity(indptr, nbrs, source, n)
        assert ecc == want_ecc
        np.testing.assert_array_equal(dist, want_dist)


@settings(max_examples=200, deadline=None)
@given(edge_sets())
def test_two_nrq_adjacency_matches_reference(state):
    assert_same(state.adjacency(), ref.two_nrq_adjacency(state))
    assert_same((state.degrees(),), (ref.two_nrq_degrees(state),))


def test_two_nrq_adjacency_matches_reference_at_scale():
    state = init_e0(torus_poisson(3000, 2, 5), 12, 3000.0, 6)
    assert_same(state.adjacency(), ref.two_nrq_adjacency(state))


def test_two_nrq_adjacency_is_built_once():
    state = init_e0(torus_poisson(500, 2, 1), 12, 500.0, 2)
    first = state.adjacency()
    second = state.adjacency()
    assert all(a is b for a, b in zip(first, second, strict=True))
    # the arrays are shared by every caller, so none may write to them
    assert not any(a.flags.writeable for a in first)
