"""The package's CSR builders against the neighbour-list builders they replaced.

Every CSR is read off sorted keys row*width + col, its indptr by
``ranking.key_rows``.  The cofriend transpose of descent, the undirected
adjacency of the diameter diagnostic and the 2NRQ state's adjacency, whose
rows are its rotated keys, are compared with their verbatim copies in
``reference_csr`` on arbitrary inputs, including empty edge sets and vertices
without neighbours: equal arrays with equal dtypes.  The 2NRQ copies read the
distinct pairs of the keys the state was built from.  ``key_rows`` itself is
compared with the prefix sums of the row counts, and ``key_dtype`` is checked
where width^2 leaves int32.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csr as ref
from nndlab.descent import _cofriends
from nndlab.diagnostics import _bfs_eccentricity, undirected_adjacency
from nndlab.rangequery import TwoNrqState, init_e0
from nndlab.ranking import key_dtype, key_rows
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
    """A state over a torus sample of m points and the list of edge keys it
    was built from, possibly empty or repeated."""
    m = draw(st.integers(2, 30))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3 * m)
    )
    keys = [min(a, b) * m + max(a, b) for a, b in pairs if a != b]
    pts = np.random.default_rng(m).uniform(-1.0, 1.0, size=(m, 2))
    return TwoNrqState(TorusSpace(pts), keys), keys


@settings(max_examples=200, deadline=None)
@given(out_matrices())
def test_cofriend_transpose_matches_reference(F):
    assert_same(_cofriends(F), ref._cofriend_csr(F))


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
def test_two_nrq_adjacency_matches_reference(case):
    state, keys = case
    m = state.space.n
    edges = ref.two_nrq_pairs(m, keys)
    assert_same(state.adjacency(), ref.two_nrq_adjacency(m, edges))
    assert_same((state.degrees(),), (ref.two_nrq_degrees(m, edges),))


def test_two_nrq_adjacency_matches_reference_at_scale():
    built = []
    build = TwoNrqState.__init__

    def spy(self, space, keys):
        built.append(np.array(keys))
        build(self, space, keys)

    with mock.patch.object(TwoNrqState, "__init__", spy):
        state = init_e0(torus_poisson(3000, 2, 5), 12, 6)
    m = state.space.n
    assert_same(state.adjacency(), ref.two_nrq_adjacency(m, ref.two_nrq_pairs(m, built[0])))


def test_two_nrq_adjacency_is_built_once():
    state = init_e0(torus_poisson(500, 2, 1), 12, 2)
    first = state.adjacency()
    second = state.adjacency()
    assert all(a is b for a, b in zip(first, second, strict=True))
    # the arrays are shared by every caller, so none may write to them
    assert not any(a.flags.writeable for a in first)


@st.composite
def sorted_keys(draw):
    """Ascending keys row*width + col below rows*width, of int32 or int64; rows
    may be empty, the last ones among them, and so may the keys."""
    rows = draw(st.integers(0, 40))
    width = draw(st.integers(1, 40))
    cells = draw(st.lists(st.integers(0, rows * width - 1), max_size=200)) if rows else []
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.sort(np.array(cells, dtype=dtype)), width, rows


@settings(max_examples=300, deadline=None)
@given(sorted_keys())
def test_key_rows_matches_prefix_row_counts(case):
    keys, width, rows = case
    indptr = key_rows(keys, width, rows)
    assert indptr.size == rows + 1 and indptr[0] == 0
    np.testing.assert_array_equal(indptr[1:], np.cumsum(np.bincount(keys // width, minlength=rows)))


def test_key_rows_keeps_trailing_empty_rows():
    np.testing.assert_array_equal(key_rows(np.array([0, 1, 5]), 3, 4), [0, 2, 3, 3, 3])
    np.testing.assert_array_equal(key_rows(np.zeros(0, dtype=np.int32), 3, 2), [0, 0, 0])


def test_key_dtype_is_int32_while_width_squared_fits():
    assert 46340 ** 2 <= np.iinfo(np.int32).max < 46341 ** 2
    assert key_dtype(46340) == np.int32
    assert key_dtype(46341) == np.int64
