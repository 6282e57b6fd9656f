"""Reference copies of the neighbour-list builders that the sorted-key CSRs replaced.

``_cofriend_csr`` (once a function of ``nndlab.descent``, whose cofriend
transpose is now ``descent._cofriends``, the sorted keys friend*n + owner),
``undirected_adjacency`` and ``_bfs_eccentricity`` (from
``nndlab.diagnostics``), and the bodies of
``TwoNrqState.adjacency`` and ``TwoNrqState.degrees`` (from
``nndlab.rangequery``, as functions of the point count m and the distinct
pairs that ``two_nrq_pairs`` reads off the input keys, so that they do not
read the CSR under test; a state's rows are now its rotated keys) are copied
verbatim as they stood before every CSR was read off sorted keys by
``ranking.key_rows``.  ``tests/test_csr_reference.py`` requires equal arrays
of equal dtypes, and ``tests/reference_descent.py`` transposes with
``_cofriend_csr``.

``edges`` is the body of the property ``TwoNrqState.edges``, which the tests
alone read: a state's distinct pairs, read off its CSR.
"""

import numpy as np

from nndlab.ranking import unique_keys


def _cofriend_csr(F):
    """The transpose of F as CSR: the cofriends of x are ``cof[indptr[x]:indptr[x + 1]]``."""
    n, k = F.shape
    src = np.repeat(np.arange(n, dtype=np.int32), k)
    dst = F.ravel()
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(dst, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr, src[order]


def undirected_adjacency(out_neighbors):
    """Deduplicated CSR adjacency of the underlying undirected graph."""
    F = np.asarray(out_neighbors)
    n, k = F.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = F.ravel().astype(np.int64)
    key = np.concatenate([src * n + dst, dst * n + src])
    key = unique_keys(key)
    a, b = key // n, key % n
    counts = np.bincount(a, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr, b


def _bfs_eccentricity(indptr, nbrs, source, n):
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        level += 1
        spans = [nbrs[indptr[v] : indptr[v + 1]] for v in frontier]
        nxt = unique_keys(np.concatenate(spans))
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    ecc = int(dist.max())
    if (dist < 0).any():
        return None, dist
    return ecc, dist


def two_nrq_pairs(m, keys):
    """The (E, 2) int64 array of the distinct pairs (lo, hi) of the edge keys
    lo*m + hi, in lexicographic order."""
    return np.column_stack(np.divmod(np.unique(np.asarray(keys, dtype=np.int64)), m))


def two_nrq_degrees(m, edges):
    deg = np.zeros(m, dtype=np.int64)
    if edges.size:
        np.add.at(deg, edges[:, 0], 1)
        np.add.at(deg, edges[:, 1], 1)
    return deg


def two_nrq_adjacency(m, edges):
    """CSR-style (indptr, neighbors) view of the undirected edge set, with int64
    indptr and int32 neighbors."""
    if not edges.size:
        return np.zeros(m + 1, dtype=np.int64), np.zeros(0, dtype=np.int32)
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.argsort(both[:, 0], kind="stable")]
    counts = np.bincount(both[:, 0], minlength=m)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr, both[:, 1].astype(np.int32)


def edges(state):
    """The (E, 2) int64 array of the state's distinct pairs in lexicographic
    order, read off its CSR, read-only."""
    indptr, nbrs = state.adjacency()
    rows = np.repeat(np.arange(state.space.n), np.diff(indptr))
    upper = nbrs > rows
    edges = np.column_stack([rows[upper], nbrs[upper]])
    edges.setflags(write=False)
    return edges
