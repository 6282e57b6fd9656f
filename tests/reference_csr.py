"""Reference copies of the neighbour-list builders that ``ranking.csr`` replaced.

``_cofriend_csr`` (from ``nndlab.descent``), ``undirected_adjacency`` and
``_bfs_eccentricity`` (from ``nndlab.diagnostics``), and the bodies of
``TwoNrqState.adjacency`` and ``TwoNrqState.degrees`` (from
``nndlab.rangequery``, as functions of the state) are copied verbatim as they
stood before every CSR layout went through ``ranking.csr``.
``tests/test_csr_reference.py`` requires equal arrays of equal dtypes.
"""

import numpy as np

from nndlab.diagnostics import _out_matrix
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
    F = _out_matrix(out_neighbors)
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


def two_nrq_degrees(self):
    deg = np.zeros(self.space.n, dtype=np.int64)
    if self.edges.size:
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
    return deg


def two_nrq_adjacency(self):
    """CSR-style (indptr, neighbors) view of the undirected edge set."""
    m = self.space.n
    if not self.edges.size:
        return np.zeros(m + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    both = np.concatenate([self.edges, self.edges[:, ::-1]])
    both = both[np.argsort(both[:, 0], kind="stable")]
    counts = np.bincount(both[:, 0], minlength=m)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr, both[:, 1]
