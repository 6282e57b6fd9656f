"""Diameter and vertex-expansion measurements on random K-out digraphs.

The undirected version of a random K-out graph is the information substrate
of descent: knowledge moves one hop per round, so its diameter lower-bounds
the rounds any friend-exchange scheme needs.  These tools measure exact
diameters (bit-parallel all-source BFS up to a size cutover, a certified
interval beyond it) and spot-check the vertex-expansion inequality that
forces logarithmic diameter.
"""

import math
from dataclasses import dataclass

import numpy as np

from .descent import random_kout
from .errors import InputError
from .ranking import csr, csr_rows, unique_keys

EXACT_DIAMETER_LIMIT = 20000


def _out_matrix(graph):
    if hasattr(graph, "neighbors"):
        return np.asarray(graph.neighbors)
    if hasattr(graph, "friends"):
        return np.asarray(graph.friends)
    return np.asarray(graph)


def undirected_adjacency(out_neighbors):
    """Deduplicated CSR adjacency of the underlying undirected graph."""
    F = _out_matrix(out_neighbors)
    n, k = F.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = F.ravel().astype(np.int64)
    key = unique_keys(np.concatenate([src * n + dst, dst * n + src]))
    return csr(key // n, key % n, n)


def _full_row_mask(n, words):
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))
    rem = n - 64 * (words - 1)
    if rem < 64:
        mask[-1] = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
    return mask


def _bitset_diameter(indptr, nbrs, n):
    """Exact diameter by running BFS from every source at once, 64 per word."""
    words = (n + 63) // 64
    reach = np.zeros((n, words), dtype=np.uint64)
    idx = np.arange(n)
    reach[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
    full = _full_row_mask(n, words)
    steps = 0
    while True:
        grown = reach | np.bitwise_or.reduceat(reach[nbrs], indptr[:-1], axis=0)
        steps += 1
        if (grown == full).all():
            return steps
        if (grown == reach).all():
            return None
        reach = grown


def _bfs_eccentricity(indptr, nbrs, source, n):
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        level += 1
        nxt = unique_keys(nbrs[csr_rows(indptr[frontier], indptr[frontier + 1] - indptr[frontier])])
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    ecc = int(dist.max())
    if (dist < 0).any():
        return None, dist
    return ecc, dist


def undirected_diameter(graph, exact_limit=EXACT_DIAMETER_LIMIT, seed=0):
    """Diameter of the undirected view of a K-out graph.

    Exact (all-source BFS) up to ``exact_limit`` vertices; beyond it, a
    certified (lower, upper) interval from a two-sweep lower bound and
    eccentricity doubling.  Returns "disconnected" when the graph is not
    connected.
    """
    F = _out_matrix(graph)
    n = F.shape[0]
    if n < 2:
        raise InputError("need at least two vertices")
    indptr, nbrs = undirected_adjacency(F)
    if (np.diff(indptr) == 0).any():
        return "disconnected"
    if n <= exact_limit:
        result = _bitset_diameter(indptr, nbrs, n)
        return "disconnected" if result is None else result
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    ecc0, dist0 = _bfs_eccentricity(indptr, nbrs, start, n)
    if ecc0 is None:
        return "disconnected"
    far = int(np.argmax(dist0))
    ecc1, dist1 = _bfs_eccentricity(indptr, nbrs, far, n)
    far2 = int(np.argmax(dist1))
    ecc2, _ = _bfs_eccentricity(indptr, nbrs, far2, n)
    lower = max(ecc1, ecc2)
    upper = 2 * min(ecc0, ecc1, ecc2)
    return (lower, max(lower, upper) if upper >= lower else lower)


@dataclass
class DiameterReport:
    n: int
    K: int
    trials: int
    epsilon: float
    seed: int
    bound: float
    diameters: list
    disconnected: int

    @property
    def fraction_within(self):
        within = sum(1 for dm in self.diameters if dm <= self.bound)
        return within / self.trials

    def to_json_dict(self):
        return {
            "n": self.n,
            "K": self.K,
            "trials": self.trials,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "bound": self.bound,
            "diameters": list(self.diameters),
            "disconnected": self.disconnected,
            "fraction_within": self.fraction_within,
        }

    def histogram_csv(self):
        from collections import Counter

        counts = Counter(self.diameters)
        lines = ["diameter,count"]
        lines.extend(f"{dm},{c}" for dm, c in sorted(counts.items()))
        return "\n".join(lines) + "\n"


def diameter_experiment(n, K, trials, epsilon, seed):
    """Sample random K-out graphs, measure undirected diameters.

    The reference bound is (1 + epsilon) log_{K-1}(n); the report records
    how often measured diameters stay within it.  Requires K >= 3 (below
    that the bound is vacuous or undefined).
    """
    if K < 3:
        raise InputError("the diameter experiment requires K >= 3")
    if trials < 1 or n < K + 1:
        raise InputError("need trials >= 1 and n > K")
    bound = (1 + epsilon) * math.log(n) / math.log(K - 1)
    rng = np.random.default_rng(seed)
    diameters = []
    disconnected = 0
    for _ in range(trials):
        F = random_kout(n, K, rng)
        result = undirected_diameter(F)
        if result == "disconnected":
            disconnected += 1
        elif isinstance(result, tuple):
            diameters.append(result[1])
        else:
            diameters.append(result)
    return DiameterReport(
        n=n,
        K=K,
        trials=trials,
        epsilon=epsilon,
        seed=int(seed),
        bound=bound,
        diameters=diameters,
        disconnected=disconnected,
    )


def expansion_alpha_reference(K, epsilon):
    """The set-size coefficient the union-bound proof of expansion provides."""
    return (math.e ** (2 + epsilon) * (K + 1) ** (2 + 2 * epsilon)) ** (-1.0 / epsilon)


@dataclass
class ExpansionReport:
    n: int
    K: int
    expansion_alpha: float
    epsilon: float
    sample_sets: int
    seed: int
    max_size: int
    violations: int
    min_margin: float

    def to_json_dict(self):
        return {
            "n": self.n,
            "K": self.K,
            "expansion_alpha": self.expansion_alpha,
            "epsilon": self.epsilon,
            "sample_sets": self.sample_sets,
            "seed": self.seed,
            "max_size": self.max_size,
            "violations": self.violations,
            "min_margin": self.min_margin,
        }


def expansion_check(graph, expansion_alpha, epsilon, sample_sets, seed):
    """Count sampled sets X violating |N(X)| > (K - 1 - epsilon) |X|.

    N(X) collects out-neighbors of X outside X.  Only sets smaller than
    expansion_alpha * n / log(n) are eligible; the whole vertex set is never
    tested.  ``min_margin`` is the smallest observed |N(X)| / |X| minus the
    threshold, an indicator of slack.
    """
    F = _out_matrix(graph)
    n, K = F.shape
    max_size = int(expansion_alpha * n / math.log(n))
    if max_size < 1:
        raise InputError("expansion_alpha too small: no admissible set size")
    rng = np.random.default_rng(seed)
    threshold = K - 1 - epsilon
    violations = 0
    min_margin = math.inf
    for _ in range(sample_sets):
        size = int(rng.integers(1, max_size + 1))
        X = rng.choice(n, size=size, replace=False)
        neighborhood = np.setdiff1d(F[X].ravel(), X)
        ratio = neighborhood.size / size
        min_margin = min(min_margin, ratio - threshold)
        if neighborhood.size <= threshold * size:
            violations += 1
    return ExpansionReport(
        n=n,
        K=K,
        expansion_alpha=expansion_alpha,
        epsilon=epsilon,
        sample_sets=sample_sets,
        seed=int(seed),
        max_size=max_size,
        violations=violations,
        min_margin=float(min_margin),
    )
