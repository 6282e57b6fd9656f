"""Diameter and vertex-expansion measurements on random K-out digraphs.

The undirected version of a random K-out graph is the information substrate
of descent.  A batch round at most doubles the start-graph hop span of every
friend arc, so batch descent needs at least ceil(log2 h) rounds, where h, at
most the diameter, is the largest hop distance from a point to one of its
exact neighbours; pointwise passes are not covered.  These tools measure exact
diameters (bit-parallel all-source BFS up to a size cutover, a certified
interval beyond it) and spot-check the vertex-expansion inequality that
forces logarithmic diameter.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .descent import random_kout
from .errors import InputError
from .ranking import BAD_SEED, checked_count, checked_ids, csr_rows, key_rows, seeded, unique_keys

EXACT_DIAMETER_LIMIT = 20000


def _checked_kout(F):
    """F as an (n, K) array of integer ids in [0, n), else ``InputError``."""
    F = np.asarray(F)
    if F.ndim != 2:
        raise InputError("F must be a 2-D (n, K) array")
    return checked_ids(F, len(F), f"vertex ids must be integers in [0, {len(F)})")


def undirected_adjacency(F):
    """Deduplicated CSR adjacency of the undirected view of the (n, K) out-neighbour array F."""
    F = _checked_kout(F)
    n, k = F.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = F.ravel().astype(np.int64)
    key = unique_keys(np.concatenate([src * n + dst, dst * n + src]))
    return key_rows(key, n, n), key % n


def _full_row_mask(n, words):
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))
    rem = n - 64 * (words - 1)
    if rem < 64:
        mask[-1] = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
    return mask


def _bitset_diameter(indptr, nbrs, n):
    """Exact diameter by running BFS from every source at once, 64 per word.

    Each level ORs each row's neighbour rows into a second reach array, 64 rows
    at a time, so the gathered rows are one block's arcs, not every arc; the
    two arrays then swap.  Every row needs a neighbour: ``reduceat`` gives an
    empty segment the next row, not zero.
    """
    words = (n + 63) // 64
    reach = np.zeros((n, words), dtype=np.uint64)
    idx = np.arange(n)
    reach[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
    grown = np.empty_like(reach)
    full = _full_row_mask(n, words)
    steps = 0
    while True:
        for lo in range(0, n, 64):
            rows = indptr[lo : lo + 65]
            np.bitwise_or.reduceat(reach[nbrs[rows[0] : rows[-1]]], rows[:-1] - rows[0], axis=0,
                                   out=grown[lo : lo + 64])
        grown |= reach
        steps += 1
        if (grown == full).all():
            return steps
        if (grown == reach).all():
            return None
        reach, grown = grown, reach


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


def undirected_diameter(F):
    """Diameter of the undirected view of the (n, K) out-neighbour array F of ids in [0, n).

    Exact (all-source BFS) up to ``EXACT_DIAMETER_LIMIT`` vertices; beyond it,
    a certified (lower, upper) interval from a two-sweep lower bound and
    eccentricity doubling, the sweeps starting at a vertex drawn with seed 0.
    Returns "disconnected" when the graph is not connected.
    """
    indptr, nbrs = undirected_adjacency(F)
    n = indptr.size - 1
    if n < 2:
        raise InputError("need at least two vertices")
    if (np.diff(indptr) == 0).any():
        return "disconnected"
    if n <= EXACT_DIAMETER_LIMIT:
        result = _bitset_diameter(indptr, nbrs, n)
        return "disconnected" if result is None else result
    start = int(seeded(0).integers(n))
    ecc0, dist0 = _bfs_eccentricity(indptr, nbrs, start, n)
    if ecc0 is None:
        return "disconnected"
    far = int(np.argmax(dist0))
    ecc1, dist1 = _bfs_eccentricity(indptr, nbrs, far, n)
    far2 = int(np.argmax(dist1))
    ecc2, _ = _bfs_eccentricity(indptr, nbrs, far2, n)
    lower = max(ecc1, ecc2)
    upper = 2 * min(ecc0, ecc1, ecc2)
    return (lower, max(lower, upper))


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
        return {**asdict(self), "fraction_within": self.fraction_within}

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
    K = checked_count(K, 3, "the diameter experiment requires K >= 3")
    bad = "need trials >= 1 and n > K"
    trials, n = checked_count(trials, 1, bad), checked_count(n, K + 1, bad)
    bound = (1 + epsilon) * math.log(n) / math.log(K - 1)
    if not math.isfinite(bound):
        raise InputError("epsilon out of range: the bound (1 + epsilon) log_{K-1}(n) is not finite")
    rng = seeded(seed)
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
        seed=checked_count(seed, 0, BAD_SEED, high=math.inf),
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
        return asdict(self)


def expansion_check(F, expansion_alpha, epsilon, sample_sets, seed):
    """Count sampled sets X violating |N(X)| > (K - 1 - epsilon) |X|.

    F is the (n, K) out-neighbour array of integer ids in [0, n); N(X) collects out-neighbors
    of X outside X.  Only sets smaller than expansion_alpha * n / log(n) are eligible; the
    whole vertex set is never tested.  ``min_margin`` is the smallest observed |N(X)| / |X|
    minus the threshold, an indicator of slack.
    """
    F = _checked_kout(F)
    n, K = F.shape
    if n < 2:  # log(n) is 0 at n = 1
        raise InputError(f"expansion_check needs at least two vertices, got {n}")
    if not (0 < expansion_alpha < math.inf and math.isfinite(epsilon)):
        raise InputError("need a finite expansion_alpha > 0 and a finite epsilon")
    sample_sets = checked_count(sample_sets, 1, "need sample_sets >= 1")
    max_size = min(expansion_alpha * n / math.log(n), n - 1)
    if max_size < 1:
        raise InputError("expansion_alpha too small: no admissible set size")
    max_size = int(max_size)
    rng = seeded(seed)
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
        seed=checked_count(seed, 0, BAD_SEED, high=math.inf),
        max_size=max_size,
        violations=violations,
        min_margin=float(min_margin),
    )
