"""Ranking systems, exact K-nearest-neighbor graphs, and recall scoring.

A ranking system assigns to every item x a strict preference order over the
other items.  This module stores such systems as explicit rank tables, wraps
them in a work-metering preference oracle, extracts exact K-NN graphs (the
quadratic reference that descent tries to approximate cheaply), and scores
approximate graphs against exact ones.
"""

import functools
import json
import math
import threading

import numpy as np

from .errors import InputError

# Full rank tables cost O(n^2) memory; they are test oracles and desk-scale
# engines, not production indexes.
MAX_TABLE_ITEMS = 2 ** 15


def unique_keys(keys):
    """The sorted distinct keys, as ``np.unique`` gives them, by one plain sort.

    numpy 2's ``np.unique`` hashes integers first; that measured 9-20x slower
    than this on 50-200 keys and 30-60x on 1e5-1e6 (numpy 2.4, x86-64).
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def csr(rows, cols, n):
    """The entries (rows[i], cols[i]) as CSR over n rows: ``(indptr, cols')``.

    Row x is ``cols'[indptr[x]:indptr[x + 1]]``; the sort by row is stable, so
    each row keeps its entries in input order.
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order]


def csr_rows(starts, counts):
    """The positions of the CSR rows starting at ``starts``, ``counts`` long, in turn."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def csv_triples(text, header):
    """The integer rows of a three-column CSV as an (R, 3) array, without ``#`` lines."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    if lines and lines[0] == header:
        lines = lines[1:]
    rows = []
    for ln in lines:
        try:
            a, b, c = (int(v) for v in ln.split(","))
        except ValueError:
            raise InputError(f"expected three integers per CSV row, got {ln!r}") from None
        rows.append((a, b, c))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def rank_matrix(keys, ranks, values):
    """The (n, k) matrix M with ``M[key, rank - 1] = value`` for each entry.

    Raises InputError unless the entries give each key 0..n-1 each rank 1..k
    exactly once, so a missing or repeated CSV row is refused.
    """
    n, k = int(keys.max(initial=-1)) + 1, int(ranks.max(initial=0))
    cells = keys * k + ranks - 1
    distinct = unique_keys(cells)
    # with every rank >= 1, n * k distinct cells none below 0 are exactly 0 .. n*k - 1
    if not 0 < keys.size == n * k == distinct.size or ranks.min() < 1 or distinct[0] < 0:
        raise InputError(f"incomplete table: each of {n} keys needs ranks 1..{k} exactly once")
    return values[np.argsort(cells)].reshape(n, k)


class RankTable:
    """Explicit per-item rankings over a ground set of n items.

    ``order[x]`` lists the other n-1 items from most to least preferred by
    x; ``ranks[x, y]`` is the 1-based position of y in that list (0 on the
    diagonal).  Instances are immutable after construction and safe to share
    across threads.
    """

    def __init__(self, order, max_items=MAX_TABLE_ITEMS):
        order = np.asarray(order)
        if order.ndim != 2 or order.shape[1] != order.shape[0] - 1:
            raise InputError(f"order must be (n, n-1), got {order.shape}")
        n = order.shape[0]
        if n < 2:
            raise InputError("a ranking system needs at least two items")
        if n > max_items:
            raise InputError(
                f"n={n} exceeds the rank-table cap of {max_items}; "
                "full tables above this size are disallowed by design"
            )
        order = order.astype(np.int32)
        # each row must be a permutation of the complement of its index
        expected = np.arange(n - 1, dtype=np.int32)[None, :]
        expected = expected + (expected >= np.arange(n, dtype=np.int32)[:, None])
        if not np.array_equal(np.sort(order, axis=1), expected):
            raise InputError("row x of order must be a permutation of all items except x")
        ranks = np.zeros((n, n), dtype=np.int32)
        rows = np.repeat(np.arange(n), n - 1)
        ranks[rows, order.ravel()] = np.tile(np.arange(1, n, dtype=np.int32), n)
        self._order = order
        self._ranks = ranks
        self._order.setflags(write=False)
        self._ranks.setflags(write=False)

    @property
    def n(self):
        return self._order.shape[0]

    @property
    def order(self):
        return self._order

    @property
    def ranks(self):
        return self._ranks

    def rank(self, x, y):
        """1-based rank of y in x's preference order."""
        if x == y:
            raise InputError("rank is undefined for x == y")
        return int(self._ranks[x, y])

    def prefers(self, x, y, z):
        """True iff x prefers y to z (pure, not work-metered)."""
        if x == y or x == z or y == z:
            raise InputError("prefers requires three distinct items")
        return bool(self._ranks[x, y] < self._ranks[x, z])

    def __eq__(self, other):
        return isinstance(other, RankTable) and np.array_equal(self._order, other._order)

    def __hash__(self):
        return hash(self._order.tobytes())

    def to_csv(self):
        lines = ["source,rank,target"]
        for x in range(self.n):
            lines.extend(f"{x},{r},{y}" for r, y in enumerate(self._order[x], start=1))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        return cls(rank_matrix(*csv_triples(text, "source,rank,target").T))


class KnnGraph:
    """A K-out digraph: each item's K out-neighbors, most preferred first."""

    def __init__(self, neighbors, n=None):
        neighbors = np.asarray(neighbors, dtype=np.int32)
        if neighbors.ndim != 2:
            raise InputError("neighbors must be a 2-D (n, K) array")
        self.n = int(n) if n is not None else neighbors.shape[0]
        self.k = neighbors.shape[1]
        if not 1 <= self.k < self.n:
            raise InputError(f"need 1 <= K < n, got K={self.k}, n={self.n}")
        if neighbors.shape[0] != self.n:
            raise InputError("neighbor matrix row count must equal n")
        srt = np.sort(neighbors, axis=1)
        if (np.diff(srt, axis=1) == 0).any():
            raise InputError("neighbor lists must not repeat items")
        if (neighbors == np.arange(self.n)[:, None]).any():
            raise InputError("an item may not neighbor itself")
        if neighbors.min() < 0 or neighbors.max() >= self.n:
            raise InputError("neighbor ids out of range")
        self.neighbors = neighbors
        self.neighbors.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, KnnGraph)
            and self.n == other.n
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def __hash__(self):
        return hash((self.n, self.neighbors.tobytes()))

    def to_csv(self):
        lines = ["source,rank,target"]
        for x in range(self.n):
            lines.extend(f"{x},{r},{y}" for r, y in enumerate(self.neighbors[x], start=1))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        return cls(rank_matrix(*csv_triples(text, "source,rank,target").T))

    def to_json(self):
        return json.dumps(
            {"n": self.n, "k": self.k, "neighbors": self.neighbors.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(np.array(obj["neighbors"]), n=obj["n"])


class RankingOracle:
    """Answers "does x prefer y to z" over a RankTable, metering work.

    ``prefers`` charges exactly one comparison per query.  ``top_k`` selects
    and rank-orders the best k of a candidate pool with vectorised lookups
    and charges the ``c * ceil(log2 c)`` comparison cost of the sort it
    stands in for, keeping desk-scale descent runs fast while the meter
    stays an honest upper-bound accouting of comparison-based selection.
    The meter is guarded by a lock so concurrent readers may share one
    oracle.
    """

    def __init__(self, table):
        self.table = table
        self._comparisons = 0
        self._lock = threading.Lock()

    @property
    def n(self):
        return self.table.n

    @property
    def comparisons(self):
        return self._comparisons

    def _charge(self, amount):
        with self._lock:
            self._comparisons += amount

    def prefers(self, x, y, z):
        """True iff x prefers y to z; one comparison of work."""
        result = self.table.prefers(x, y, z)
        self._charge(1)
        return result

    def top_k(self, x, candidates, k):
        """The k most-preferred candidates of x, best first.

        ``candidates`` must be distinct and must not contain x.  Returns all
        of them (ordered) when there are fewer than k.
        """
        cand = np.asarray(candidates)
        if (cand == x).any():
            raise InputError("candidate pool must not contain x itself")
        c = cand.size
        self._charge(0 if c <= 1 else c * math.ceil(math.log2(c)))
        r = self.table.ranks[x, cand]
        if c > k:
            keep = np.argpartition(r, k - 1)[:k]
            cand, r = cand[keep], r[keep]
        return cand[np.argsort(r)]


def ranking_from_distance_matrix(dist, tie_break=None, max_items=MAX_TABLE_ITEMS):
    """RankTable from a symmetric distance matrix with deterministic ties.

    Equal distances are broken by ``tie_break`` (a permutation of item ids
    giving precedence order; identity by default), so rebuilding a table
    from the same inputs is bit-reproducible.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[1] != n:
        raise InputError("distance matrix must be square")
    off = ~np.eye(n, dtype=bool)
    if not np.isfinite(dist[off]).all():
        raise InputError("distances must be finite")
    if (dist[off] < 0).any():
        raise InputError("distances must be non-negative")
    if tie_break is None:
        priority = np.arange(n)
    else:
        priority = np.asarray(tie_break)
        if not np.array_equal(np.sort(priority), np.arange(n)):
            raise InputError("tie_break must be a permutation of the item ids")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)  # self sorts last and is dropped
    keys_pri = np.broadcast_to(priority, (n, n))
    order = np.lexsort((keys_pri, d), axis=1)[:, : n - 1]
    return RankTable(order, max_items=max_items)


def ranking_from_distances(points, distance, tie_break=None, max_items=MAX_TABLE_ITEMS):
    """RankTable from a symmetric pair distance function.

    ``distance`` is called once per unordered pair of elements of ``points``
    and mirrored, so symmetry holds by construction; non-finite or negative
    values are rejected.
    """
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise InputError("need at least two points")
    dist = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = distance(pts[i], pts[j])
    return ranking_from_distance_matrix(dist, tie_break=tie_break, max_items=max_items)


def exact_knn(table, K):
    """The exact K-NN graph of a ranking system; O(n^2) by construction."""
    if not 1 <= K < table.n:
        raise InputError(f"need 1 <= K < n, got K={K}, n={table.n}")
    return KnnGraph(table.order[:, :K], n=table.n)


def exact_knn_via_oracle(oracle, K):
    """Exact K-NN via counted pairwise comparisons only.

    Slow by design: sorts each item's candidate list through the oracle, so
    the work meter reflects a genuine comparison sort.
    """
    n = oracle.n
    if not 1 <= K < n:
        raise InputError(f"need 1 <= K < n, got K={K}, n={n}")
    rows = np.empty((n, K), dtype=np.int32)
    for x in range(n):
        others = [y for y in range(n) if y != x]

        def cmp(a, b, x=x):
            return -1 if oracle.prefers(x, a, b) else 1

        rows[x] = sorted(others, key=functools.cmp_to_key(cmp))[:K]
    return KnnGraph(rows, n=n)


def recall(approx, exact):
    """Fraction of exact K-NN arcs present in the approximation."""
    if approx.n != exact.n:
        raise InputError("graphs must share the same item count")
    if approx.k != exact.k:
        raise InputError("graphs must share the same K")
    n, k = exact.n, exact.k
    member = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    member[rows, exact.neighbors.ravel()] = True
    return float(member[rows, approx.neighbors.ravel()].sum()) / (n * k)
