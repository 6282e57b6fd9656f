"""Linear orders on point pairs, concordant ranking systems, and the white graph.

A linear order on the N = n(n-1)/2 unordered pairs of n items induces a
ranking system by restricting it to each item's incident pairs.  The systems
arising this way are exactly the concordant ones: those whose per-item
orders extend jointly to a partial order on all pairs, equivalently those
realisable by a metric.  This module builds and certifies such systems
(order-type DAG or explicit cycle), realises concordant ones as sup-norm
point configurations, constructs the special orders whose rearrangement
behaviour is extreme (powers of two, matching concatenations, Eulerian
circuits), and explores the graph on linear orders whose "white" edges are
the adjacent transpositions that leave the induced system unchanged.
"""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from .errors import InputError, NotConcordantError, ResourceLimitError
from .ranking import RankTable

__all__ = [
    "n_pairs",
    "pair_index",
    "pair_unrank",
    "all_pairs",
    "LinearOrder",
    "Crs",
    "phi",
    "concordancy_check",
    "generic_crs",
    "EmbeddingMatrix",
    "linf_embed",
    "verify_embedding",
    "is_isolated",
    "WhiteComponent",
    "white_component",
    "powers_of_two_order",
    "baranyai_order",
    "eulerian_order",
    "white_edge_fraction",
    "SmallCensus",
    "enumerate_small",
    "concordant5_system",
]


# ---------------------------------------------------------------------------
# Pair bookkeeping: the shared lexicographic triangular encoding

def n_pairs(n):
    return n * (n - 1) // 2


def pair_index(i, j, n):
    """Lexicographic triangular index of the pair {i, j}; elementwise on arrays."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if np.any(lo == hi):
        raise InputError("a pair needs two distinct items")
    return lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)


def _checked_pair_index(pairs, n):
    """pair_index of each row of an (m, 2) array-like of two distinct items of [0, n)."""
    ij = np.asarray(pairs)
    if not (ij.ndim == 2 and ij.shape[1] == 2 and ij.dtype.kind in "iu"
            and ((0 <= ij) & (ij < n)).all()):
        raise InputError(f"each pair must be two integer items of [0, {n})")
    return pair_index(*ij.astype(np.int64).T, n)


def pair_unrank(idx, n):
    """The pair (i, j), i < j, of lexicographic index idx; elementwise on
    arrays, Python ints for a scalar index."""
    lo, hi = np.triu_indices(n, 1)
    if np.ndim(idx) == 0:
        return int(lo[idx]), int(hi[idx])
    return lo[idx], hi[idx]


def all_pairs(n):
    """All unordered pairs of [n] in lexicographic order."""
    lo, hi = pair_unrank(np.arange(n_pairs(n)), n)
    return list(zip(lo.tolist(), hi.tolist()))


class LinearOrder:
    """A linear order on the pairs of [n], listed from bottom up.

    ``perm[k]`` is the lexicographic index of the pair at position k+1, and
    ``pairs[k]`` that pair as a tuple.  Immutable and hashable.
    """

    __slots__ = ("n", "perm")

    def __init__(self, n, pairs):
        self._set(int(n), _checked_pair_index(list(pairs) or np.empty((0, 2), dtype=np.int64), n))

    @classmethod
    def from_perm(cls, n, perm):
        """The order listing the pairs of lexicographic indices ``perm``."""
        return cls.__new__(cls)._set(int(n), np.array(perm, dtype=np.int64))

    def _set(self, n, perm):
        N = n_pairs(max(n, 0))
        # N indices >= 0 that fill all of the first N bins are a permutation of range(N)
        if not (perm.shape == (N,) and perm.min(initial=0) >= 0
                and np.bincount(perm, minlength=N)[:N].all()):
            raise InputError("pairs must enumerate every unordered pair exactly once")
        perm.setflags(write=False)
        self.n, self.perm = n, perm
        return self

    @property
    def N(self):
        return self.perm.size

    @property
    def pairs(self):
        """The pairs from bottom up, as (i, j) tuples with i < j."""
        pairs = all_pairs(self.n)
        return tuple(pairs[k] for k in self.perm.tolist())

    def positions_array(self):
        """Positions indexed by lexicographic pair index (1-based values)."""
        pos = np.empty(self.N, dtype=np.int64)
        pos[self.perm] = np.arange(1, self.N + 1)
        return pos

    def swap(self, pos):
        """The order with the pairs at 1-based positions pos, pos+1 swapped."""
        if not 1 <= pos <= self.N - 1:
            raise InputError("swap position out of range")
        perm = self.perm.copy()
        perm[[pos - 1, pos]] = perm[[pos, pos - 1]]
        return LinearOrder.from_perm(self.n, perm)

    def __eq__(self, other):
        return (
            isinstance(other, LinearOrder)
            and self.n == other.n
            and np.array_equal(self.perm, other.perm)
        )

    def __hash__(self):
        return hash((self.n, self.perm.tobytes()))

    def __repr__(self):
        return f"LinearOrder(n={self.n}, pairs={self.pairs})"


# ---------------------------------------------------------------------------
# The induced ranking system and its concordancy certificate

def _successors(orders):
    """The consecutive-relation digraph of a (B, n, n-1) stack of rank tables as
    an int32 (B*N, 2) successor table, table b's pair nodes being its pair
    indices plus b * N: row p = {a < b} holds the pair just above p in a's
    order, then in b's, or p itself where p tops that order (a loop, in no
    strong component).  Exact while (n-1) * n and 2 * B * N are below 2^31."""
    B, n = orders.shape[:2]
    N = n_pairs(n)
    x, y = np.arange(n, dtype=np.int32)[:, None], orders.astype(np.int32)
    lo, hi = np.minimum(x, y), np.maximum(x, y)  # a rank row never holds its owner
    P = lo * (2 * n - 1 - lo) // 2 + hi - lo - 1
    P += N * np.arange(B, dtype=np.int32)[:, None, None]
    succ = np.repeat(np.arange(B * N, dtype=np.int32), 2)
    succ[2 * P[..., :-1] + (x > y)[..., :-1]] = P[..., 1:]
    return succ.reshape(B * N, 2)


def _strong_components(orders):
    """Successor table of a (B, n, n-1) stack of rank tables, and the count and
    labels of the strong components of its B*N pair nodes: all B tables are
    concordant iff every node is a component of its own, i.e. count == B*N."""
    from scipy.sparse import csgraph, csr_matrix

    succ = _successors(orders)
    M = len(succ)
    graph = csr_matrix((np.ones(2 * M), succ.ravel(), np.arange(0, 2 * M + 1, 2, dtype=np.int32)),
                       shape=(M, M))
    count, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    return succ, count, labels


def _check_table(table):
    """(successor table, None) when the consecutive-relation digraph is
    acyclic, else (None, explicit cycle of pairs)."""
    succ, count, labels = _strong_components(table.order[None])
    N = len(succ)
    if count == N:
        return succ, None
    # every node of a strong component with two or more nodes has a
    # predecessor inside it, so walking predecessors must revisit a node
    start = int(np.flatnonzero(np.bincount(labels)[labels] > 1)[0])
    src, dst = np.repeat(np.arange(N), 2), succ.ravel()
    inside = (src != dst) & (labels[src] == labels[start]) & (labels[dst] == labels[start])
    pred = np.full(N, -1)
    pred[dst[inside]] = src[inside]
    seen = {}
    walk = []
    p = start
    while p not in seen:
        seen[p] = len(walk)
        walk.append(p)
        p = int(pred[p])
    pairs = all_pairs(table.n)
    return None, [pairs[q] for q in reversed(walk[seen[p] :])]


class Crs:
    """A ranking system plus concordancy evidence.

    The certificate is either the order-type DAG (the consecutive-relation
    digraph on pairs, whose reachability is the minimal partial order
    extending every per-item order) or an explicit directed cycle of pairs
    witnessing that no such partial order exists.  Evidence is computed
    lazily on first access; the DAG is held as ``_successors``' table, and
    ``_graph`` compacts it into a CSR over lexicographic pair indices.
    """

    def __init__(self, table):
        self.table = table

    @functools.cached_property
    def _evidence(self):
        return _check_table(self.table)

    @functools.cached_property
    def _graph(self):
        from scipy.sparse import csr_matrix

        rows = np.sort(self._evidence[0], axis=1)
        N = len(rows)
        keep = rows != np.arange(N)[:, None]  # a loop marks an order's top
        indptr = np.append(0, keep.sum(axis=1).cumsum(dtype=np.int32))
        return csr_matrix((np.ones(indptr[-1]), rows[keep], indptr), shape=(N, N))

    @property
    def n(self):
        return self.table.n

    @property
    def is_concordant(self):
        return self._evidence[1] is None

    # kept for perfbench's NndGeneric counters, extras and fingerprint; goes once it counts _graph
    @functools.cached_property
    def dag_arcs(self):
        if not self.is_concordant:
            return None
        pairs, (src, dst) = all_pairs(self.n), self._graph.nonzero()
        return {(pairs[p], pairs[q]) for p, q in zip(src.tolist(), dst.tolist())}

    @property
    def cycle(self):
        return self._evidence[1]

    def order_leq(self, p, q):
        """True iff p precedes-or-equals q in the order type (reachability)."""
        from scipy.sparse import csgraph

        if not self.is_concordant:
            raise NotConcordantError("order type undefined for a cyclic system", self.cycle)
        a, b = _checked_pair_index([p, q], self.n).tolist()
        if a == b:
            return True
        reach = csgraph.breadth_first_order(self._graph, a, return_predecessors=False)
        return bool((reach == b).any())


def _phi_orders(perms, n):
    """The (B, n, n-1) rank rows of phi for a (B, N) stack of pair-index
    permutations: item x ranks y by the position of {x, y}.

    Row x of table b is filled with the keys pos({x, y}) * n + y, pos being
    0-based, and the diagonal with N * n, and sorted in place.  A row's
    positions are distinct, so the keys sort exactly as the positions do,
    the diagonal sorts last, and each partner y is its key mod n.  The keys
    are int32 while N * n < 2^31, that is for n <= 1625, and int64 above.
    """
    B, N = perms.shape
    dtype = np.int32 if N * n < 2 ** 31 else np.int64
    scaled = np.empty(perms.shape, dtype)  # pos * n, by lexicographic pair index
    np.put_along_axis(scaled, perms, np.arange(0, N * n, n, dtype=dtype), axis=1)
    keys = np.zeros((B, n, n), dtype)
    # the upper triangle in row-major order is the pairs in lexicographic order
    keys[:, np.triu(np.ones((n, n), dtype=bool), 1)] = scaled
    keys += keys.transpose(0, 2, 1)
    keys += np.arange(n, dtype=dtype)
    keys.reshape(B, n * n)[:, :: n + 1] = N * n
    keys.sort(axis=2)
    return keys[..., : n - 1] % n


def phi(order):
    """The ranking system induced by restricting the pair order per item.

    Concordant by construction: the input order itself extends every
    per-item restriction.
    """
    return Crs(RankTable(_phi_orders(order.perm[None], order.n)[0]))


def concordancy_check(table):
    """Certify a ranking system: order-type DAG or explicit cycle witness."""
    crs = Crs(table)
    crs.is_concordant  # run the check now rather than on first use
    return crs


def generic_crs(n, seed):
    """phi of a uniformly random linear order on the pairs of [n]."""
    if n < 2:
        raise InputError("need at least two items")
    perm = np.random.default_rng(seed).permutation(n_pairs(n))
    return Crs(RankTable(_phi_orders(perm[None], n)[0]))


# ---------------------------------------------------------------------------
# Sup-norm realisation of a concordant system

@dataclass(frozen=True)
class EmbeddingMatrix:
    """n x N coordinates; column k is supported on the two rows of its pair.

    Column k (0-based) carries +/-(1 + (k+1)/N) at the rows of
    ``column_pairs[k]``, positive at the smaller item id.
    """

    coords: np.ndarray
    column_pairs: tuple

    @property
    def n(self):
        return self.coords.shape[0]

    def distances(self):
        """The n x n sup-norm distances, folding in one column at a time (exact)."""
        dist = np.zeros((self.n, self.n))
        for col in self.coords.T:
            np.maximum(dist, np.abs(col[:, None] - col[None, :]), out=dist)
        return dist

    def to_csv(self):
        header = "item," + ",".join(f"{i}-{j}" for i, j in self.column_pairs)
        lines = [header]
        for x in range(self.n):
            lines.append(str(x) + "," + ",".join(repr(float(v)) for v in self.coords[x]))
        return "\n".join(lines) + "\n"


def _linear_extension(crs, seed):
    """Seed-keyed topological order of the pairs under the order-type DAG."""
    import heapq

    N = n_pairs(crs.n)
    rng = np.random.default_rng(seed)
    priority = rng.permutation(N).tolist()
    graph = crs._graph
    indptr, succ = graph.indptr.tolist(), graph.indices.tolist()
    indeg = np.bincount(graph.indices, minlength=N).tolist()
    heap = [(priority[p], p) for p, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, p = heapq.heappop(heap)
        out.append(p)
        for q in succ[indptr[p] : indptr[p + 1]]:
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(heap, (priority[q], q))
    return LinearOrder.from_perm(crs.n, out)


def linf_embed(crs, seed=0, extension=None):
    """Realise a concordant system as points whose sup-norm metric induces it.

    A linear extension of the order type (seeded topological sort, or one
    supplied explicitly) enumerates the pairs; column sigma({x,y}) of the
    result holds 1 + sigma/N at row min(x,y) and its negation at row
    max(x,y).  Each pair's sup distance is then 2 + 2 sigma/N, realised
    exactly at its own column, so preferences transfer.
    """
    if not crs.is_concordant:
        raise NotConcordantError("cannot embed a non-concordant system", crs.cycle)
    n = crs.n
    if extension is None:
        extension = _linear_extension(crs, seed)
    else:
        if extension.n != n:
            raise InputError("extension is over the wrong ground set")
        src, dst = crs._graph.nonzero()
        pos = extension.positions_array()
        bad = np.flatnonzero(pos[src] > pos[dst])
        if bad.size:
            p, q = pair_unrank(src[bad[0]], n), pair_unrank(dst[bad[0]], n)
            raise InputError(f"supplied order does not extend the order type at {p} -> {q}")
    N = extension.N
    lo, hi = pair_unrank(extension.perm, n)
    cols = np.arange(N)
    value = 1.0 + (cols + 1) / N
    coords = np.zeros((n, N))
    coords[lo, cols] = value
    coords[hi, cols] = -value
    coords.setflags(write=False)
    return EmbeddingMatrix(coords, extension.pairs)


def verify_embedding(crs, emb):
    """True iff sup-norm rankings of the embedding equal the system's table."""
    n = crs.n
    if emb.coords.shape[0] != n:
        raise InputError("embedding row count must match the system")
    along = np.take_along_axis(emb.distances(), crs.table.order, axis=1)
    return bool((np.diff(along, axis=1) > 0).all())


# ---------------------------------------------------------------------------
# The white graph of adjacent transpositions

def _disjoint(p, q, n):
    """Elementwise: whether the pairs of lexicographic indices p and q share no item."""
    (a, b), (c, d) = pair_unrank(p, n), pair_unrank(q, n)
    return (a != c) & (a != d) & (b != c) & (b != d)


def is_isolated(order):
    """True iff every adjacent transposition changes the induced system."""
    return not _disjoint(order.perm[:-1], order.perm[1:], order.n).any()


@dataclass
class WhiteComponent:
    orders: list
    complete: bool

    def __len__(self):
        return len(self.orders)


# array entries per block of candidate orders in a white BFS level
_BLOCK_ENTRIES = 1 << 20


def _white_neighbours(frontier, n):
    """Keys of the orders one white swap away from each frontier row, the
    rows in order and each row's swaps from the bottom up."""
    N = frontier.shape[1]
    block = max(1, _BLOCK_ENTRIES // max(N * N, 1))
    for at in range(0, len(frontier), block):
        cur = frontier[at : at + block]
        rows, slots = np.nonzero(_disjoint(cur[:, :-1], cur[:, 1:], n))
        nxt = cur[rows]
        k = np.arange(rows.size)
        nxt[k, slots], nxt[k, slots + 1] = cur[rows, slots + 1], cur[rows, slots]
        yield from nxt.view(np.dtype((np.void, N * nxt.itemsize))).ravel().tolist()


def white_component(order, cap=20000):
    """BFS over white edges from an order.

    Stops expanding once ``cap`` orders have been collected and flags the
    result as partial; every member maps to the same system under phi.
    ``orders`` lists the members in discovery order; the BFS keys an order
    by the bytes of its pair indices in the smallest unsigned dtype.
    """
    if cap < 1:
        raise InputError("cap must be positive")
    n, N = order.n, order.N
    dtype = np.min_scalar_type(max(N - 1, 0))
    frontier = order.perm.astype(dtype)[None]
    seen = {frontier.tobytes(): None}  # insertion order is discovery order
    while frontier.size and len(seen) < cap:
        found = []
        for key in _white_neighbours(frontier, n):
            if key not in seen:
                seen[key] = None
                found.append(key)
                if len(seen) >= cap:
                    break
        frontier = np.frombuffer(b"".join(found), dtype=dtype).reshape(len(found), N)
    orders = [LinearOrder.from_perm(n, np.frombuffer(key, dtype=dtype)) for key in seen]
    return WhiteComponent(orders=orders, complete=len(seen) < cap)


# ---------------------------------------------------------------------------
# Special orders

def powers_of_two_order(n):
    """Distance order of {2^0, ..., 2^(n-1)}: an isolated white-graph point.

    Exact integer arithmetic; consecutive pairs always share an endpoint.
    """
    if n < 3:
        raise InputError("need n >= 3")
    pairs = sorted(all_pairs(n), key=lambda p: 2 ** p[1] - 2 ** p[0])
    return LinearOrder(n, pairs)


def baranyai_order(n):
    """Perfect matchings of K_n concatenated: a huge white component.

    Round-robin (circle method) 1-factorization, deterministic within-
    matching order.  Adjacent pairs inside a matching are disjoint, so every
    within-matching rearrangement is reachable by white swaps.
    """
    if n % 2 != 0:
        raise InputError("a 1-factorization of K_n needs even n")
    if n < 4:
        raise InputError("need n >= 4")
    pairs = []
    for r in range(n - 1):
        matching = [(r, n - 1)]
        for i in range(1, n // 2):
            a = (r + i) % (n - 1)
            b = (r - i) % (n - 1)
            matching.append((min(a, b), max(a, b)))
        pairs.extend(matching)
    return LinearOrder(n, pairs)


def eulerian_order(n):
    """Edges of K_n in Eulerian-circuit order: an isolated white-graph point.

    K_n is Eulerian exactly for odd n (all degrees even).  Hierholzer's
    algorithm with smallest-neighbor choice, so the circuit is
    deterministic.  Consecutive edges of a circuit share a vertex.
    """
    if n % 2 == 0:
        raise InputError("K_n has an Eulerian circuit only for odd n")
    if n < 3:
        raise InputError("need n >= 3")
    adj = {v: set(range(n)) - {v} for v in range(n)}
    stack = [0]
    walk = []
    while stack:
        v = stack[-1]
        if adj[v]:
            u = min(adj[v])
            adj[v].discard(u)
            adj[u].discard(v)
            stack.append(u)
        else:
            walk.append(stack.pop())
    walk.reverse()
    pairs = [(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])]
    return LinearOrder(n, pairs)


# ---------------------------------------------------------------------------
# Counting

# sampled orders white_edge_fraction draws and sorts at a time
FRACTION_ROWS = 4096


def white_edge_fraction(n, samples=100_000, seed=0):
    """(exact, empirical) probability that a uniform white-graph edge is white.

    Exact value C(n-2, 2) / (C(n, 2) - 1) = 1 - 4/(n+1); the empirical
    estimate Monte-Carlos uniform orders and uniform adjacent positions.
    """
    if n < 3:
        raise InputError("need n >= 3")
    exact = Fraction(comb(n - 2, 2), comb(n, 2) - 1)
    rng = np.random.default_rng(seed)
    N = n_pairs(n)
    # the positions are drawn after the samples x N keys; PCG64's random()
    # takes one 64-bit step per float, so a twin advanced past the keys draws them
    ahead = np.random.default_rng(seed)
    ahead.bit_generator.advance(samples * N)
    pos = ahead.integers(0, N - 1, size=samples)[:, None] + np.arange(2)
    pairs = np.empty((samples, 2), dtype=np.int64)
    for s in range(0, samples, FRACTION_ROWS):
        orders = rng.random((min(FRACTION_ROWS, samples - s), N)).argsort(axis=1)
        pairs[s : s + len(orders)] = np.take_along_axis(orders, pos[s : s + len(orders)], axis=1)
    return exact, float(_disjoint(*pairs.T, n).mean())


@dataclass
class SmallCensus:
    """Exhaustive statistics over every linear order on the pairs of [n]."""

    n: int
    num_orders: int
    num_systems: int
    component_sizes: dict
    white_edges: int
    adjacent_slots: int
    white_fraction_exact: Fraction
    all_concordant: bool
    components_equal_fibers: bool | None
    ratio_lower: Fraction
    ratio_upper: Fraction

    @property
    def ratio(self):
        return Fraction(self.num_orders, self.num_systems)

    @property
    def bounds_ok(self):
        return self.ratio_lower < self.ratio < self.ratio_upper

    def to_json_dict(self):
        return {
            "n": self.n,
            "orders": self.num_orders,
            "systems": self.num_systems,
            "component_sizes": {str(k): v for k, v in sorted(self.component_sizes.items())},
            "white_edges": self.white_edges,
            "adjacent_slots": self.adjacent_slots,
            "white_fraction_exact": str(self.white_fraction_exact),
            "orders_per_system": self.num_orders / self.num_systems,
            "ratio_bounds": [float(self.ratio_lower), float(self.ratio_upper)],
            "bounds_ok": self.bounds_ok,
            "all_concordant": self.all_concordant,
            "components_equal_fibers": self.components_equal_fibers,
        }


_CENSUS_CHUNK = 1 << 16


def enumerate_small(n):
    """Exhaustive census of all N! pair orders for n <= 5.

    Each order is classed by its phi image, keyed as one base-n integer of
    the image's n(n-1) rank entries, and its white edges are counted
    exactly; every distinct image is certified concordant.  For n <= 4 the
    white graph is also traversed exhaustively and component classes are
    verified to coincide with phi fibers; a full 10!-vertex traversal at
    n = 5 is not attempted.
    """
    if n > 5:
        raise ResourceLimitError(
            f"enumerate_small refuses n={n}: (n(n-1)/2)! linear orders explode"
        )
    if n < 2:
        raise InputError("need n >= 2")
    N = n_pairs(n)
    place = n ** np.arange(n * (n - 1) - 1, -1, -1, dtype=np.int64)  # 5^20 < 2^63
    white = _disjoint(np.arange(N)[:, None], np.arange(N), n)

    keys = []
    white_edges2 = 0  # each white edge seen from both endpoints
    orders = itertools.permutations(range(N))
    while (perms := np.fromiter(itertools.chain.from_iterable(
            itertools.islice(orders, _CENSUS_CHUNK)), dtype=np.int64).reshape(-1, N)).size:
        keys.append(_phi_orders(perms, n).reshape(len(perms), -1) @ place)
        white_edges2 += int(white[perms[:, :-1], perms[:, 1:]].sum())
    images, fiber_sizes = np.unique(np.concatenate(keys), return_counts=True)
    num_orders = factorial(N)

    components_equal_fibers = None
    component_sizes = Counter(fiber_sizes.tolist())
    if n <= 4:
        # exhaustive white BFS; components equal fibers iff each component
        # lies in one fiber and there are as many components as fibers
        unvisited = set(itertools.permutations(range(N)))
        component_sizes = Counter()
        within_fibers = True
        while unvisited:
            start = LinearOrder.from_perm(n, next(iter(unvisited)))
            perms = np.stack([o.perm for o in white_component(start, cap=num_orders + 1).orders])
            unvisited -= set(map(tuple, perms.tolist()))
            component_sizes[len(perms)] += 1
            rows = _phi_orders(perms, n)
            within_fibers &= bool((rows == rows[0]).all())
        components_equal_fibers = within_fibers and sum(component_sizes.values()) == images.size

    # every distinct image must certify concordant
    all_concordant = all(
        _strong_components(digits.reshape(-1, n, n - 1))[1] == len(digits) * N
        for digits in (images[at : at + _CENSUS_CHUNK, None] // place % n
                       for at in range(0, images.size, _CENSUS_CHUNK))
    )

    return SmallCensus(
        n=n,
        num_orders=num_orders,
        num_systems=images.size,
        component_sizes=dict(component_sizes),
        white_edges=white_edges2 // 2,
        adjacent_slots=num_orders * (N - 1) // 2,
        white_fraction_exact=Fraction(comb(n - 2, 2), comb(n, 2) - 1) if n >= 3 else Fraction(0),
        all_concordant=all_concordant,
        components_equal_fibers=components_equal_fibers,
        ratio_lower=Fraction(factorial(N), factorial(n - 1) ** n),
        ratio_upper=Fraction(factorial(N), prod(factorial(k) for k in range(1, n - 1))),
    )


# ---------------------------------------------------------------------------
# A worked five-point example

def concordant5_system():
    """A hand-worked concordant five-point system and a known extension.

    Returns (table, extension): the extension is a linear order on the ten
    pairs compatible with the system's order type, handy for reproducible
    embeddings.
    """
    rows = [
        [1, 4, 3, 2],
        [0, 2, 3, 4],
        [3, 4, 1, 0],
        [2, 4, 0, 1],
        [2, 0, 3, 1],
    ]
    table = RankTable(np.array(rows))
    extension = LinearOrder(
        5,
        [(0, 1), (2, 3), (2, 4), (0, 4), (1, 2), (3, 4), (0, 3), (0, 2), (1, 3), (1, 4)],
    )
    return table, extension
