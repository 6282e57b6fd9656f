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
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import InputError, NotConcordantError, ResourceLimitError
from .ranking import RankTable, csv_triples, rank_matrix, unique_keys

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
    "swap_is_white",
    "is_isolated",
    "WhiteComponent",
    "white_component",
    "powers_of_two_order",
    "powers_of_two_blocks",
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


def pair_unrank(idx, n):
    i = 0
    while idx >= n - i - 1:
        idx -= n - i - 1
        i += 1
    return i, i + 1 + idx


def all_pairs(n):
    """All unordered pairs of [n] in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class LinearOrder:
    """A linear order on the pairs of [n], listed from bottom up.

    ``pairs[k]`` is the pair at position k+1; ``position(i, j)`` returns the
    1-based position sigma({i, j}).  Immutable and hashable.
    """

    __slots__ = ("n", "pairs", "_pos")

    def __init__(self, n, pairs):
        pairs = tuple((a, b) if a < b else (b, a) for a, b in pairs)
        if sorted(pairs) != all_pairs(n):
            raise InputError("pairs must enumerate every unordered pair exactly once")
        self.n = int(n)
        self.pairs = pairs
        self._pos = None

    @classmethod
    def _trusted(cls, n, pairs):
        self = object.__new__(cls)
        self.n = n
        self.pairs = pairs
        self._pos = None
        return self

    @property
    def N(self):
        return len(self.pairs)

    def position(self, i, j):
        """1-based position of the pair {i, j}."""
        return int(self.positions_array()[pair_index(i, j, self.n)])

    def positions_array(self):
        """Positions indexed by lexicographic pair index (1-based values)."""
        if self._pos is None:
            ij = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
            pos = np.empty(self.N, dtype=np.int64)
            pos[pair_index(ij[:, 0], ij[:, 1], self.n)] = np.arange(1, self.N + 1)
            self._pos = pos
        return self._pos

    def swap(self, pos):
        """The order with the pairs at 1-based positions pos, pos+1 swapped."""
        if not 1 <= pos <= self.N - 1:
            raise InputError("swap position out of range")
        p = list(self.pairs)
        p[pos - 1], p[pos] = p[pos], p[pos - 1]
        return LinearOrder._trusted(self.n, tuple(p))

    def __eq__(self, other):
        return (
            isinstance(other, LinearOrder)
            and self.n == other.n
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"LinearOrder(n={self.n}, pairs={self.pairs})"

    def to_csv(self):
        lines = ["position,i,j"]
        lines.extend(f"{k},{i},{j}" for k, (i, j) in enumerate(self.pairs, start=1))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        pos, i, j = csv_triples(text, "position,i,j").T
        # one ranked list of rows: each position 1..N must appear exactly once
        at = rank_matrix(np.zeros_like(pos), pos, np.arange(pos.size))[0]
        n = int(max(i.max(), j.max())) + 1
        return cls(n, zip(i[at].tolist(), j[at].tolist()))


# ---------------------------------------------------------------------------
# The induced ranking system and its concordancy certificate

def _consecutive_arcs(table):
    """Distinct arcs p -> q, for pair p immediately below pair q in some item's
    order, as sorted keys p * N + q over lexicographic pair indices."""
    n = table.n
    P = pair_index(np.arange(n, dtype=np.int64)[:, None], table.order.astype(np.int64), n)
    return unique_keys((P[:, :-1] * n_pairs(n) + P[:, 1:]).ravel())


def _arc_graph(keys, N):
    """CSR adjacency of N pair nodes with the arcs of the sorted keys p * N + q."""
    from scipy.sparse import csr_matrix

    src, dst = np.divmod(keys, N)
    indptr = np.searchsorted(src, np.arange(N + 1))
    return csr_matrix((np.ones(keys.size, dtype=np.int8), dst, indptr), shape=(N, N))


def _arc_pairs(keys, n):
    """The arcs of the sorted keys p * N + q as pair tuples, in key order."""
    pairs = all_pairs(n)
    src, dst = np.divmod(keys, len(pairs))
    return [(pairs[p], pairs[q]) for p, q in zip(src.tolist(), dst.tolist())]


def _check_table(table):
    """(arc keys, None) when the consecutive-relation digraph is acyclic,
    else (None, explicit cycle of pairs)."""
    from scipy.sparse import csgraph

    n = table.n
    N = n_pairs(n)
    keys = _consecutive_arcs(table)
    count, labels = csgraph.connected_components(
        _arc_graph(keys, N), directed=True, connection="strong"
    )
    if count == N:
        return keys, None
    # every node of a strong component with two or more nodes has a
    # predecessor inside it, so walking predecessors must revisit a node
    start = int(np.flatnonzero(np.bincount(labels)[labels] > 1)[0])
    src, dst = np.divmod(keys, N)
    inside = (labels[src] == labels[start]) & (labels[dst] == labels[start])
    pred = np.full(N, -1)
    pred[dst[inside]] = src[inside]
    seen = {}
    walk = []
    p = start
    while p not in seen:
        seen[p] = len(walk)
        walk.append(p)
        p = int(pred[p])
    return None, [pair_unrank(p, n) for p in reversed(walk[seen[p] :])]


class Crs:
    """A ranking system plus concordancy evidence.

    The certificate is either the order-type DAG (the consecutive-relation
    digraph on pairs, whose reachability is the minimal partial order
    extending every per-item order) or an explicit directed cycle of pairs
    witnessing that no such partial order exists.  Evidence is computed
    lazily on first access; the DAG is held as sorted arc keys p * N + q
    over lexicographic pair indices.
    """

    def __init__(self, table):
        self.table = table

    @functools.cached_property
    def _evidence(self):
        return _check_table(self.table)

    @functools.cached_property
    def _graph(self):
        return _arc_graph(self._evidence[0], n_pairs(self.n))

    @property
    def n(self):
        return self.table.n

    @property
    def is_concordant(self):
        return self._evidence[1] is None

    @functools.cached_property
    def dag_arcs(self):
        keys = self._evidence[0]
        return None if keys is None else set(_arc_pairs(keys, self.n))

    @property
    def cycle(self):
        return self._evidence[1]

    def order_leq(self, p, q):
        """True iff p precedes-or-equals q in the order type (reachability)."""
        from scipy.sparse import csgraph

        if not self.is_concordant:
            raise NotConcordantError("order type undefined for a cyclic system", self.cycle)
        a, b = pair_index(*p, self.n), pair_index(*q, self.n)
        if a == b:
            return True
        reach = csgraph.breadth_first_order(self._graph, a, return_predecessors=False)
        return bool((reach == b).any())

    def certificate_json(self):
        import json

        if self.is_concordant:
            arcs = _arc_pairs(self._evidence[0], self.n)
            cert = {"type": "dag", "arcs": [[list(p), list(q)] for p, q in arcs]}
        else:
            cert = {"type": "cycle", "pairs": [list(p) for p in self.cycle]}
        return json.dumps(cert, sort_keys=True)


def phi(order):
    """The ranking system induced by restricting the pair order per item.

    Concordant by construction: the input order itself extends every
    per-item restriction.
    """
    n = order.n
    pos = order.positions_array().astype(np.float64)
    P = np.empty((n, n))
    iu = np.triu_indices(n, 1)
    P[iu] = pos
    P.T[iu] = pos
    np.fill_diagonal(P, np.inf)
    rows = np.argsort(P, axis=1)[:, : n - 1]
    return Crs(RankTable(rows))


def concordancy_check(table):
    """Certify a ranking system: order-type DAG or explicit cycle witness."""
    crs = Crs(table)
    crs.is_concordant  # run the check now rather than on first use
    return crs


def generic_crs(n, seed):
    """phi of a uniformly random linear order on the pairs of [n]."""
    if n < 2:
        raise InputError("need at least two items")
    rng = np.random.default_rng(seed)
    pairs = all_pairs(n)
    order = LinearOrder._trusted(n, tuple(pairs[i] for i in rng.permutation(len(pairs))))
    return phi(order)


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
        c = self.coords
        return np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)

    def to_csv(self):
        header = "item," + ",".join(f"{i}-{j}" for i, j in self.column_pairs)
        lines = [header]
        for x in range(self.n):
            lines.append(str(x) + "," + ",".join(repr(float(v)) for v in self.coords[x]))
        return "\n".join(lines) + "\n"


def _linear_extension(crs, seed):
    """Seed-keyed topological order of the pairs under the order-type DAG."""
    import heapq

    n = crs.n
    pairs = all_pairs(n)
    rng = np.random.default_rng(seed)
    priority = rng.permutation(len(pairs)).tolist()
    graph = crs._graph
    indptr, succ = graph.indptr.tolist(), graph.indices.tolist()
    indeg = np.bincount(graph.indices, minlength=len(pairs)).tolist()
    heap = [(priority[p], p) for p, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, p = heapq.heappop(heap)
        out.append(pairs[p])
        for q in succ[indptr[p] : indptr[p + 1]]:
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(heap, (priority[q], q))
    return LinearOrder(n, out)


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
        src, dst = np.divmod(crs._evidence[0], extension.N)
        pos = extension.positions_array()
        bad = np.flatnonzero(pos[src] > pos[dst])
        if bad.size:
            p, q = pair_unrank(int(src[bad[0]]), n), pair_unrank(int(dst[bad[0]]), n)
            raise InputError(f"supplied order does not extend the order type at {p} -> {q}")
    N = extension.N
    coords = np.zeros((n, N))
    for col, (i, j) in enumerate(extension.pairs):
        value = 1.0 + (col + 1) / N
        coords[i, col] = value
        coords[j, col] = -value
    coords.setflags(write=False)
    return EmbeddingMatrix(coords, extension.pairs)


def verify_embedding(crs, emb):
    """True iff sup-norm rankings of the embedding equal the system's table."""
    n = crs.n
    if emb.coords.shape[0] != n:
        raise InputError("embedding row count must match the system")
    D = emb.distances()
    for x in range(n):
        along = D[x, crs.table.order[x]]
        if not (np.diff(along) > 0).all():
            return False
    return True


# ---------------------------------------------------------------------------
# The white graph of adjacent transpositions

def swap_is_white(order, pos):
    """True iff swapping positions pos, pos+1 leaves the induced system alone.

    That happens exactly when the two pairs are disjoint.
    """
    if not 1 <= pos <= order.N - 1:
        raise InputError(f"position must lie in [1, {order.N - 1}]")
    a = order.pairs[pos - 1]
    b = order.pairs[pos]
    return not (set(a) & set(b))


def is_isolated(order):
    """True iff every adjacent transposition changes the induced system."""
    return not any(swap_is_white(order, pos) for pos in range(1, order.N))


@dataclass
class WhiteComponent:
    orders: list
    complete: bool

    def __len__(self):
        return len(self.orders)


def white_component(order, cap=20000):
    """BFS over white edges from an order.

    Stops expanding once ``cap`` orders have been collected and flags the
    result as partial; every member maps to the same system under phi.
    """
    if cap < 1:
        raise InputError("cap must be positive")
    n, N = order.n, order.N
    start = order.pairs
    seen = {start}
    queue = deque([start])
    complete = True
    while queue:
        if len(seen) >= cap:
            complete = False
            break
        cur = queue.popleft()
        for pos in range(N - 1):
            a, b = cur[pos], cur[pos + 1]
            if a[0] in b or a[1] in b:
                continue
            nxt = cur[:pos] + (b, a) + cur[pos + 2 :]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if len(seen) >= cap:
                    break
    orders = [LinearOrder._trusted(n, p) for p in seen]
    return WhiteComponent(orders=orders, complete=complete)


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


def powers_of_two_blocks(n):
    """0-based half-open column ranges freely permutable without losing isolation.

    Group j (pairs whose larger exponent is j) occupies positions
    [j(j-1)/2, j(j+1)/2); the block drops the group's first pair.  Block
    sizes are 1, 2, ..., n-2.
    """
    blocks = []
    for j in range(2, n):
        start = j * (j - 1) // 2
        blocks.append((start + 1, start + j))
    return blocks


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


def baranyai_matchings(n):
    """The n-1 perfect matchings underlying ``baranyai_order``."""
    order = baranyai_order(n)
    size = n // 2
    return [list(order.pairs[r * size : (r + 1) * size]) for r in range(n - 1)]


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
    pairs = np.array(all_pairs(n))
    orders = rng.random((samples, N)).argsort(axis=1)
    pos = rng.integers(0, N - 1, size=samples)
    rows = np.arange(samples)
    a = pairs[orders[rows, pos]]
    b = pairs[orders[rows, pos + 1]]
    disjoint = (
        (a[:, 0] != b[:, 0])
        & (a[:, 0] != b[:, 1])
        & (a[:, 1] != b[:, 0])
        & (a[:, 1] != b[:, 1])
    )
    return exact, float(disjoint.mean())


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


def _phi_key(perm, inc, oth):
    """Hashable rank-table key of phi for a permutation of pair indices."""
    pos = [0] * len(perm)
    for p, pr in enumerate(perm):
        pos[pr] = p
    return tuple(
        tuple(y for _, y in sorted((pos[k], y) for k, y in zip(inc_x, oth_x)))
        for inc_x, oth_x in zip(inc, oth)
    )


def enumerate_small(n):
    """Exhaustive census of all N! pair orders for n <= 5.

    For n <= 4 the white graph is traversed exhaustively and component
    classes are verified to coincide with phi fibers.  For n = 5 the 10!
    orders are classed by phi fiber (the coincidence having been exhaustively
    verified at the smaller sizes) and white edges are counted exactly per
    order; a full 10!-vertex traversal is not attempted.
    """
    if n > 5:
        raise ResourceLimitError(
            f"enumerate_small refuses n={n}: (n(n-1)/2)! linear orders explode"
        )
    if n < 2:
        raise InputError("need n >= 2")
    N = n_pairs(n)
    pairs = all_pairs(n)
    inc = [[k for k, p in enumerate(pairs) if x in p] for x in range(n)]
    oth = [[p[0] if p[1] == x else p[1] for p in (pairs[k] for k in inc[x])] for x in range(n)]
    disjoint = [
        [not (set(pairs[a]) & set(pairs[b])) for b in range(N)] for a in range(N)
    ]

    num_orders = factorial(N)
    fiber_sizes = Counter()
    keys_by_perm = {} if n <= 4 else None
    white_edges2 = 0  # each white edge seen from both endpoints
    for perm in itertools.permutations(range(N)):
        key = _phi_key(perm, inc, oth)
        fiber_sizes[key] += 1
        for t in range(N - 1):
            if disjoint[perm[t]][perm[t + 1]]:
                white_edges2 += 1
        if keys_by_perm is not None:
            keys_by_perm[perm] = key
    white_edges = white_edges2 // 2
    adjacent_slots = num_orders * (N - 1) // 2

    components_equal_fibers = None
    component_sizes = Counter(fiber_sizes.values())
    if n <= 4:
        # exhaustive white BFS; components must match fibers exactly
        unvisited = set(keys_by_perm)
        comp_sizes = Counter()
        components_equal_fibers = True
        while unvisited:
            start = next(iter(unvisited))
            comp = {start}
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for t in range(N - 1):
                    if disjoint[cur[t]][cur[t + 1]]:
                        nxt = cur[:t] + (cur[t + 1], cur[t]) + cur[t + 2 :]
                        if nxt not in comp:
                            comp.add(nxt)
                            queue.append(nxt)
            unvisited -= comp
            comp_sizes[len(comp)] += 1
            keys = {keys_by_perm[p] for p in comp}
            if len(keys) != 1 or fiber_sizes[next(iter(keys))] != len(comp):
                components_equal_fibers = False
        component_sizes = comp_sizes

    # every distinct image must certify concordant
    all_concordant = True
    for key in fiber_sizes:
        table = RankTable(np.array(key))
        if not concordancy_check(table).is_concordant:
            all_concordant = False
            break

    return SmallCensus(
        n=n,
        num_orders=num_orders,
        num_systems=len(fiber_sizes),
        component_sizes=dict(component_sizes),
        white_edges=white_edges,
        adjacent_slots=adjacent_slots,
        white_fraction_exact=Fraction(comb(n - 2, 2), comb(n, 2) - 1) if n >= 3 else Fraction(0),
        all_concordant=all_concordant,
        components_equal_fibers=components_equal_fibers,
        ratio_lower=Fraction(factorial(N), factorial(n - 1) ** n),
        ratio_upper=Fraction(
            factorial(N), int(np.prod([factorial(k) for k in range(1, n - 1)], dtype=object))
        ),
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
