"""Reference pair orders: the tuple implementation.

``LinearOrder``, ``phi``, ``generic_crs``, ``_linear_extension``,
``swap_is_white``, ``is_isolated`` and ``white_component`` as they stood
while a linear order on pairs was a tuple of pair tuples, copied verbatim.
``tests/test_linear_order_reference.py`` compares ``nndlab.concordance``
with them.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from nndlab.concordance import Crs, all_pairs, pair_index
from nndlab.errors import InputError
from nndlab.ranking import RankTable


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


def generic_crs(n, seed):
    """phi of a uniformly random linear order on the pairs of [n]."""
    if n < 2:
        raise InputError("need at least two items")
    rng = np.random.default_rng(seed)
    pairs = all_pairs(n)
    order = LinearOrder._trusted(n, tuple(pairs[i] for i in rng.permutation(len(pairs))))
    return phi(order)


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
