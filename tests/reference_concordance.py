"""Reference concordancy certificate: the tuple-and-dict implementation.

``_consecutive_arcs``, ``_check_table``, ``Crs`` (certificate part) and
``_linear_extension`` as they stood before the certificate moved to integer
pair indices, copied verbatim.  ``tests/test_concordance_reference.py``
compares ``nndlab.concordance`` with them.
"""

from collections import deque

import numpy as np

from nndlab.concordance import LinearOrder, all_pairs
from nndlab.errors import NotConcordantError


def _consecutive_arcs(table):
    """Deduplicated arcs p -> q for p immediately below q in some item's order."""
    n = table.n
    arcs = set()
    for x in range(n):
        seq = [(min(x, int(y)), max(x, int(y))) for y in table.order[x]]
        arcs.update(zip(seq, seq[1:]))
    return arcs


def _check_table(table):
    """(dag_arcs, None) when the consecutive-relation digraph is acyclic,
    else (None, explicit_cycle)."""
    arcs = _consecutive_arcs(table)
    nodes = all_pairs(table.n)
    succ = {p: [] for p in nodes}
    indeg = {p: 0 for p in nodes}
    for p, q in arcs:
        succ[p].append(q)
        indeg[q] += 1
    queue = deque(p for p in nodes if indeg[p] == 0)
    removed = 0
    while queue:
        p = queue.popleft()
        removed += 1
        for q in succ[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                queue.append(q)
    if removed == len(nodes):
        return arcs, None
    # survivors all keep an in-arc from another survivor, so walking
    # predecessors backwards must revisit a node; that loop is the cycle
    remaining = {p for p in nodes if indeg[p] > 0}
    pred = {q: [] for q in remaining}
    for p, q in arcs:
        if p in remaining and q in remaining:
            pred[q].append(p)
    seen = {}
    walk = []
    p = next(iter(remaining))
    while p not in seen:
        seen[p] = len(walk)
        walk.append(p)
        p = pred[p][0]
    cycle = list(reversed(walk[seen[p] :]))
    return None, cycle


class Crs:
    """A ranking system plus concordancy evidence.

    The certificate is either the order-type DAG (the consecutive-relation
    digraph on pairs, whose reachability is the minimal partial order
    extending every per-item order) or an explicit directed cycle of pairs
    witnessing that no such partial order exists.  Evidence is computed
    lazily on first access.
    """

    def __init__(self, table, dag_arcs=None, cycle=None):
        self.table = table
        self._dag_arcs = set(dag_arcs) if dag_arcs is not None else None
        self._cycle = list(cycle) if cycle is not None else None
        self._checked = dag_arcs is not None or cycle is not None
        self._succ = None

    def _ensure(self):
        if not self._checked:
            self._dag_arcs, self._cycle = _check_table(self.table)
            self._checked = True

    @property
    def n(self):
        return self.table.n

    @property
    def is_concordant(self):
        self._ensure()
        return self._cycle is None

    @property
    def dag_arcs(self):
        self._ensure()
        return self._dag_arcs

    @property
    def cycle(self):
        self._ensure()
        return self._cycle

    def order_leq(self, p, q):
        """True iff p precedes-or-equals q in the order type (reachability)."""
        if not self.is_concordant:
            raise NotConcordantError("order type undefined for a cyclic system", self.cycle)
        p = (min(p), max(p))
        q = (min(q), max(q))
        if p == q:
            return True
        if self._succ is None:
            succ = {}
            for a, b in self._dag_arcs:
                succ.setdefault(a, []).append(b)
            self._succ = succ
        frontier = [p]
        seen = {p}
        while frontier:
            nxt = []
            for a in frontier:
                for b in self._succ.get(a, ()):
                    if b == q:
                        return True
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return False


def _linear_extension(crs, seed):
    """Seed-keyed topological order of the pairs under the order-type DAG."""
    import heapq

    n = crs.n
    pairs = all_pairs(n)
    rng = np.random.default_rng(seed)
    priority = {p: int(k) for p, k in zip(pairs, rng.permutation(len(pairs)))}
    succ = {p: [] for p in pairs}
    indeg = {p: 0 for p in pairs}
    for p, q in crs.dag_arcs:
        succ[p].append(q)
        indeg[q] += 1
    heap = [(priority[p], p) for p in pairs if indeg[p] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, p = heapq.heappop(heap)
        out.append(p)
        for q in succ[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(heap, (priority[q], q))
    return LinearOrder(n, out)


def concordancy_check(table):
    """Certify a ranking system: order-type DAG or explicit cycle witness."""
    dag, cycle = _check_table(table)
    return Crs(table, dag_arcs=dag, cycle=cycle)
