"""K-nearest-neighbor descent.

The engine keeps a K-out friend digraph, randomly initialised, and improves
it by letting points exchange friend lists: a point keeps the K candidates
it prefers among its friends and their friends (and, in batch mode, its
cofriends and their friends).  Two update disciplines are provided:
simultaneous batch rounds, a pure function of the previous state, and
scheduled pointwise passes where updates are visible immediately.  A step
returns the new state and the number of points whose friend set changed.

Every step works on whole arrays, as the local join of NN-descent does over
fixed-width rows: each owner's candidates form one row, which the owner pads
where it is short, and one batched ``RankingOracle.top_k`` drops the owner
and repeats from every row and selects.  A pointwise pass is defined by its
visit order and computed by dependency level: the level of a point is the
longest chain of earlier-visited friends ending at it, and each level is
updated in one batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .ranking import BAD_SEED, KnnGraph, checked_count, checked_ids, key_dtype, key_rows, seeded

__all__ = [
    "FriendState",
    "random_kout",
    "batch_round",
    "pointwise_pass",
    "default_budget",
    "run_nnd",
    "NndResult",
    "run_report",
]


class FriendState:
    """Friend matrix F (n x K int32 ids in [0, n), 1 <= K < n)."""

    def __init__(self, friends):
        friends = np.asarray(friends)
        n, k = friends.shape if friends.ndim == 2 else (0, 0)
        if not 1 <= k < n:
            raise InputError(f"friends must be (n, K) with 1 <= K < n, got shape {friends.shape}")
        self.friends = checked_ids(friends, n, "friends out of range").astype(np.int32, copy=False)

    @property
    def n(self):
        return self.friends.shape[0]

    @property
    def k(self):
        return self.friends.shape[1]

    def set_friends(self, x, new):
        """Replace F(x); with an array of points, each row of ``new`` in turn."""
        self.friends[x] = new

    def to_graph(self):
        return KnnGraph(self.friends)


def random_kout(n, K, seed_or_rng):
    """Uniform random K-out matrix: each row an independent K-subset."""
    bad = f"need 1 <= K < n, got K={K}, n={n}"
    n = checked_count(n, 2, bad)
    K = checked_count(K, 1, bad, high=n - 1)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else seeded(seed_or_rng)
    if K > (n - 1) // 2:
        # dense rows: rejection would thrash, use per-row permutations
        keys = rng.random((n, n))
        np.fill_diagonal(keys, np.inf)
        return np.argsort(keys, axis=1)[:, :K].astype(np.int32)
    F = rng.integers(0, n - 1, size=(n, K))
    F += F >= np.arange(n)[:, None]
    while True:
        srt = np.sort(F, axis=1)
        bad = np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1))
        if bad.size == 0:
            break
        Fb = rng.integers(0, n - 1, size=(bad.size, K))
        Fb += Fb >= bad[:, None]
        F[bad] = Fb
    return F.astype(np.int32)


_OTHER_ORACLE = "oracle item count does not match n"

# Candidates one batch round hands ``top_k`` per chunk of owners, so memory
# stays bounded at large n; a chunk holds at least one owner.
_CHUNK_KEYS = 1 << 20


def _cofriends(F):
    """The transpose of F as CSR ``(indptr, cof)``: the cofriends of x, ascending,
    are ``cof[indptr[x]:indptr[x + 1]]``, read off the sorted keys friend*n + owner."""
    n = len(F)
    dtype = key_dtype(n)
    keys = np.sort((F.astype(dtype) * n + np.arange(n, dtype=dtype)[:, None]).ravel())
    return key_rows(keys, n, n), (keys % n).astype(np.int32, copy=False)


def _changed(new, old):
    """The number of rows whose friend sets differ."""
    return int((np.sort(new, axis=1) != np.sort(old, axis=1)).any(axis=1).sum())


def batch_round(state, oracle):
    """One simultaneous round: every point re-selects from the old snapshot.

    Candidates for x are its friends and their friends, its cofriends and
    their friends.  The result is a pure function of the previous state, so
    it cannot depend on any processing order.  Owners are grouped by the bit
    length j of their in-degree, and each cofriend row is padded to 2^j - 1
    with the owner, so a class's rows share one width: the padding and its
    friends drop out of the selection as the owner and repeats.
    """
    if oracle.n != state.n:
        raise InputError(_OTHER_ORACLE)
    F = state.friends
    k = F.shape[1]
    indptr, cof = _cofriends(F)
    indeg = np.diff(indptr)
    bits = np.frexp(indeg)[1]
    new_F = np.empty_like(F)
    for j in range(int(bits.max()) + 1):
        owners = np.flatnonzero(bits == j)
        slots = np.arange(2**j - 1)
        step = max(1, _CHUNK_KEYS // ((k + slots.size) * (k + 1)))
        for a in range(0, owners.size, step):
            x = owners[a : a + step]
            at = indptr[x, None] + slots
            c = np.where(slots < indeg[x, None], cof.take(at, mode="clip"), x[:, None])
            mine = np.concatenate([F[x], c], axis=1)
            rows = np.concatenate([mine, F[mine].reshape(x.size, -1)], axis=1)
            new_F[x] = oracle.top_k(x, rows, k)
    return FriendState(new_F), _changed(new_F, F)


def pointwise_pass(state, schedule, oracle):
    """One scheduled pass: visit points in order, updates visible at once.

    Each visited x replaces F(x) by its top K among F(x) and the current
    friend lists of its friends.  The pass is defined by visit order and
    computed by dependency level: the level of x is the longest chain of
    earlier-visited friends that ends at x, and each level is updated in one
    batch, reading the new F(y) of an earlier friend and the pass-start F(y)
    of a later one.  The result equals the visit-order loop.
    """
    if oracle.n != state.n:
        raise InputError(_OTHER_ORACLE)
    bad = "schedule must be a permutation of the point ids"
    schedule = checked_ids(schedule, state.n, bad)
    if not np.array_equal(np.sort(schedule), np.arange(state.n)):
        raise InputError(bad)
    F0 = state.friends
    n, k = F0.shape
    # rows n.. of both are the pass's friend lists, written in place; rows ..n stay F0
    both = np.concatenate([F0, F0])
    new_state = FriendState(both[n:])
    pos = np.empty(n, dtype=np.int64)
    pos[schedule] = np.arange(n)
    earlier = pos[F0] < pos[:, None]
    # x's pool is the rows of both at reads[x]: F0(x), then each friend's, new for an earlier one
    reads = np.concatenate([np.arange(n)[:, None], np.where(earlier, F0 + n, F0)], axis=1)
    # x's earlier friends, or n, a slot whose level stays -1, copied to (k, n) for the max
    up = np.where(earlier, F0, n).T.copy()
    level = np.append(np.zeros(n, dtype=np.int64), -1)
    # levels only grow from 0, so they are settled once their sum stops growing
    total, settled = 0, -1
    while total != settled:
        settled, total = total, int(np.add(level[up].max(axis=0), 1, out=level[:n]).sum())
    by_level = np.argsort(level[:n], kind="stable")
    reads = reads[by_level]
    ends = np.cumsum(np.bincount(level[:n])).tolist()
    for a, b in zip([0] + ends, ends):
        x = by_level[a:b]
        new_state.set_friends(x, oracle.top_k(x, both[reads[a:b]].reshape(b - a, -1), k))
    return new_state, _changed(new_state.friends, F0)


def default_budget(n, K):
    """Hard round budget ceil(2 log_K n)."""
    n = checked_count(n, 1, f"the default round budget 2 log_K n needs n >= 1, got n={n}")
    K = checked_count(K, 2, f"the default round budget 2 log_K n needs K >= 2, got K={K}; "
                      "give the budget explicitly (--rounds)")
    return max(1, math.ceil(2 * math.log(n) / math.log(K)))


@dataclass
class NndResult:
    """A descent run: its graph, oracle charge and per-round change counts;
    ``rounds`` is derived from ``round_changes``."""

    graph: KnnGraph
    comparisons: int
    round_changes: list
    mode: str
    seed: int
    stop: str
    recall: float | None = field(default=None)

    @property
    def rounds(self):
        return len(self.round_changes)


def run_nnd(oracle, n, K, mode="batch", seed=0, max_rounds=None, stop="no_change"):
    """Run descent to convergence or budget; returns the final graph.

    ``stop="no_change"`` ends as soon as a full round leaves every friend
    set unchanged (still capped by the budget); ``stop="budget"`` always
    runs the full budget.  The default budget is ceil(2 log_K n).  The
    triple (seed, mode, schedule) fully determines the output.
    """
    if mode not in ("batch", "pointwise"):
        raise InputError(f"unknown mode {mode!r}")
    if stop not in ("no_change", "budget"):
        raise InputError(f"unknown stop rule {stop!r}")
    n = checked_count(n, oracle.n, _OTHER_ORACLE, high=oracle.n)
    K = checked_count(K, 1, f"need 1 <= K < n, got K={K}, n={n}", high=n - 1)
    budget = (default_budget(n, K) if max_rounds is None
              else checked_count(max_rounds, 1, "round budget must be positive"))
    rng = seeded(seed)
    state = FriendState(random_kout(n, K, rng))
    schedule = rng.permutation(n) if mode == "pointwise" else None
    before = oracle.comparisons
    changes = []
    for _ in range(budget):
        if mode == "batch":
            state, changed = batch_round(state, oracle)
        else:
            state, changed = pointwise_pass(state, schedule, oracle)
        changes.append(changed)
        if stop == "no_change" and changed == 0:
            break
    return NndResult(
        graph=state.to_graph(),
        comparisons=oracle.comparisons - before,
        round_changes=changes,
        mode=mode,
        seed=checked_count(seed, 0, BAD_SEED, high=math.inf),
        stop=stop,
    )


def run_report(result):
    """JSON-ready run report."""
    report = {
        "mode": result.mode,
        "n": result.graph.n,
        "K": result.graph.k,
        "seed": result.seed,
        "stop": result.stop,
        "rounds": result.rounds,
        "comparisons": result.comparisons,
        "round_changes": list(result.round_changes),
    }
    if result.recall is not None:
        report["recall"] = result.recall
    return report
