"""K-nearest-neighbor descent.

The engine keeps a K-out friend digraph, randomly initialised, and improves
it by letting points exchange friend lists: a point keeps the K candidates
it prefers among its friends and their friends (and, in batch mode, its
cofriends and their friends).  Two update disciplines are provided:
simultaneous batch rounds, a pure function of the previous state, and
scheduled pointwise passes where updates are visible immediately.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .ranking import KnnGraph, csr, unique_keys

__all__ = [
    "FriendState",
    "random_kout",
    "init_random_kout",
    "friend_barter",
    "batch_round",
    "pointwise_pass",
    "default_budget",
    "run_nnd",
    "NndResult",
    "run_report",
]


class FriendState:
    """Friend matrix F, round index, work meter."""

    def __init__(self, friends, t=0, work=0, last_changes=None):
        friends = np.asarray(friends, dtype=np.int32)
        n, k = friends.shape
        if not 1 <= k < n:
            raise InputError(f"need 1 <= K < n, got K={k}, n={n}")
        self.friends = friends
        self.t = int(t)
        self.work = int(work)
        self.last_changes = last_changes

    @property
    def n(self):
        return self.friends.shape[0]

    @property
    def k(self):
        return self.friends.shape[1]

    def set_friends(self, x, new):
        """Replace F(x)."""
        self.friends[x] = new

    def copy(self):
        return FriendState(self.friends.copy(), t=self.t, work=self.work)

    def worst_ranks(self, table):
        """Per-point max rank of the current friend set (quality measure)."""
        rows = np.arange(self.n)[:, None]
        return table.ranks[rows, self.friends].max(axis=1)

    def to_graph(self):
        return KnnGraph(self.friends.copy(), n=self.n)


def random_kout(n, K, seed_or_rng):
    """Uniform random K-out matrix: each row an independent K-subset."""
    if not 1 <= K < n:
        raise InputError(f"need 1 <= K < n, got K={K}, n={n}")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
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


def init_random_kout(n, K, seed):
    """Random K-out start state at round 0 (friend order arbitrary)."""
    return FriendState(random_kout(n, K, seed), t=0)


def _top_k(state, oracle, x, parts):
    pool = unique_keys(np.concatenate(parts))
    pool = pool[pool != x]
    return oracle.top_k(x, pool, state.k)


def friend_barter(state, x, y, oracle):
    """Reciprocal friend-list exchange between x and y.

    Both new sets are computed from the pre-barter lists, then installed.
    Returns the two new friend arrays.
    """
    if x == y:
        raise InputError("a point cannot barter with itself")
    before = oracle.comparisons
    F = state.friends
    fx, fy = F[x].copy(), F[y].copy()
    new_x = _top_k(state, oracle, x, [fx, fy])
    new_y = _top_k(state, oracle, y, [fx, fy])
    state.set_friends(x, new_x)
    state.set_friends(y, new_y)
    state.work += oracle.comparisons - before
    return new_x, new_y


def batch_round(state, oracle, include_cofriends=True):
    """One simultaneous round: every point re-selects from the old snapshot.

    Candidates for x are its friends and their friends and, when
    ``include_cofriends`` is set, its cofriends and their friends.  The
    result is a pure function of the previous state, so it cannot depend on
    any processing order.
    """
    F = state.friends
    n, k = F.shape
    before = oracle.comparisons
    if include_cofriends:
        # cofriends: the transpose of F, as CSR rows
        indptr, cof = csr(F.ravel(), np.repeat(np.arange(n, dtype=np.int32), k), n)
    new_F = np.empty_like(F)
    changes = 0
    for x in range(n):
        parts = [F[x], F[F[x]].ravel()]
        if include_cofriends:
            c = cof[indptr[x] : indptr[x + 1]]
            parts.extend([c, F[c].ravel()])
        new_F[x] = _top_k(state, oracle, x, parts)
        if not np.array_equal(np.sort(new_F[x]), np.sort(F[x])):
            changes += 1
    return FriendState(
        new_F,
        t=state.t + 1,
        work=state.work + (oracle.comparisons - before),
        last_changes=changes,
    )


def pointwise_pass(state, schedule, oracle):
    """One scheduled pass: visit points in order, updates visible at once.

    Each visited x replaces F(x) by its top K among F(x) and the current
    friend lists of its friends.  Inherently sequential.
    """
    schedule = np.asarray(schedule)
    if not np.array_equal(np.sort(schedule), np.arange(state.n)):
        raise InputError("schedule must be a permutation of the point ids")
    new_state = state.copy()
    before = oracle.comparisons
    changes = 0
    F = new_state.friends
    for x in schedule:
        new = _top_k(new_state, oracle, x, [F[x], F[F[x]].ravel()])
        if not np.array_equal(np.sort(new), np.sort(F[x])):
            changes += 1
        new_state.set_friends(x, new)
    new_state.t = state.t + 1
    new_state.work += oracle.comparisons - before
    new_state.last_changes = changes
    return new_state


def default_budget(n, K):
    """Hard round budget ceil(2 log_K n)."""
    if K < 2:
        raise InputError(
            f"the default round budget 2 log_K n needs K >= 2, got K={K}; "
            "give the budget explicitly (--rounds)"
        )
    return max(1, math.ceil(2 * math.log(n) / math.log(K)))


@dataclass
class NndResult:
    graph: KnnGraph
    rounds: int
    comparisons: int
    round_changes: list
    mode: str
    n: int
    k: int
    seed: int
    stop: str
    recall: float | None = field(default=None)


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
    if oracle.n != n:
        raise InputError("oracle item count does not match n")
    if not 1 <= K < n:
        raise InputError(f"need 1 <= K < n, got K={K}, n={n}")
    budget = default_budget(n, K) if max_rounds is None else int(max_rounds)
    if budget < 1:
        raise InputError("round budget must be positive")
    rng = np.random.default_rng(seed)
    state = FriendState(random_kout(n, K, rng), t=0)
    schedule = rng.permutation(n) if mode == "pointwise" else None
    changes = []
    rounds = 0
    for _ in range(budget):
        if mode == "batch":
            state = batch_round(state, oracle, include_cofriends=True)
        else:
            state = pointwise_pass(state, schedule, oracle)
        rounds += 1
        changes.append(state.last_changes)
        if stop == "no_change" and state.last_changes == 0:
            break
    return NndResult(
        graph=state.to_graph(),
        rounds=rounds,
        comparisons=state.work,
        round_changes=changes,
        mode=mode,
        n=n,
        k=K,
        seed=int(seed),
        stop=stop,
    )


def run_report(result):
    """JSON-ready run report."""
    report = {
        "mode": result.mode,
        "n": result.n,
        "K": result.k,
        "seed": result.seed,
        "stop": result.stop,
        "rounds": result.rounds,
        "comparisons": result.comparisons,
        "round_changes": list(result.round_changes),
    }
    if result.recall is not None:
        report["recall"] = result.recall
    return report
