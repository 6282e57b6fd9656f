"""Reference copies of descent's selection as it stood before one sort of the pool's ranks.

``ReferenceOracle.top_k`` is the body of ``RankingOracle.top_k`` (from
``nndlab.ranking``); ``_top_k``, ``batch_round`` and ``pointwise_pass`` are
copied verbatim from ``nndlab.descent``.  Run them with
a ``ReferenceOracle`` so that the whole reference path selects the old way.
``tests/test_descent_reference.py`` requires equal friend matrices, changes,
selections and charges.  The cofriend transpose is
``reference_csr._cofriend_csr``, not the package's.
"""

import math

import numpy as np

from nndlab.descent import FriendState
from nndlab.errors import InputError
from nndlab.ranking import RankingOracle, unique_keys
from reference_csr import _cofriend_csr


class ReferenceOracle(RankingOracle):
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


def _top_k(state, oracle, x, parts):
    pool = unique_keys(np.concatenate(parts))
    pool = pool[pool != x]
    return oracle.top_k(x, pool, state.k)


def batch_round(state, oracle):
    """One simultaneous round: every point re-selects from the old snapshot.

    Candidates for x are its friends and their friends, its cofriends and
    their friends.  The result is a pure function of the previous state, so
    it cannot depend on any processing order.
    """
    F = state.friends
    n, k = F.shape
    # cofriends: the transpose of F, as CSR rows
    indptr, cof = _cofriend_csr(F)
    new_F = np.empty_like(F)
    changes = 0
    for x in range(n):
        c = cof[indptr[x] : indptr[x + 1]]
        parts = [F[x], F[F[x]].ravel(), c, F[c].ravel()]
        new_F[x] = _top_k(state, oracle, x, parts)
        if not np.array_equal(np.sort(new_F[x]), np.sort(F[x])):
            changes += 1
    return FriendState(new_F), changes


def pointwise_pass(state, schedule, oracle):
    """One scheduled pass: visit points in order, updates visible at once.

    Each visited x replaces F(x) by its top K among F(x) and the current
    friend lists of its friends.  Inherently sequential.
    """
    schedule = np.asarray(schedule)
    if not np.array_equal(np.sort(schedule), np.arange(state.n)):
        raise InputError("schedule must be a permutation of the point ids")
    new_state = FriendState(state.friends.copy())
    changes = 0
    F = new_state.friends
    for x in schedule:
        new = _top_k(new_state, oracle, x, [F[x], F[F[x]].ravel()])
        if not np.array_equal(np.sort(new), np.sort(F[x])):
            changes += 1
        new_state.set_friends(x, new)
    return new_state, changes
