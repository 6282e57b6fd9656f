"""Example similarity spaces and point processes.

Generators for the star-path ("Paris") points, uniform circle samples,
powers of two on the line, random strings under the longest-common-substring
distance, the flat torus with the sup-norm metric, and uniformly random
ranking systems.  Every space is immutable once sampled.  Each space but the
torus can be turned into an exact rank table, and each metric space among
them defines its distance once, as the whole matrix its rank table sorts;
the torus is searched by range query instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .descent import random_kout
from .errors import InputError
from .ranking import RankTable, ranking_from_distance_matrix


# ---------------------------------------------------------------------------
# Paris (star path) metric

@dataclass(frozen=True)
class ParisSpace:
    """Leaves of an edge-weighted star; d(x_i, x_j) = eta_i + eta_j."""

    etas: tuple

    @property
    def n(self):
        return len(self.etas)


def paris_space(etas):
    etas = tuple(float(e) for e in etas)
    if len(etas) < 2:
        raise InputError("need at least two leaves")
    if etas[0] <= 0 or any(a >= b for a, b in zip(etas, etas[1:])):
        raise InputError("etas must be strictly increasing and positive")
    return ParisSpace(etas)


def paris_distance_matrix(space):
    e = np.asarray(space.etas)
    d = e[:, None] + e[None, :]
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------------------
# Random points on a circle

@dataclass(frozen=True)
class CircleSpace:
    """Points on the unit circle under arc-length (path) distance."""

    angles: tuple

    @property
    def n(self):
        return len(self.angles)


def circle_sample(n, seed):
    """Sample round(n) points i.i.d. uniform on [0, 2*pi)."""
    if n < 1:
        raise InputError("n must be at least 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2 * np.pi, size=int(round(n)))
    return CircleSpace(tuple(angles.tolist()))


def circle_distance_matrix(space):
    a = np.asarray(space.angles)
    delta = np.abs(a[:, None] - a[None, :])
    return np.minimum(delta, 2 * np.pi - delta)


# ---------------------------------------------------------------------------
# Powers of two on the real line

@dataclass(frozen=True)
class PowersOfTwoSpace:
    """The first n nonnegative powers of 2 with |.| distance."""

    n: int

    @property
    def values(self):
        return [2 ** i for i in range(self.n)]


def powers_of_two_space(n):
    if n < 2:
        raise InputError("need at least two points")
    if n > 52:
        # beyond 2**52 the float distance matrix loses exactness
        raise InputError("powers-of-two space is capped at n = 52")
    return PowersOfTwoSpace(int(n))


def powers_of_two_distance_matrix(space):
    v = np.array(space.values, dtype=np.float64)
    return np.abs(v[:, None] - v[None, :])


# ---------------------------------------------------------------------------
# Longest common substring over random strings

@dataclass(frozen=True)
class LcsSpace:
    """Random length-m strings ranked by longest common substring.

    ``mu`` is the character distribution over ``alphabet``.
    """

    m: int
    alphabet: str
    mu: tuple
    strings: tuple

    @property
    def n(self):
        return len(self.strings)


def lcs_sample(n, m, seed):
    """Sample n independent strings of length m, characters i.i.d. uniform over "acgt"."""
    if n < 2 or m < 1:
        raise InputError("need n >= 2 strings of length m >= 1")
    alphabet, mu = "acgt", (0.25,) * 4
    # choice draws differently with p given, so p stays: the strings keep their bytes
    idx = np.random.default_rng(seed).choice(len(alphabet), size=(n, m), p=mu)
    strings = tuple("".join(alphabet[i] for i in row) for row in idx)
    return LcsSpace(int(m), alphabet, mu, strings)


def longest_common_substring(a, b):
    """(length, start_a, start_b) of the longest common substring.

    When several substrings tie for the maximum length, ``start_a`` is the
    smallest start index of one in ``a`` and ``start_b`` the smallest start
    index of one in ``b`` (tracked independently).  Zero length reports
    starts of -1.
    """
    if len(a) == 0 or len(b) == 0:
        return 0, -1, -1
    B = np.array(list(b))
    prev = np.zeros(len(b) + 1, dtype=np.int32)
    cur = np.zeros(len(b) + 1, dtype=np.int32)
    best = 0
    best_end_a = -1
    best_end_b = -1
    for i, ch in enumerate(a):
        cur[:] = 0
        eq = B == ch
        cur[1:][eq] = prev[:-1][eq] + 1
        row_max = int(cur.max())
        if row_max > best:
            best = row_max
            best_end_a = i
            best_end_b = int(np.flatnonzero(cur[1:] == best)[0])
        elif best and row_max == best:
            j = int(np.flatnonzero(cur[1:] == best)[0])
            if j < best_end_b:
                best_end_b = j
        prev, cur = cur, prev
    if best == 0:
        return 0, -1, -1
    return best, best_end_a - best + 1, best_end_b - best + 1


def lcs_distance(space, a, b):
    """(rho, tiekey) between strings a and b of the space (item indices).

    rho = 1 - M/m for M the longest-common-substring length.  The tie key is
    the negated log probability of the canonical longest shared substring
    (smallest start in the first argument), so that rarer shared substrings
    sort farther: sorting ascending by (rho, tiekey) ranks
    higher-probability-product matches nearer.  Residual ties are the
    ranking layer's job (broken by item id there).
    """
    if a == b:
        raise InputError("distance is undefined for a == b")
    if len(space.strings[a]) != len(space.strings[b]):
        raise InputError("strings must have equal length")
    rho, tiekey, _ = _lcs_keys(space, a, b)
    return rho, tiekey


def _lcs_keys(space, a, b):
    """(rho, a's tie key, b's tie key) for strings a and b of the space.

    Each tie key is the negated log probability of the longest shared
    substring at its earliest start in that string (0.0 when none is shared).
    """
    sa, sb = space.strings[a], space.strings[b]
    length, start_a, start_b = longest_common_substring(sa, sb)
    logp = {c: math.log(q) for c, q in zip(space.alphabet, space.mu)}

    def tiekey(s, start):
        return -sum(logp[c] for c in s[start : start + length]) if length else 0.0

    return 1.0 - length / space.m, tiekey(sa, start_a), tiekey(sb, start_b)


def lcs_qk(m, n, K, p):
    """Typical longest-common-substring lengths at the K-NN frontier.

    Returns (q_K, q_1), un-rounded:

        q_K = (2 log m + log((1 - p) n / K)) / (-log p)

    and q_1 is the same with K replaced by 1.
    """
    if not 0 < p < 1:
        raise InputError("p must lie in (0, 1)")
    if not 1 <= K < n:
        raise InputError("need 1 <= K < n")
    if m < 2:
        raise InputError("need m >= 2")
    denom = -math.log(p)
    q_K = (2 * math.log(m) + math.log((1 - p) * n / K)) / denom
    q_1 = (2 * math.log(m) + math.log((1 - p) * n)) / denom
    return q_K, q_1


def lcs_rank_table(space):
    """Exact rank table under (rho, tiekey, item id) lexicographic keys."""
    n = space.n
    rho = np.zeros((n, n))
    tiekey = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            rho[i, j], tiekey[i, j], tiekey[j, i] = _lcs_keys(space, i, j)
            rho[j, i] = rho[i, j]
    np.fill_diagonal(rho, np.inf)
    ids = np.broadcast_to(np.arange(n), (n, n))
    order = np.lexsort((ids, tiekey, rho), axis=1)[:, : n - 1]
    return RankTable(order)


# ---------------------------------------------------------------------------
# Flat torus with the sup-norm metric

@dataclass(frozen=True)
class TorusSpace:
    """Points on the d-torus [-1, 1)^d under the wrapped sup-norm.

    Total volume is 2**d; a ball of radius r < 1 has volume (2r)**d, so the
    volume-ratio function is h(r) = r**d and the diameter is 1.
    """

    d: int
    points: np.ndarray

    @property
    def n(self):
        return self.points.shape[0]


def torus_poisson(n_mean, d, seed):
    """Poisson(n_mean) many i.i.d. uniform points on the d-torus."""
    if n_mean < 1 or d < 1:
        raise InputError("need n_mean >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n_mean))
    points = rng.uniform(-1.0, 1.0, size=(count, d))
    points.setflags(write=False)
    return TorusSpace(int(d), points)


def wrapped_deltas(diff):
    """Per-coordinate wrapped distances for raw coordinate differences."""
    delta = np.abs(diff)
    return np.minimum(delta, 2.0 - delta)


def wrapped_distance(u, v):
    """Wrapped sup-norm distance between coordinate arrays ``u`` and ``v``.

    Coordinates run along the last axis and the two arrays broadcast.  The
    coordinates are folded one at a time with ``np.maximum``, which is exact
    like ``wrapped_deltas(u - v).max(axis=-1)``, so every distance is
    bit-identical, but each pass runs over one whole coordinate.  It is
    fastest when each ``u[..., k]`` is contiguous, as in the transpose of a
    (d, N) array.
    """
    dist = None
    for k in range(np.shape(u)[-1]):
        t = np.asarray(u[..., k] - v[..., k])
        np.abs(t, out=t)
        np.minimum(t, 2.0 - t, out=t)
        dist = t if dist is None else np.maximum(dist, t, out=dist)
    return dist


# ---------------------------------------------------------------------------
# Uniformly random ranking systems (no metric at all)

def random_ranking_table(n, seed):
    """Each item's ranking an independent uniform permutation of the rest."""
    if n < 2:
        raise InputError("need at least two items")
    return RankTable(random_kout(n, n - 1, seed))


# ---------------------------------------------------------------------------
# Rank tables

def rank_table(space):
    """Exact rank table for the Paris, circle, powers-of-two and LCS spaces."""
    if isinstance(space, ParisSpace):
        return ranking_from_distance_matrix(paris_distance_matrix(space))
    if isinstance(space, CircleSpace):
        return ranking_from_distance_matrix(circle_distance_matrix(space))
    if isinstance(space, PowersOfTwoSpace):
        return ranking_from_distance_matrix(powers_of_two_distance_matrix(space))
    if isinstance(space, LcsSpace):
        return lcs_rank_table(space)
    raise InputError(f"no rank table builder for {type(space).__name__}")
