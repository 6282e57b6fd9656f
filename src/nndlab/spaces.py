"""Example similarity spaces and point processes.

Generators for the star-path ("Paris") points, uniform circle samples,
powers of two on the line, random strings under the longest-common-substring
distance, the flat torus with the sup-norm metric, and uniformly random
ranking systems.  Every space is immutable once sampled.  Each metric space
but the torus defines its distance once, as ``space.distance(a, b)`` over
arrays of item ids that broadcast, and ``rank_table`` sorts each item's row
of those distances; the torus is searched by range query instead.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .descent import random_kout
from .errors import InputError
from .ranking import (RankTable, check_table_size, checked_count, ranking_from_distance_matrix,
                      seeded)


# ---------------------------------------------------------------------------
# Paris (star path) metric

@dataclass(frozen=True)
class ParisSpace:
    """Leaves of an edge-weighted star; d(x_i, x_j) = eta_i + eta_j."""

    etas: tuple

    @property
    def n(self):
        return len(self.etas)

    def distance(self, a, b):
        """eta_a + eta_b, and 0 where a == b."""
        e = np.asarray(self.etas)
        return np.where(a == b, 0.0, e[a] + e[b])


def paris_space(etas):
    bad = "etas must be finite, strictly increasing and positive"
    try:
        etas = tuple(float(e) for e in etas)
    except (OverflowError, TypeError, ValueError):  # past the float range, or not a number
        raise InputError(bad) from None
    if len(etas) < 2:
        raise InputError("need at least two leaves")
    # every comparison is False at a NaN
    if not (0 < etas[0] and etas[-1] < math.inf and all(a < b for a, b in zip(etas, etas[1:]))):
        raise InputError(bad)
    return ParisSpace(etas)


# ---------------------------------------------------------------------------
# Random points on a circle

@dataclass(frozen=True)
class CircleSpace:
    """Points on the unit circle under arc-length (path) distance."""

    angles: tuple

    @property
    def n(self):
        return len(self.angles)

    def distance(self, a, b):
        """min(delta, 2 pi - delta), with delta = |theta_a - theta_b|."""
        theta = np.asarray(self.angles)
        delta = np.abs(theta[a] - theta[b])
        return np.minimum(delta, 2 * np.pi - delta)


def circle_sample(n, seed):
    """Sample n points i.i.d. uniform on [0, 2*pi)."""
    n = checked_count(n, 1, "n must be at least 1")
    angles = seeded(seed).uniform(0.0, 2 * np.pi, size=n)
    return CircleSpace(tuple(angles.tolist()))


# ---------------------------------------------------------------------------
# Powers of two on the real line

@dataclass(frozen=True)
class PowersOfTwoSpace:
    """The first n nonnegative powers of 2 with |.| distance; n in [2, 52], else InputError."""

    n: int

    def __post_init__(self):
        n = checked_count(self.n, 2, "need at least two points", high=math.inf)
        if n > 52:
            # beyond 2**52 the float distances lose exactness
            raise InputError("powers-of-two space is capped at n = 52")
        object.__setattr__(self, "n", n)

    @property
    def values(self):
        return [2 ** i for i in range(self.n)]

    def distance(self, a, b):
        """|v_a - v_b|."""
        v = np.array(self.values, dtype=np.float64)
        return np.abs(v[a] - v[b])


# ---------------------------------------------------------------------------
# Longest common substring over random strings

# dynamic-program cells per block of string pairs, one row of m + 1 per
# pair; a block holds at least one pair
_LCS_CELLS = 1 << 20


@dataclass(frozen=True)
class LcsSpace:
    """Length-m strings over ``alphabet`` ranked by longest common substring.

    Every string must be m characters of the alphabet, else ``InputError``.
    """

    m: int
    alphabet: str
    strings: tuple

    def __post_init__(self):
        if any(len(s) != self.m or not set(s) <= set(self.alphabet) for s in self.strings):
            raise InputError(f"every string must be {self.m} characters of {self.alphabet!r}")

    @property
    def n(self):
        return len(self.strings)

    @functools.cached_property
    def _codes(self):
        """The strings as an (n, m) matrix of alphabet indices."""
        return np.array([[self.alphabet.index(c) for c in s] for s in self.strings], dtype=np.uint8)

    def distance(self, a, b):
        """rho = 1 - M/m for M the length of the longest common substring of a and b."""
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))  # views: no pair is copied
        codes = self._codes
        rho = np.empty(a.size)
        step = max(1, _LCS_CELLS // (codes.shape[1] + 1))
        for s in range(0, a.size, step):
            at = np.unravel_index(np.arange(s, min(s + step, a.size)), a.shape)
            rho[s : s + step] = 1.0 - _lcs_length(codes[a[at]], codes[b[at]]) / self.m
        return rho.reshape(shape)


def lcs_sample(n, m, seed):
    """Sample n independent strings of length m, characters i.i.d. uniform over "acgt"."""
    bad = "need n >= 2 strings of length m >= 1"
    n, m = checked_count(n, 2, bad), checked_count(m, 1, bad)
    alphabet = "acgt"
    # choice draws differently with p given, so p stays: the strings keep their bytes
    idx = seeded(seed).choice(len(alphabet), size=(n, m), p=(0.25,) * 4)
    strings = tuple("".join(alphabet[i] for i in row) for row in idx)
    return LcsSpace(m, alphabet, strings)


def _lcs_length(A, B):
    """The longest-common-substring length of each row of A (P, ma) with the same row of B (P, mb).

    It runs L[i+1, j+1] = [A_i = B_j] * (L[i, j] + 1) over i for the whole
    block, keeping only row i of L and the largest entry so far: a longest
    substring ends at a cell holding the maximum.
    """
    dtype = np.min_scalar_type(min(A.shape[1], B.shape[1]))  # holds every length
    row = np.zeros((A.shape[0], B.shape[1] + 1), dtype=dtype)
    best = np.zeros(A.shape[0], dtype=dtype)
    for i in range(A.shape[1]):
        row[:, 1:] = (A[:, i, None] == B) * (row[:, :-1] + 1)
        np.maximum(best, row.max(axis=1), out=best)
    return best


def lcs_qk(m, n, K, p):
    """Typical longest-common-substring lengths at the K-NN frontier.

    Returns (q_K, q_1), un-rounded:

        q_K = (2 log m + log((1 - p) n / K)) / (-log p)

    and q_1 is the same with K replaced by 1.
    """
    if not 0 < p < 1:
        raise InputError("p must lie in (0, 1)")
    n = checked_count(n, 2, "need 1 <= K < n")
    K = checked_count(K, 1, "need 1 <= K < n", high=n - 1)
    m = checked_count(m, 2, "need m >= 2")
    denom = -math.log(p)
    q_K = (2 * math.log(m) + math.log((1 - p) * n / K)) / denom
    q_1 = (2 * math.log(m) + math.log((1 - p) * n)) / denom
    return q_K, q_1


# ---------------------------------------------------------------------------
# Flat torus with the sup-norm metric

@dataclass(frozen=True, eq=False)
class TorusSpace:
    """Points on the d-torus [-1, 1)^d under the wrapped sup-norm.

    ``points`` is a finite (n, d) array with d >= 1, else ``InputError``;
    n and d are read off its shape.  Total volume is 2**d; a ball of radius
    r < 1 has volume (2r)**d, so the volume-ratio function is h(r) = r**d
    and the diameter is 1.  Spaces compare and hash by identity.
    """

    points: np.ndarray

    def __post_init__(self):
        points = self.points
        if not (isinstance(points, np.ndarray) and points.ndim == 2 and points.shape[1] >= 1
                and points.dtype.kind in "iuf" and np.isfinite(points).all()):
            raise InputError("torus points must be a finite 2-D (n, d) array with d >= 1")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


# numpy's Generator.poisson refuses a larger mean (its POISSON_LAM_MAX)
_POISSON_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def torus_poisson(n_mean, d, seed):
    """Poisson(n_mean) many i.i.d. uniform points on the d-torus."""
    if not 1 <= n_mean < math.inf:
        raise InputError("need a finite n_mean >= 1 and d >= 1")
    if n_mean > _POISSON_MAX:
        raise InputError(f"n_mean must be at most {_POISSON_MAX:.6g}, the largest Poisson mean "
                         "numpy draws from")
    d = checked_count(d, 1, "need a finite n_mean >= 1 and d >= 1")
    rng = seeded(seed)
    count = int(rng.poisson(n_mean))
    points = rng.uniform(-1.0, 1.0, size=(count, d))
    points.setflags(write=False)
    return TorusSpace(points)


def wrapped_distance(u, v):
    """Wrapped sup-norm distance between coordinate arrays ``u`` and ``v``.

    Coordinates run along the last axis and the two arrays broadcast.  The
    per-coordinate wrapped distances min(|u - v|, 2 - |u - v|) are folded one
    at a time with ``np.maximum``, which is exact like their ``max(axis=-1)``,
    so every distance is bit-identical, but each pass runs over one whole
    coordinate.  It is fastest when each ``u[..., k]`` is contiguous, as in
    the transpose of a (d, N) array.
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
    n = checked_count(n, 2, "need at least two items")
    check_table_size(n)
    return RankTable(random_kout(n, n - 1, seed))


# ---------------------------------------------------------------------------
# Rank tables

def rank_table(space):
    """Exact rank table: ``ranking_from_distance_matrix`` of ``space.distance``
    over every pair of items."""
    if not hasattr(space, "distance"):
        raise InputError(f"no rank table builder for {type(space).__name__}")
    check_table_size(space.n)
    ids = np.arange(space.n)
    return ranking_from_distance_matrix(space.distance(ids[:, None], ids[None, :]))
