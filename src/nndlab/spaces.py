"""Example similarity spaces and point processes.

Generators for the star-path ("Paris") points, uniform circle samples,
powers of two on the line, random strings under the longest-common-substring
distance, the flat torus with the sup-norm metric, and uniformly random
ranking systems.  Every space is immutable once sampled, records its seed,
and can be turned into an exact rank table.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def paris_distance(space, i, j):
    if i == j:
        raise InputError("distance is undefined for i == j")
    return space.etas[i] + space.etas[j]


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
    seed: int
    n_mean: float
    poissonized: bool

    @property
    def n(self):
        return len(self.angles)


def circle_sample(n_mean, seed, poissonize=False):
    """Sample points i.i.d. uniform on [0, 2*pi).

    With ``poissonize`` the count itself is Poisson(n_mean), otherwise
    exactly round(n_mean) points are drawn.
    """
    if n_mean < 1:
        raise InputError("n_mean must be at least 1")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n_mean)) if poissonize else int(round(n_mean))
    angles = rng.uniform(0.0, 2 * np.pi, size=count)
    return CircleSpace(tuple(angles.tolist()), int(seed), float(n_mean), bool(poissonize))


def circle_distance(space, i, j):
    delta = abs(space.angles[i] - space.angles[j])
    return min(delta, 2 * np.pi - delta)


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
    v = np.array([float(2 ** i) for i in range(space.n)])
    return np.abs(v[:, None] - v[None, :])


# ---------------------------------------------------------------------------
# Longest common substring over random strings

@dataclass(frozen=True)
class LcsSpace:
    """Random length-m strings ranked by longest common substring.

    ``mu`` is the character distribution over ``alphabet``; ``p`` is the sum
    of its squared probabilities, the collision rate driving how long shared
    substrings typically get.
    """

    m: int
    alphabet: str
    mu: tuple
    strings: tuple
    seed: int

    @property
    def n(self):
        return len(self.strings)

    @property
    def p(self):
        return float(sum(q * q for q in self.mu))


def lcs_sample(n, m, alphabet="acgt", mu=None, seed=0):
    """Sample n independent strings of length m, characters i.i.d. from mu."""
    if n < 2 or m < 1:
        raise InputError("need n >= 2 strings of length m >= 1")
    if len(set(alphabet)) != len(alphabet) or len(alphabet) < 2:
        raise InputError("alphabet must have at least two distinct characters")
    if mu is None:
        mu = [1.0 / len(alphabet)] * len(alphabet)
    mu = [float(q) for q in mu]
    if len(mu) != len(alphabet) or any(q <= 0 for q in mu) or abs(sum(mu) - 1.0) > 1e-9:
        raise InputError("mu must be a positive distribution over the alphabet")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(alphabet), size=(n, m), p=mu)
    strings = tuple("".join(alphabet[i] for i in row) for row in idx)
    return LcsSpace(int(m), alphabet, tuple(mu), strings, int(seed))


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
    sa, sb = space.strings[a], space.strings[b]
    if len(sa) != len(sb):
        raise InputError("strings must have equal length")
    length, start_a, _ = longest_common_substring(sa, sb)
    rho = 1.0 - length / space.m
    logp = {c: math.log(q) for c, q in zip(space.alphabet, space.mu)}
    tiekey = -sum(logp[c] for c in sa[start_a : start_a + length]) if length else 0.0
    return rho, tiekey


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
    logp = {c: math.log(q) for c, q in zip(space.alphabet, space.mu)}
    for i in range(n):
        for j in range(i + 1, n):
            length, si, sj = longest_common_substring(space.strings[i], space.strings[j])
            r = 1.0 - length / space.m
            rho[i, j] = rho[j, i] = r
            if length:
                tiekey[i, j] = -sum(logp[c] for c in space.strings[i][si : si + length])
                tiekey[j, i] = -sum(logp[c] for c in space.strings[j][sj : sj + length])
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
    n_mean: float
    seed: int

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def volume(self):
        return 2.0 ** self.d

    def volume_ratio(self, r):
        return min(float(r), 1.0) ** self.d

    def ball_volume(self, r):
        return (2.0 * min(float(r), 1.0)) ** self.d


def torus_poisson(n_mean, d, seed):
    """Poisson(n_mean) many i.i.d. uniform points on the d-torus."""
    if n_mean < 1 or d < 1:
        raise InputError("need n_mean >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n_mean))
    points = rng.uniform(-1.0, 1.0, size=(count, d))
    points.setflags(write=False)
    return TorusSpace(int(d), points, float(n_mean), int(seed))


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


def torus_distance(space, u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (space.d,) or v.shape != (space.d,):
        raise InputError("points must have the space's dimension")
    return float(wrapped_distance(u, v))


def torus_distance_matrix(space):
    p = space.points
    return wrapped_distance(p[:, None, :], p[None, :, :])


# ---------------------------------------------------------------------------
# Uniformly random ranking systems (no metric at all)

@dataclass(frozen=True)
class RandomRankingSystem:
    n: int
    seed: int


def random_ranking_table(n, seed):
    """Each item's ranking an independent uniform permutation of the rest."""
    if n < 2:
        raise InputError("need at least two items")
    rng = np.random.default_rng(seed)
    keys = rng.random((n, n))
    np.fill_diagonal(keys, np.inf)
    order = np.argsort(keys, axis=1)[:, : n - 1]
    return RankTable(order)


# ---------------------------------------------------------------------------
# Rank tables and serialization

def rank_table(space, tie_break=None):
    """Exact rank table for any space defined above."""
    if isinstance(space, ParisSpace):
        return ranking_from_distance_matrix(paris_distance_matrix(space), tie_break)
    if isinstance(space, CircleSpace):
        return ranking_from_distance_matrix(circle_distance_matrix(space), tie_break)
    if isinstance(space, PowersOfTwoSpace):
        return ranking_from_distance_matrix(powers_of_two_distance_matrix(space), tie_break)
    if isinstance(space, TorusSpace):
        return ranking_from_distance_matrix(torus_distance_matrix(space), tie_break)
    if isinstance(space, LcsSpace):
        return lcs_rank_table(space)
    if isinstance(space, RandomRankingSystem):
        return random_ranking_table(space.n, space.seed)
    raise InputError(f"no rank table builder for {type(space).__name__}")


def space_config(space):
    """Parameters-plus-seed description of a space (never raw samples)."""
    if isinstance(space, ParisSpace):
        return {"space": "paris", "etas": list(space.etas)}
    if isinstance(space, CircleSpace):
        return {
            "space": "circle",
            "n_mean": space.n_mean,
            "poissonize": space.poissonized,
            "seed": space.seed,
        }
    if isinstance(space, PowersOfTwoSpace):
        return {"space": "powers2", "n": space.n}
    if isinstance(space, LcsSpace):
        return {
            "space": "lcs",
            "m": space.m,
            "alphabet": space.alphabet,
            "mu": list(space.mu),
            "n": space.n,
            "seed": space.seed,
        }
    if isinstance(space, TorusSpace):
        return {"space": "torus", "d": space.d, "n_mean": space.n_mean, "seed": space.seed}
    if isinstance(space, RandomRankingSystem):
        return {"space": "random-ranking", "n": space.n, "seed": space.seed}
    raise InputError(f"no config for {type(space).__name__}")


def space_points_csv(space):
    """Raw sample CSV for plotting; parameter-only spaces are rejected."""
    if isinstance(space, CircleSpace):
        lines = ["index,angle"]
        lines.extend(f"{i},{a!r}" for i, a in enumerate(space.angles))
    elif isinstance(space, TorusSpace):
        lines = ["index," + ",".join(f"x{j}" for j in range(space.d))]
        lines.extend(
            f"{i}," + ",".join(repr(float(c)) for c in row)
            for i, row in enumerate(space.points)
        )
    elif isinstance(space, ParisSpace):
        lines = ["index,eta"]
        lines.extend(f"{i},{e!r}" for i, e in enumerate(space.etas))
    elif isinstance(space, PowersOfTwoSpace):
        lines = ["index,value"]
        lines.extend(f"{i},{v}" for i, v in enumerate(space.values))
    elif isinstance(space, LcsSpace):
        lines = ["index,string"]
        lines.extend(f"{i},{s}" for i, s in enumerate(space.strings))
    else:
        raise InputError(f"{type(space).__name__} has no point representation")
    return "\n".join(lines) + "\n"
