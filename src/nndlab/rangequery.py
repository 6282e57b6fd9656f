"""Second-neighbor range queries over a torus Poisson sample.

Each round, every vertex lets each pair of its current neighbors test their
mutual distance against a shrinking radius; in-range pairs survive with an
acceptance probability that cancels the geometry of ball overlaps, so every
vertex's neighborhood stays a uniform-rate sample of the ball around it.
The radii and success rates follow a deterministic schedule obtained by
solving the update equation round by round, and the whole process costs
O(n K^2 log n) distance evaluations.
"""

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError, ScheduleExhausted
from .ranking import checked_count, checked_ids, csr_rows, key_dtype, key_rows, seeded, unique_sorted
from .spaces import torus_poisson, wrapped_distance

__all__ = [
    "TwoNrqParams",
    "g_min_overlap",
    "solve_next_radius",
    "Schedule",
    "compute_schedule",
    "schedule_csv",
    "TwoNrqState",
    "init_e0",
    "ball_scan",
    "ideal_state",
    "range_query_round",
    "SamplingReport",
    "verify_sampling_property",
    "TwoNrqResult",
    "run_2nrq",
    "tau_bound",
    "work_bound",
]

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
# candidate pairs examined per chunk of ball centres on the cell grid, and
# proposals per chunk of a round's hubs: 2^16 keeps each chunk's float64
# temporaries at 512 KiB, inside a 4 MiB L2 (2^20 spilled to memory)
_SCAN_ENTRIES = 1 << 16
# (centre, point) pairs per run of a whole-row scan, whose temporaries are
# bool: 8x the entries fills the same 512 KiB, in 8x fewer runs
_ROW_ENTRIES = 8 * _SCAN_ENTRIES
# largest KS population drawn per sampled ball
_KS_CAP = 200


@dataclass(frozen=True)
class TwoNrqParams:
    """Scaling constants for a run: the free values (n, K, d, alpha), checked when
    built (a finite float n >= 1, ints K > 2^d and d >= 1, alpha in (0, 1) and beta
    in (1, K/2^d), else ``InputError``), and the envelopes derived from them.

    ``gamma < r_t/r_{t-1} <= gamma_star`` once the explicit-formula phase
    (of length at most ``t_prime_bound``) ends; ``alpha`` caps the success
    rate and ``beta = -log(1-alpha)/alpha`` is its convexity constant.
    """

    n: float
    K: int
    d: int
    alpha: float

    def __post_init__(self):
        try:
            n = float(self.n)
        except OverflowError:  # an integer past the float range
            n = math.inf
        if not 1 <= n < math.inf:
            raise InputError("need d >= 1 and a finite n >= 1")
        d = checked_count(self.d, 1, "need d >= 1 and a finite n >= 1")
        bad = f"K must exceed 2^d: got K={self.K} and d={d} (dimension too high for K)"
        K = checked_count(self.K, 1, bad)
        # K <= 2^d, without building 2^d, whose digits pass str()'s limit at large d
        if (K - 1).bit_length() <= d:
            raise InputError(bad)
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie in (0, 1)")
        for name, value in (("n", n), ("K", K), ("d", d)):
            object.__setattr__(self, name, value)
        beta = self.beta
        if not 1.0 < beta < K / 2 ** d:
            advice = "raise alpha" if beta <= 1.0 else "lower alpha"
            raise InputError(f"beta={beta:.6f} must lie in (1, K/2^d)={K / 2 ** d:.6f}; {advice}")

    @property
    def beta(self):
        return -math.log1p(-self.alpha) / self.alpha

    @property
    def gamma(self):
        return 1.0 - math.sqrt(1.0 - 2.0 / self.K ** (1.0 / self.d))

    @property
    def gamma_star(self):
        return 1.0 - math.sqrt(1.0 - 2.0 * (self.beta / self.K) ** (1.0 / self.d))

    @property
    def t_prime_bound(self):
        log2_kb = math.log2(self.K / self.beta)
        return math.log2(log2_kb / (log2_kb - self.d))


def g_min_overlap(s, r, d):
    """Guaranteed ball-overlap volume ratio: min{1, (2r - s)^d}.

    The smallest volume of the intersection of two radius-r sup-norm balls
    whose centers are at most s apart; zero once s >= 2r.
    """
    d = checked_count(d, 1, "need d >= 1")
    if not (0 <= s < math.inf and 0 < r < math.inf):
        raise InputError("need finite s >= 0 and r > 0")
    span = 2.0 * r - s
    if span <= 0:
        return 0.0
    return min(1.0, span ** d)


def _nu_many(deltas, r):
    """Exact intersection volume of the radius-r balls around each pair of points.

    ``deltas`` holds the pairs' wrapped coordinate distances, one entry per
    axis.  Per coordinate, two wrapped intervals of length 2r at offset t
    overlap in min(2, max(0, 2r - t) + max(0, 2r + t - 2)); the volume is
    the product.
    """
    nu = 1.0
    for t in deltas:
        nu = nu * np.minimum(2.0, np.maximum(0.0, 2 * r - t) + np.maximum(0.0, 2 * r + t - 2.0))
    return nu


def solve_next_radius(params, r_prev):
    """The unique next radius, via the explicit form when it applies.

    When ``r_prev > 1/2`` the closed form is tried first and kept if the
    solution satisfies ``2 r_prev - r >= 1``; otherwise the implicit update
    equation is bisected over (max((K/(n alpha))^(1/d), gamma r_prev),
    r_prev) to 1e-12.  Raises ``ScheduleExhausted`` when no root brackets,
    which is the normal termination condition.
    """
    n, K, d, alpha = params.n, params.K, params.d, params.alpha
    if not (0 < r_prev <= 1.0 and r_prev ** d >= K / (n * alpha)):
        raise InputError("r_prev must lie in the admissible range")
    theta_prev = K / (n * r_prev ** d)
    coeff = theta_prev ** 2 * n / 2 ** d
    if coeff == 0.0:
        raise InputError(f"--n {n:g} is too large: theta^2 * n underflows to 0")
    if r_prev > 0.5:
        r = (K / (n * -math.expm1(-coeff))) ** (1.0 / d)
        if 2 * r_prev - r >= 1.0:
            return r, True

    def gap(r):
        # accepted-proposal mean minus -log(1 - theta(r)); zero at the update
        return coeff * (2 * r_prev - r) ** d + math.log1p(-K / (n * r ** d))

    lo = max((K / (n * alpha)) ** (1.0 / d), params.gamma * r_prev)
    hi = r_prev
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo, False
    if g_lo * g_hi > 0:
        raise ScheduleExhausted("no admissible radius solves the update equation")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if hi - lo < _BISECT_TOL:
            break
        if (g_mid < 0) == (g_lo < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


@dataclass(frozen=True)
class Schedule:
    """Radii r_0 > ... > r_tau, of which r_1 .. r_{t'} came from the explicit
    formula; the rates theta_t = K/(n r_t^d), the formula of each radius and
    tau are derived from them."""

    params: TwoNrqParams
    radii: tuple
    t_prime: int

    @property
    def rates(self):
        n, K, d = self.params.n, self.params.K, self.params.d
        return tuple(K / (n * r ** d) for r in self.radii)

    @property
    def formulas(self):
        """r_0's "init", then t' times "explicit", then "implicit"."""
        return ("init",) + ("explicit",) * self.t_prime + ("implicit",) * (self.tau - self.t_prime)

    @property
    def tau(self):
        return len(self.radii) - 1


def compute_schedule(params):
    """Iterate the radius solver from r_0 = 1 until theta would exceed alpha."""
    n, K, d, alpha = params.n, params.K, params.d, params.alpha
    if K / (n * alpha) > 1.0:
        raise InputError(
            f"K/(n*alpha) = {K}/({n:g}*{alpha:g}) = {K / (n * alpha):.6g} exceeds 1: even the "
            "whole torus (r = 1) has a rate K/n above alpha; raise n or alpha, or lower K"
        )
    radii = [1.0]
    t_prime = 0
    while True:
        try:
            r, used_explicit = solve_next_radius(params, radii[-1])
        except ScheduleExhausted:
            break
        if r ** d < K / (n * alpha):
            break
        # explicit steps form a prefix by the monotone switch rule
        assert not used_explicit or t_prime == len(radii) - 1
        t_prime += used_explicit
        radii.append(r)
    return Schedule(params=params, radii=tuple(radii), t_prime=t_prime)


def schedule_csv(schedule):
    lines = ["t,r_t,theta_t,formula_used"]
    for t, (r, th, f) in enumerate(zip(schedule.radii, schedule.rates, schedule.formulas)):
        lines.append(f"{t},{r:.12f},{th:.12e},{f}")
    return "\n".join(lines) + "\n"


def _log_rounds(p):
    """log(n alpha / K) / (d log(1/gamma_star)), the rounds past the explicit steps."""
    return math.log(p.n * p.alpha / p.K) / (p.d * math.log(1.0 / p.gamma_star))


def tau_bound(params):
    """Round-count bound t' bound + log(n alpha / K) / (d log(1/gamma_star)) at params' n."""
    return params.t_prime_bound + _log_rounds(params)


def work_bound(params, t_prime):
    """Distance-evaluation scale n K^2 (t' + log(n alpha/K)/(d log(1/gamma_star))) at params' n."""
    return params.n * params.K ** 2 * (t_prime + _log_rounds(params))


# ---------------------------------------------------------------------------
# The simulated graph process

class TwoNrqState:
    """Undirected edge set over a torus sample.

    ``keys`` are a 1-D array of integer edge keys lo*m + hi with
    0 <= lo < hi < m, m the point count; repeats collapse, and any other key,
    shape or dtype is refused.  The state holds its edges once, as the
    read-only CSR that ``adjacency()`` returns, built here from the sorted
    distinct keys.  Row v lists the neighbours above v, then those below v,
    each ascending: the ascending order of the rotated keys v*m + (u - v) mod m
    of its neighbours u.  The edge of key k = lo*m + hi rotates to k - lo in
    row lo, so these entries already ascend, and to hi*(m - 1) + lo + m in
    row hi; those are sorted, and one stable sort merges the two runs.
    """

    def __init__(self, space, keys):
        m = space.n
        bad = "edge keys must be lo*m + hi with 0 <= lo < hi < m"
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise InputError(bad)
        if (keys[1:] <= keys[:-1]).any():  # rounds and init_e0 hand theirs over distinct, sorted
            keys = unique_sorted(np.sort(keys))
        checked_ids(keys[:: max(keys.size - 1, 1)], m * m, bad)  # the sorted keys' two ends
        keys = keys.astype(key_dtype(m), copy=False)
        lo = keys // m
        rotated = np.empty(2 * keys.size, dtype=keys.dtype)
        upper, lower = rotated[: keys.size], rotated[keys.size :]
        np.remainder(keys, m, out=lower)
        if (lower <= lo).any():
            raise InputError(bad)
        np.subtract(keys, lo, out=upper)
        del keys
        lower *= m - 1
        lower += lo
        lower += m
        del lo
        lower.sort()
        rotated.sort(kind="stable")
        indptr = key_rows(rotated, m, m)
        # neighbour u = (v + offset) mod m of key v*m + offset: the key less
        # v*(m - 1) is v + offset, less m once it reaches m
        rotated -= np.repeat(np.arange(m, dtype=rotated.dtype) * (m - 1), np.diff(indptr))
        np.subtract(rotated, m, out=rotated, where=rotated >= m)
        neighbors = rotated.astype(np.int32, copy=False)
        del rotated
        self.space = space
        self._adjacency = (indptr, neighbors)
        for arr in self._adjacency:
            arr.setflags(write=False)

    @property
    def edge_count(self):
        return self._adjacency[1].size // 2

    def degrees(self):
        return np.diff(self._adjacency[0])

    def adjacency(self):
        """The read-only CSR (indptr, neighbors), the same arrays on every call; row
        v lists the neighbours above v, then those below v, each ascending (the
        order a round proposes in)."""
        return self._adjacency


def init_e0(space, K, seed):
    """Round-0 edges: rate-K/m sample of the complete graph on the m = space.n points.

    The count is Binomial(C(m, 2), K/m) and the edges a uniform subset
    of that size, which matches independent per-pair coins in law without a
    quadratic pair scan.
    """
    m = space.n
    if m < 2 or not 0 <= K < math.inf:
        raise InputError(f"need at least two vertices and a finite K >= 0, got m={m}, K={K}")
    rng = seeded(seed)
    total = m * (m - 1) // 2
    rate = min(1.0, K / m)
    count = int(rng.binomial(total, rate))
    if count > total // 4:
        iu = np.triu_indices(m, 1)
        keys = iu[0] * m + iu[1]
        return TwoNrqState(space, keys[rng.permutation(total)[:count]])
    # draw i.i.d. pairs until enough distinct ones exist, then thin uniformly;
    # symmetric over pairs, so the final set is uniform of its size.  int32
    # draws give the values and rng state of int64 ones, and they are freed
    # before the kept keys, those with lo != hi, are gathered
    chosen = np.zeros(0, dtype=key_dtype(m))
    while chosen.size < count:
        a, b = (rng.integers(0, m, size=max(4 * count, 1024), dtype=np.int32) for _ in range(2))
        ok = a != b
        keys = _pair_keys(a, b, m)
        del a, b
        chosen = np.concatenate([chosen, keys[ok]])
        del keys, ok
        chosen.sort()
        chosen = unique_sorted(chosen)
    keys = chosen[rng.choice(chosen.size, size=count, replace=False)]
    del chosen
    keys.sort()
    return TwoNrqState(space, keys)


def _pair_keys(u, v, m):
    """The keys min*m + max of the vertex pairs (u[i], v[i]), of ``key_dtype(m)``;
    ``u`` is overwritten."""
    keys = np.minimum(u, v, dtype=key_dtype(m))
    keys *= m
    keys += np.maximum(u, v, out=u)
    return keys


def ball_scan(points, centres, r):
    """Points within wrapped sup-distance ``r`` of each centre, in chunks of centres.

    ``points`` are an (m, d) array with d >= 1, ``centres`` a 1-D array of
    indices into them, and ``r > 0``; anything else raises ``InputError``.
    Yields ``(start, indptr, keys)`` for consecutive runs
    ``centres[start:start + len(indptr) - 1]``: the ball of the k-th centre
    of a run is ``keys[indptr[k]:indptr[k + 1]] - k * m`` (the centre
    included), and the keys ``k * m + vertex`` ascend.

    The points are bucketed into a wrapping grid of g^d cells with
    g = floor(2/r) - 1, so each cell side 2/g is strictly greater than r and
    a ball meets only the 3^d cells around its centre's cell, however the
    coordinates round (Bentley, Stanat & Williams, IPL 1977).

    When g <= 3 that window is the whole torus, and every point is tested as
    one row (verification does not scan at r >= 1, where every point is in
    every ball).  A sup-norm ball is an orthogonal range, so the test is one
    window of sorted coordinates per axis (Bentley & Friedman, ACM Computing
    Surveys 1979), and it is exact: ``wrapped_distance`` puts a point in the
    ball iff on every axis |t| <= r or fl(2 - |t|) <= r, where t = fl(x - c)
    (|fl(c - x)| = |fl(x - c)|, since rounding is odd).  That is
    -r <= t <= r, or fl(2 + t) <= r, or fl(2 - t) <= r: for t <= 0,
    fl(2 - |t|) is fl(2 + t), and each clause that holds at the other sign
    needs r >= 2 >= |t|.  Rounding is monotone, so t and fl(2 + t) ascend and
    fl(2 - t) descends with x, and along the sorted coordinates each clause
    holds on one interval of positions: a wrap prefix, the middle and a wrap
    suffix, found by bisection.  Equal coordinates give equal t, so the
    intervals are the coordinate ranges x <= P, L <= x <= U and x >= S
    between the values at their ends (+-inf for an empty part); a run
    compares coordinates with these ends and subtracts nothing per pair.
    """
    for start, indptr, keys in _ball_runs(points, centres, r):
        if indptr is None:
            indptr, keys = _mask_keys(keys)
        yield start, indptr, keys


def _mask_keys(inside):
    """The indptr and ascending keys k * m + vertex of a whole-row run's
    (ball, point) mask: ball k's keys are those in [k * m, (k + 1) * m)."""
    keys = np.flatnonzero(inside)
    return key_rows(keys, inside.shape[1], inside.shape[0]), keys


def _ball_runs(points, centres, r):
    """``ball_scan``'s runs, except that a whole-row run (g <= 3) is
    ``(start, None, mask)``, its (ball, point) membership as a bool array."""
    shape = np.shape(points)
    if len(shape) != 2 or shape[1] < 1:
        raise InputError(f"ball_scan needs an (m, d) array of points with d >= 1, got {shape}")
    m, d = shape
    bad = f"ball_scan needs r > 0 and a 1-D array of integer centre ids in [0, {m})"
    centres = checked_ids(centres, m, bad)
    if not r > 0 or centres.ndim != 1:
        raise InputError(bad)
    centres = centres.astype(np.int64)
    axes = np.ascontiguousarray(np.transpose(points), dtype=np.float64)  # one row per coordinate
    g = min(int(min(2.0 / r, 2.0 ** 62)) - 1, int(2.0 ** (62.0 / d)))  # cell ids fit in int64
    if g <= 3:
        windows = [_coordinate_windows(x, x[centres], r) for x in axes]
        rows = max(1, _ROW_ENTRIES // max(m, 1))
        for start in range(0, centres.size, rows):
            run = slice(start, start + rows)
            inside, hit, tmp = np.empty((3, min(rows, centres.size - start), m), dtype=bool)
            for k, (x, ends) in enumerate(zip(axes, windows)):
                below, lo, hi, above = (e[run, None] for e in ends)
                out = inside if k == 0 else hit
                np.greater_equal(x, lo, out=out)
                out &= np.less_equal(x, hi, out=tmp)
                out |= np.less_equal(x, below, out=tmp)
                out |= np.greater_equal(x, above, out=tmp)
                if k:
                    inside &= hit
            yield start, None, inside
        return

    cells = np.minimum(np.floor((axes.T + 1.0) * (g / 2.0)).astype(np.int64), g - 1)
    weights = g ** np.arange(d, dtype=np.int64)
    cell_id = cells @ weights
    order = np.argsort(cell_id, kind="stable")
    sorted_id = cell_id[order]
    by_cell = np.take(axes, order, axis=1)
    window = np.stack(np.meshgrid(*[(-1, 0, 1)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    per_centre = max(1, int(m * (3.0 / g) ** d))
    rows = max(1, _SCAN_ENTRIES // per_centre)
    for start in range(0, centres.size, rows):
        chunk = centres[start : start + rows]
        near = (((cells[chunk][:, None, :] + window) % g) @ weights).ravel()
        lo = np.searchsorted(sorted_id, near, side="left")
        counts = np.searchsorted(sorted_id, near, side="right") - lo
        scanned = counts.reshape(chunk.size, -1).sum(axis=1)
        pos = csr_rows(lo, counts)
        centre_axes = np.repeat(np.take(axes, chunk, axis=1), scanned, axis=1)
        dist = wrapped_distance(centre_axes.T, np.take(by_cell, pos, axis=1).T)
        hit = np.flatnonzero(dist <= r)
        owner = np.repeat(np.arange(chunk.size), scanned)[hit]
        # the 3^d cells are distinct when g >= 4, so the keys are unique
        keys = np.sort(owner * m + order[pos[hit]])
        yield start, key_rows(keys, m, chunk.size), keys


def _coordinate_windows(x, c, r):
    """Per centre coordinate c, the ends (P, L, U, S) for which a coordinate
    of ``x`` is within wrapped distance r of c iff it is <= P, in [L, U] or
    >= S (see ``ball_scan``)."""
    sx = np.sort(x)
    first = functools.partial(_first_position, sx, c)
    prefix = first(lambda t: 2.0 + t > r)  # fl(2 + t) <= r before this position
    lo = first(lambda t: t >= -r)
    hi = first(lambda t: t > r)
    suffix = first(lambda t: 2.0 - t <= r)
    pad = np.concatenate([[-np.inf], sx, [np.inf]])  # pad[i + 1] = sx[i]
    middle = lo < hi
    return (
        pad[prefix],
        np.where(middle, pad[lo + 1], np.inf),
        np.where(middle, pad[hi], -np.inf),
        pad[suffix + 1],
    )


def _first_position(sx, c, pred):
    """Per centre coordinate c, the first position i with ``pred(sx[i] - c)``,
    or ``sx.size`` if none, by bisection; ``pred`` is false, then true, along
    the ascending ``sx``."""
    lo = np.zeros(c.size, dtype=np.int64)
    hi = np.full(c.size, sx.size, dtype=np.int64)
    for _ in range(sx.size.bit_length()):
        mid = (lo + hi) >> 1  # = lo = hi once a centre's search is done
        ok = pred(sx[np.minimum(mid, sx.size - 1)] - c)
        np.copyto(hi, mid, where=ok)
        np.copyto(lo, mid + 1, where=~ok & (lo < hi))
    return lo


def ideal_state(space, r, theta, seed):
    """A state satisfying the sampling hypothesis exactly: independent
    rate-theta coins over every vertex pair within distance r.

    Each vertex i draws its coins in ascending order over its neighbours
    j > i within r; the pairs come from a cell-grid scan, so the cost is
    about m times the ball population rather than m^2 once r < 0.4.
    """
    if not 0 <= theta <= 1:
        raise InputError(f"theta must lie in [0, 1], got {theta}")
    m = space.n
    rng = seeded(seed)
    rows = [np.zeros(0, dtype=np.int64)]
    for start, _, keys in ball_scan(space.points, np.arange(m), r):
        owner, idx = np.divmod(keys, m)
        owner += start
        later = idx > owner
        owner, idx = owner[later], idx[later]
        keep = rng.random(owner.size) < theta
        rows.append(owner[keep] * m + idx[keep])
    return TwoNrqState(space, np.concatenate(rows))


def range_query_round(state, r_t, r_prev, seed):
    """One range-query update: ``(E_t, evals)``, E_t built fresh from
    E_{t-1}'s neighbor pairs and evals the distances evaluated.

    Every vertex of degree >= 2 proposes each unordered pair of its
    neighbors; each proposal costs one distance evaluation, is dropped
    beyond ``r_t``, and otherwise succeeds independently with probability
    g / nu, where g = ``g_min_overlap(r_t, r_prev, d)`` and nu is the exact
    overlap volume of the two ``r_prev`` balls.  Successes are deduplicated
    into the new edge set; old edges are not carried over.

    The hubs are walked in chunks of at most ``_SCAN_ENTRIES`` proposals,
    and only the accepted ones are kept, so memory is bounded by the chunk
    and the new edge set.  Each chunk draws its coins in turn, which is the
    same stream as one draw for the whole round.  The accepted keys are
    written into one buffer that grows in place (``ndarray.resize``
    reallocates, and a large block is remapped, not copied), so they are
    never held twice, as a chunk list and its concatenation would be; the
    buffer is sorted in place, and only its distinct keys reach ``TwoNrqState``.
    """
    if not 0 < r_t < r_prev <= 1.0:
        raise InputError("need 0 < r_t < r_prev <= 1")
    g_value = g_min_overlap(r_t, r_prev, state.space.d)
    rng = seeded(seed)
    m = state.space.n
    axes = np.ascontiguousarray(state.space.points.T)
    indptr, nbrs = state.adjacency()
    deg = np.diff(indptr)
    evals = 0
    f_max = 0.0
    accepted = np.empty(_SCAN_ENTRIES, dtype=key_dtype(m))
    size = 0
    # the hubs of degree g, g ascending, propose pairs i < j of their rows in
    # lexicographic order; each wrapped delta is computed once per axis.  One
    # stable sort groups the hubs by degree, and a class's pairs are those of
    # the largest degree with j < g, still in lexicographic order
    by_degree = np.argsort(deg, kind="stable")
    sorted_deg = deg[by_degree]
    top_I, top_J = np.triu_indices(deg.max(initial=0), 1)
    first_hub = np.searchsorted(sorted_deg, 2)
    bounds = first_hub + np.flatnonzero(np.diff(sorted_deg[first_hub:], prepend=-1))
    for lo, hi in zip(bounds, np.append(bounds[1:], m)):
        g = sorted_deg[lo]
        row_starts = indptr[by_degree[lo:hi]]
        I, J = top_I[top_J < g], top_J[top_J < g]
        evals += row_starts.size * I.size
        hubs_per_chunk = max(1, _SCAN_ENTRIES // I.size)
        for c in range(0, row_starts.size, hubs_per_chunk):
            block = nbrs[row_starts[c : c + hubs_per_chunk, None] + np.arange(g)]
            deltas = []
            for x in axes[:, block]:
                t = x[:, I]  # |x[:, I] - x[:, J]| wrapped, in the gathered array
                np.subtract(t, x[:, J], out=t)
                np.abs(t, out=t)
                np.minimum(t, 2.0 - t, out=t)
                deltas.append(t.ravel())
            near = np.flatnonzero(functools.reduce(np.maximum, deltas) <= r_t)
            f = g_value / _nu_many([t[near] for t in deltas], r_prev)
            f_max = max(f_max, f.max(initial=0.0))
            hub, pair = np.divmod(near[rng.random(f.size) < f], I.size)
            keys = _pair_keys(block[hub, I[pair]], block[hub, J[pair]], m)
            if size + keys.size > accepted.size:
                # a quarter to spare, as resize zero-fills what it adds; no
                # view of the buffer outlives its statement
                accepted.resize(size + keys.size + size // 4, refcheck=False)
            accepted[size : size + keys.size] = keys
            size += keys.size
    # the round's largest rate, as one check over all proposals would quote it
    if f_max > 1.0 + 1e-9:
        raise InputError(f"acceptance rate {f_max:.6f} exceeds 1: overlap volume fell below g")
    accepted.resize(size, refcheck=False)
    accepted.sort()
    accepted = unique_sorted(accepted)
    return TwoNrqState(state.space, accepted), evals


@dataclass
class SamplingReport:
    """Measured sampling-property statistics for one round."""

    r_t: float
    theta_t: float
    sampled: int
    out_of_range_neighbors: int
    rate_mean: float
    rate_se: float
    rate_z: float
    deg_mean: float
    deg_se: float
    ks_stat: float
    ks_pvalue: float

    def to_json_dict(self):
        """The fields, with null for a non-finite statistic (strict JSON)."""
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }


def verify_sampling_property(state, r_t, theta_t, sample_size, seed=0):
    """Measure whether neighborhoods look like rate-theta_t ball samples.

    Checks, over sampled vertices: (a) no neighbor lies beyond r_t; (b) the
    mean of deg(v)/|ball population| versus theta_t in standard errors; and
    (c) a two-sided two-sample KS test at the h-transformed radial statistic
    between neighbor distances and non-neighbor in-ball distances.

    It runs in two halves.  The first, ``_sample_balls``, reads no edges: it
    draws the sample and indexes its balls.  The second,
    ``_sampling_report``, reads E_t and draws the KS samples from the same
    generator, so the random stream is that of one pass.  ``run_2nrq`` runs
    the first half of a round before its edges exist.

    A ball of radius >= 1 is the whole torus and is not scanned.  The KS sample
    of a ball is at most ``_KS_CAP`` of its members, drawn by rank, and only
    the drawn members get a distance.  Each run of ``ball_scan`` gives the
    positions of the centre and its neighbours, one ``rng.choice`` per ball in
    ball order, and the keys of the picks; the ball counts, rates and the
    picks' distances are computed once, after the last run, so a run costs no
    more than its keys need.
    """
    if not 0 <= theta_t <= 1:
        raise InputError(f"theta_t must lie in [0, 1], got {theta_t}")
    return _sampling_report(state, theta_t, _sample_balls(state.space, r_t, sample_size, seed))


def _sample_balls(space, r_t, sample_size, seed):
    """The half of ``verify_sampling_property`` that reads no edges.

    Returns ``(r_t, rng, sample, held)``: the generator after it drew the
    sample, and the sample's balls at r_t, or None for whole-torus balls.
    The balls are held compactly, since they wait for their round: a
    whole-row run as its (ball, point) mask packed to bits, m/8 bytes per
    ball, and a grid run as its indptr and int32 vertex ids.
    """
    sample_size = checked_count(sample_size, 2, "need an integer sample size of at least 2 for "
                                f"a standard error, got {sample_size}")
    if not 0 < r_t < math.inf:
        raise InputError("need a finite r_t > 0")
    m = space.n
    rng = seeded(seed)
    sample = rng.choice(m, size=min(sample_size, m), replace=False)
    # every wrapped sup-distance is at most 1 (2 - t is exact for t in (1, 2]),
    # so a ball of radius >= 1 is the whole torus
    held = None if r_t >= 1.0 else [
        (start, None, np.packbits(keys, axis=1)) if indptr is None
        else (start, indptr, (keys % m).astype(np.int32))
        for start, indptr, keys in _ball_runs(space.points, sample, r_t)
    ]
    return r_t, rng, sample, held


def _sampling_report(state, theta_t, balls):
    """The half of ``verify_sampling_property`` that reads E_t, on the balls
    ``_sample_balls`` indexed."""
    r_t, rng, sample, held = balls
    m = state.space.n
    d = state.space.d
    pts = state.space.points
    indptr, nbrs = state.adjacency()
    sample_deg = np.diff(indptr)[sample]
    nbr_owner = np.repeat(np.arange(len(sample)), sample_deg)
    nbr_ptr = np.concatenate([[0], np.cumsum(sample_deg)])
    neigh = nbrs[csr_rows(indptr[sample], sample_deg)]
    nbr_dist = wrapped_distance(pts[sample[nbr_owner]], pts[neigh])
    out_of_range = int((nbr_dist > r_t).sum())
    nbr_radial = (nbr_dist / r_t) ** d

    sizes, picks = [], []
    # a whole-torus ball is one run whose key at p is p
    whole = held is None
    runs = [(0, np.arange(len(sample) + 1) * m, None)] if whole else _open_runs(held, m)
    for start, ptr, keys in runs:
        size = ptr.size - 1
        stop = start + size
        sizes.append(np.diff(ptr))
        # every ball holds its centre (r_t > 0); the centre and its neighbors
        # leave the KS population, located by the sorted keys ball*m + vertex
        ball = np.arange(size) * m
        mine = slice(nbr_ptr[start], nbr_ptr[stop])
        drop = np.sort(np.concatenate(
            [ball + sample[start:stop], ball[nbr_owner[mine] - start] + neigh[mine]]
        ))
        at = drop if whole else np.minimum(np.searchsorted(keys, drop), keys.size - 1)
        gone = at if whole else at[keys[at] == drop]  # ascending positions
        # ball b's KS population is the kept positions of ranks first[b] on,
        # pop[b] of them; each draw is rng.choice over a population of that size
        cut = np.searchsorted(gone, ptr)
        pop = (sizes[-1] - np.diff(cut)).tolist()
        first = (ptr[:-1] - cut[:-1]).tolist()
        ranks = np.concatenate([
            f + (rng.choice(n, size=_KS_CAP, replace=False) if n > _KS_CAP else np.arange(n))
            for f, n in zip(first, pop)
        ])
        pos = ranks + np.searchsorted(gone - np.arange(gone.size), ranks, side="right")
        # keys ball*m + vertex over the whole sample, in the order they were drawn
        picks.append((pos if whole else keys[pos]) + start * m)

    # the rates of the balls beyond their centre, and distances only for the
    # picks, once per round
    q = np.concatenate(sizes) - 1
    rates = sample_deg[q > 0] / q[q > 0]
    owner, vertex = np.divmod(np.concatenate(picks), m)
    pop_radial = (wrapped_distance(pts[sample[owner]], pts[vertex]) / r_t) ** d

    rate_mean = float(rates.mean()) if rates.size else math.nan
    rate_se = float(rates.std(ddof=1) / math.sqrt(rates.size)) if rates.size > 1 else math.nan
    deg_mean = float(sample_deg.mean())
    deg_se = float(sample_deg.std(ddof=1) / math.sqrt(len(sample)))
    if nbr_radial.size >= 5 and pop_radial.size >= 5:
        ks_stat, ks_p = _ks_2samp(nbr_radial, pop_radial)
    else:
        ks_stat, ks_p = math.nan, math.nan
    return SamplingReport(
        r_t=float(r_t),
        theta_t=float(theta_t),
        sampled=len(sample),
        out_of_range_neighbors=out_of_range,
        rate_mean=rate_mean,
        rate_se=rate_se,
        rate_z=(rate_mean - theta_t) / rate_se if rate_se > 0 else math.inf,
        deg_mean=deg_mean,
        deg_se=deg_se,
        ks_stat=ks_stat,
        ks_pvalue=ks_p,
    )


def _open_runs(held, m):
    """The runs ``(start, indptr, keys)`` of ``ball_scan`` from the balls
    ``_sample_balls`` held."""
    for start, indptr, ids in held:
        if indptr is None:
            indptr, keys = _mask_keys(np.unpackbits(ids, axis=1, count=m).view(bool))
        else:
            keys = ids + np.repeat(np.arange(indptr.size - 1) * m, np.diff(indptr))
        yield start, indptr, keys


def _ks_2samp(a, b):
    """``scipy.stats.ks_2samp(a, b)``'s two-sided statistic and p-value, as floats.

    scipy takes the asymptotic p-value ``kstwo.sf(D, round(en))``,
    en = n1 n2 / (n1 + n2), once the larger sample exceeds 10000 points; so
    does this, with D read from one stable merge of the sorted samples: the
    gap of the two empirical cdfs at the end of each tie group, where scipy
    reads it for every point of the group.  Smaller samples go to scipy.
    """
    from scipy import stats

    n1, n2 = a.size, b.size
    if max(n1, n2) <= 10000:
        ks = stats.ks_2samp(a, b)
        return float(ks.statistic), float(ks.pvalue)
    both = np.concatenate([np.sort(a), np.sort(b)])
    order = np.argsort(both, kind="stable")  # merges the two sorted runs
    merged = both[order]
    c1 = np.cumsum(order < n1)
    last = np.append(merged[1:] != merged[:-1], True)
    gap = c1[last] / n1 - (np.flatnonzero(last) + 1 - c1[last]) / n2
    low, high = np.clip(-gap.min(), 0, 1), gap.max()
    d = low if low > high else high
    en = float(n1) * n2 / (n1 + n2)
    return float(d), float(np.clip(stats.distributions.kstwo.sf(d, np.round(en)), 0, 1))


@dataclass
class TwoNrqResult:
    state: TwoNrqState
    schedule: Schedule
    report: dict


def run_2nrq(n_mean, K, d, alpha, seed, sample_size=500, idealized_inputs=False):
    """Full pipeline: sample points, derive the schedule, run and verify every round.

    The schedule is computed from the realized point count (the algorithm
    knows its input), not from n_mean: the update equation squares the
    previous rate each round, so even the Poisson fluctuation of the count
    would otherwise compound into a visible rate bias at desk scale.

    Each state E_t is verified on one worker thread while round t+1 runs on
    the main thread.  The half of verification t that reads no edges (its
    sample and ball index, see ``verify_sampling_property``) runs on the
    same worker before E_t exists: rounds 0 and 1 while ``init_e0`` runs,
    round t+2 right after verification t is queued.  Verification draws
    from its own seeds, so the graph, ``per_round`` and ``distance_evals``
    are those of the rounds alone, and the reports and errors are those of
    verifying each state in turn.

    With ``idealized_inputs`` each round's input edge set is regenerated as
    an exact rate-theta sample of in-range pairs, isolating the one-step
    update from dependence accumulated across rounds (a diagnostic, not the
    algorithm).
    """
    from concurrent.futures import ThreadPoolExecutor

    # (K, d, alpha) and the seed are checked before the n x d points are drawn; the
    # bounds are taken at n_mean, the schedule at the realized count
    nominal = TwoNrqParams(n_mean, K, d, alpha)
    root = seeded(seed).bit_generator.seed_seq  # np.random.SeedSequence(seed)
    space_seed, e0_seed, round_seed, verify_seed, ideal_seed = (
        int(s) for s in root.generate_state(5)
    )
    space = torus_poisson(n_mean, d, space_seed)
    m = space.n
    if m < 2:
        raise InputError(
            f"the realized point count {m} (a Poisson sample of mean n={n_mean:g}) is below 2: "
            "raise n or change the seed"
        )
    params = TwoNrqParams(m, K, d, alpha)
    schedule = compute_schedule(params)
    per_round = []

    def advance(state, t):
        """E_t from E_{t-1}; a state is read-only once built."""
        r_t, r_prev = schedule.radii[t], schedule.radii[t - 1]
        if idealized_inputs and t > 1:
            state = ideal_state(space, r_prev, schedule.rates[t - 1], ideal_seed + t - 1)
        new, evals = range_query_round(state, r_t, r_prev, round_seed + t - 1)
        per_round.append(
            {
                "t": t,
                "r_t": r_t,
                "theta_t": schedule.rates[t],
                "edges": new.edge_count,
                "mean_degree": float(new.degrees().mean()),
                "distance_evals": evals,
            }
        )
        return new

    def verify(state, t, balls):
        return _sampling_report(state, schedule.rates[t], balls.result())

    reports = []
    # verifying E_t and computing E_{t+1} both only read E_t, so they overlap;
    # at most one verification is in flight, which keeps two states alive.
    # The worker runs its tasks in turn, so a ball index is ready when its
    # verification starts, which raises the index's error if it had one
    with ThreadPoolExecutor(max_workers=1) as pool:
        balls = {}

        def index(t):
            """Queue the ball index of verification t, if round t exists."""
            if t <= schedule.tau:
                balls[t] = pool.submit(_sample_balls, space, schedule.radii[t], sample_size,
                                       verify_seed + t)

        index(0)
        index(1)
        state = init_e0(space, K, e0_seed)
        for t in range(schedule.tau + 1):
            if t:
                try:
                    state = advance(state, t)
                finally:
                    # raised here first, as in sequence: E_{t-1}'s verification
                    # error wins over an error of round t
                    reports.append(pending.result())
            pending = pool.submit(verify, state, t, balls.pop(t))
            index(t + 2)
        reports.append(pending.result())

    report = {
        "n_mean": float(n_mean),
        "realized_points": m,
        "K": params.K,
        "d": params.d,
        "alpha": alpha,
        "seed": root.entropy,
        "idealized_inputs": bool(idealized_inputs),
        "tau": schedule.tau,
        "t_prime": schedule.t_prime,
        "radii": list(schedule.radii),
        "rates": list(schedule.rates),
        "distance_evals": sum(r["distance_evals"] for r in per_round),
        "tau_bound": tau_bound(nominal),
        "work_bound": work_bound(nominal, schedule.t_prime),
        "per_round": per_round,
        "sampling_reports": [{"t": t, **r.to_json_dict()} for t, r in enumerate(reports)],
    }
    return TwoNrqResult(state=state, schedule=schedule, report=report)
