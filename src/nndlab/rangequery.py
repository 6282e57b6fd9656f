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
from .ranking import csr, csr_rows, unique_keys
from .spaces import TorusSpace, torus_poisson, wrapped_deltas, wrapped_distance

__all__ = [
    "TwoNrqParams",
    "derive_params",
    "g_min_overlap",
    "nu_overlap",
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
# candidate pairs examined per chunk of ball centres: 2^16 keeps each chunk's
# float64 temporaries at 512 KiB, inside a 4 MiB L2 (2^20 spilled to memory)
_SCAN_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TwoNrqParams:
    """Scaling constants for a run: dimensions, rates, and their envelopes.

    ``gamma < r_t/r_{t-1} <= gamma_star`` once the explicit-formula phase
    (of length at most ``t_prime_bound``) ends; ``alpha`` caps the success
    rate and ``beta = -log(1-alpha)/alpha`` is its convexity constant.
    """

    n: float
    K: int
    d: int
    alpha: float
    beta: float
    gamma: float
    gamma_star: float
    t_prime_bound: float


def derive_params(n, K, d, alpha):
    """Derive (beta, gamma, gamma_star, t' bound) from (n, K, d, alpha)."""
    n = float(n)
    K = int(K)
    d = int(d)
    if d < 1 or n < 1:
        raise InputError("need d >= 1 and n >= 1")
    if K <= 2 ** d:
        raise InputError(f"K must exceed 2^d: got K={K}, 2^d={2 ** d} (dimension too high for K)")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    beta = -math.log1p(-alpha) / alpha
    if not 1.0 < beta < K / 2 ** d:
        advice = "raise alpha" if beta <= 1.0 else "lower alpha"
        raise InputError(f"beta={beta:.6f} must lie in (1, K/2^d)={K / 2 ** d:.6f}; {advice}")
    gamma = 1.0 - math.sqrt(1.0 - 2.0 / K ** (1.0 / d))
    gamma_star = 1.0 - math.sqrt(1.0 - 2.0 * (beta / K) ** (1.0 / d))
    log2_kb = math.log2(K / beta)
    t_prime_bound = math.log2(log2_kb / (log2_kb - d))
    return TwoNrqParams(n, K, d, alpha, beta, gamma, gamma_star, t_prime_bound)


def g_min_overlap(s, r, d):
    """Guaranteed ball-overlap volume ratio: min{1, (2r - s)^d}.

    The smallest volume of the intersection of two radius-r sup-norm balls
    whose centers are at most s apart; zero once s >= 2r.
    """
    if d < 1:
        raise InputError("need d >= 1")
    if s < 0 or r <= 0:
        raise InputError("need s >= 0 and r > 0")
    span = 2.0 * r - s
    if span <= 0:
        return 0.0
    return min(1.0, span ** d)


def nu_overlap(space, v, vp, r):
    """Exact intersection volume of the radius-r balls around v and vp.

    Per coordinate, two wrapped intervals of length 2r at offset t overlap
    in min(2, max(0, 2r - t) + max(0, 2r + t - 2)); the volume is the
    product.
    """
    if not isinstance(space, TorusSpace):
        raise InputError("nu_overlap is defined on a torus space")
    v = np.asarray(v, dtype=np.float64)
    vp = np.asarray(vp, dtype=np.float64)
    if v.shape != (space.d,) or vp.shape != (space.d,):
        raise InputError("points must have the space's dimension")
    t = wrapped_deltas(v - vp)
    per_axis = np.minimum(2.0, np.maximum(0.0, 2 * r - t) + np.maximum(0.0, 2 * r + t - 2.0))
    return float(per_axis.prod())


def _nu_many(deltas, r):
    """``nu_overlap`` for many pairs, from a list of their per-axis wrapped deltas."""
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
    if r_prev > 1.0 or r_prev ** d < K / (n * alpha):
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
    """Radii r_0 > ... > r_tau with coupled rates theta_t = K/(n r_t^d)."""

    params: TwoNrqParams
    radii: tuple
    rates: tuple
    formulas: tuple
    t_prime: int
    tau: int


def compute_schedule(params):
    """Iterate the radius solver from r_0 = 1 until theta would exceed alpha."""
    n, K, d, alpha = params.n, params.K, params.d, params.alpha
    radii = [1.0]
    formulas = ["init"]
    while True:
        try:
            r, used_explicit = solve_next_radius(params, radii[-1])
        except ScheduleExhausted:
            break
        if r ** d < K / (n * alpha):
            break
        radii.append(r)
        formulas.append("explicit" if used_explicit else "implicit")
    rates = tuple(K / (n * r ** d) for r in radii)
    t_prime = sum(1 for f in formulas if f == "explicit")
    # explicit steps form a prefix by the monotone switch rule
    assert all(f == "explicit" for f in formulas[1 : t_prime + 1])
    return Schedule(
        params=params,
        radii=tuple(radii),
        rates=rates,
        formulas=tuple(formulas),
        t_prime=t_prime,
        tau=len(radii) - 1,
    )


def schedule_csv(schedule):
    lines = ["t,r_t,theta_t,formula_used"]
    for t, (r, th, f) in enumerate(zip(schedule.radii, schedule.rates, schedule.formulas)):
        lines.append(f"{t},{r:.12f},{th:.12e},{f}")
    return "\n".join(lines) + "\n"


def tau_bound(params, n=None):
    """Round-count bound t' bound + log(n alpha / K) / (d log(1/gamma_star))."""
    n = params.n if n is None else n
    return params.t_prime_bound + math.log(n * params.alpha / params.K) / (
        params.d * math.log(1.0 / params.gamma_star)
    )


def work_bound(params, t_prime, n=None):
    """Distance-evaluation scale n K^2 (t' + log(n alpha/K)/(d log(1/gamma_star)))."""
    n = params.n if n is None else n
    rounds = t_prime + math.log(n * params.alpha / params.K) / (
        params.d * math.log(1.0 / params.gamma_star)
    )
    return n * params.K ** 2 * rounds


# ---------------------------------------------------------------------------
# The simulated graph process

def _edge_keys(edges, m):
    """One int64 key lo*m + hi per undirected edge; sorted keys order edges lexicographically."""
    return np.minimum(edges[:, 0], edges[:, 1]) * m + np.maximum(edges[:, 0], edges[:, 1])


class TwoNrqState:
    """Undirected edge set over a torus sample at some round, plus a work meter.

    ``edges`` is an (E, 2) int64 array of distinct pairs with ``a < b``, in
    lexicographic order, read-only because the adjacency built from it is kept.
    """

    def __init__(self, space, edges, t=0, distance_evals=0):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (
            edges.min() < 0 or edges.max() >= space.n or (edges[:, 0] == edges[:, 1]).any()
        ):
            raise InputError("edges must join distinct in-range vertices")
        m = space.n
        keys = unique_keys(_edge_keys(edges, m))
        self.space = space
        self.edges = np.stack([keys // m, keys % m], axis=1)
        self.edges.setflags(write=False)
        self.t = int(t)
        self.distance_evals = int(distance_evals)
        self._adjacency = None

    @property
    def edge_count(self):
        return self.edges.shape[0]

    def degrees(self):
        return np.diff(self.adjacency()[0])

    def edge_lengths(self):
        if not self.edges.size:
            return np.zeros(0)
        p = self.space.points
        return wrapped_distance(p[self.edges[:, 0]], p[self.edges[:, 1]])

    def adjacency(self):
        """Read-only CSR (indptr, neighbors), built once; row v lists the neighbours
        above v, then those below v, each ascending (the order a round proposes in)."""
        if self._adjacency is None:
            a, b = self.edges.T
            self._adjacency = csr(np.concatenate([a, b]), np.concatenate([b, a]), self.space.n)
            for arr in self._adjacency:
                arr.setflags(write=False)
        return self._adjacency


def init_e0(space, K, n_mean, seed):
    """Round-0 edges: rate-K/n_mean sample of the complete graph.

    The count is Binomial(C(m, 2), K/n_mean) and the edges a uniform subset
    of that size, which matches independent per-pair coins in law without a
    quadratic pair scan.
    """
    m = space.n
    if m < 2:
        raise InputError("need at least two vertices")
    rng = np.random.default_rng(seed)
    total = m * (m - 1) // 2
    rate = min(1.0, K / float(n_mean))
    count = int(rng.binomial(total, rate))
    if count == 0:
        return TwoNrqState(space, np.zeros((0, 2), dtype=np.int64), t=0)
    if count > total // 4:
        iu = np.triu_indices(m, 1)
        keys = np.stack([iu[0], iu[1]], axis=1)
        pick = rng.permutation(total)[:count]
        return TwoNrqState(space, keys[pick], t=0)
    # draw i.i.d. pairs until enough distinct ones exist, then thin uniformly;
    # symmetric over pairs, so the final set is uniform of its size
    chosen = np.zeros(0, dtype=np.int64)
    while chosen.size < count:
        batch = max(4 * count, 1024)
        a = rng.integers(0, m, size=batch)
        b = rng.integers(0, m, size=batch)
        ok = a != b
        lo = np.minimum(a[ok], b[ok]).astype(np.int64)
        hi = np.maximum(a[ok], b[ok]).astype(np.int64)
        chosen = unique_keys(np.concatenate([chosen, lo * m + hi]))
    pick = rng.choice(chosen.size, size=count, replace=False)
    keys = chosen[pick]
    edges = np.stack([keys // m, keys % m], axis=1)
    return TwoNrqState(space, edges, t=0)


def ball_scan(points, centres, r):
    """Points within wrapped sup-distance ``r`` of each centre, in chunks of centres.

    ``centres`` are indices into ``points``.  Yields ``(start, indptr, keys)``
    for consecutive runs ``centres[start:start + len(indptr) - 1]``: the ball
    of the k-th centre of a run is ``keys[indptr[k]:indptr[k + 1]] - k * m``
    (the centre included), and the keys ``k * m + vertex`` ascend.

    The points are bucketed into a wrapping grid of g^d cells with
    g = floor(2/r) - 1, so each cell side 2/g is strictly greater than r and
    a ball meets only the 3^d cells around its centre's cell, however the
    coordinates round (Bentley, Stanat & Williams, IPL 1977).  When g <= 3
    that window is the whole torus, and every point is scanned as one row
    (verification does not scan at r >= 1, where every point is in every ball).
    """
    centres = np.asarray(centres, dtype=np.int64)
    m, d = np.shape(points)
    axes = np.ascontiguousarray(np.transpose(points), dtype=np.float64)  # one row per coordinate
    g = min(int(2.0 / r) - 1, int(2.0 ** (62.0 / d)))  # cell ids must fit in int64
    if g <= 3:
        rows = max(1, _SCAN_ENTRIES // max(m, 1))
        for start in range(0, centres.size, rows):
            chunk = np.take(axes, centres[start : start + rows], axis=1)
            inside = wrapped_distance(chunk.T[:, None, :], axes.T[None, :, :]) <= r
            indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
            yield start, indptr, np.flatnonzero(inside)
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
        indptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=chunk.size))])
        # the 3^d cells are distinct when g >= 4, so the keys are unique
        yield start, indptr, np.sort(owner * m + order[pos[hit]])


def ideal_state(space, r, theta, t, seed):
    """A state satisfying the sampling hypothesis exactly: independent
    rate-theta coins over every vertex pair within distance r.

    Each vertex i draws its coins in ascending order over its neighbours
    j > i within r; the pairs come from a cell-grid scan, so the cost is
    about m times the ball population rather than m^2 once r < 0.4.
    """
    m = space.n
    rng = np.random.default_rng(seed)
    rows = []
    for start, _, keys in ball_scan(space.points, np.arange(m), r):
        owner, idx = np.divmod(keys, m)
        owner += start
        later = idx > owner
        owner, idx = owner[later], idx[later]
        keep = rng.random(owner.size) < theta
        rows.append(np.stack([owner[keep], idx[keep]], axis=1))
    edges = np.concatenate(rows) if rows else np.zeros((0, 2), dtype=np.int64)
    return TwoNrqState(space, edges, t=t)


def range_query_round(state, r_t, r_prev, g_value, seed, return_accept_counts=False):
    """One range-query update: E_t built fresh from E_{t-1}'s neighbor pairs.

    Every vertex of degree >= 2 proposes each unordered pair of its
    neighbors; each proposal costs one distance evaluation, is dropped
    beyond ``r_t``, and otherwise succeeds independently with probability
    ``g_value / nu`` where nu is the exact overlap volume of the two
    ``r_prev`` balls.  Successes are deduplicated into the new edge set;
    old edges are not carried over.
    """
    if not 0 < r_t < r_prev <= 1.0:
        raise InputError("need 0 < r_t < r_prev <= 1")
    rng = np.random.default_rng(seed)
    axes = np.ascontiguousarray(state.space.points.T)
    indptr, nbrs = state.adjacency()
    deg = np.diff(indptr)
    evals = 0
    ends, nus = [np.zeros((0, 2), dtype=np.int64)], [np.zeros(0)]
    # the hubs of degree g, g ascending, propose pairs i < j of their rows in
    # lexicographic order; each wrapped delta is computed once per axis
    for g in unique_keys(deg[deg >= 2]):
        block = nbrs[indptr[:-1][deg == g][:, None] + np.arange(g)]
        I, J = np.triu_indices(g, 1)
        evals += block.shape[0] * I.size
        deltas = [wrapped_deltas(x[:, I] - x[:, J]).ravel() for x in axes[:, block]]
        near = np.flatnonzero(functools.reduce(np.maximum, deltas) <= r_t)
        hub, pair = np.divmod(near, I.size)
        ends.append(np.stack([block[hub, I[pair]], block[hub, J[pair]]], axis=1))
        nus.append(_nu_many([t[near] for t in deltas], r_prev))
    f = g_value / np.concatenate(nus)
    if f.size and f.max() > 1.0 + 1e-9:
        raise InputError(f"acceptance rate {f.max():.6f} exceeds 1: overlap volume fell below g")
    accepted = np.concatenate(ends)[rng.random(f.size) < f]
    new_state = TwoNrqState(
        state.space,
        accepted,
        t=state.t + 1,
        distance_evals=state.distance_evals + evals,
    )
    if return_accept_counts:
        m = state.space.n
        keys, counts = np.unique(_edge_keys(accepted, m), return_counts=True)
        pairs = zip((keys // m).tolist(), (keys % m).tolist())
        return new_state, dict(zip(pairs, counts.tolist()))
    return new_state


@dataclass
class SamplingReport:
    """Measured sampling-property statistics for one round."""

    t: int
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

    @property
    def range_ok(self):
        return self.out_of_range_neighbors == 0

    @property
    def rate_ok(self):
        return abs(self.rate_z) <= 3.0

    @property
    def ks_ok(self):
        return not np.isfinite(self.ks_pvalue) or self.ks_pvalue >= 0.01

    def deg_z(self, K):
        return (self.deg_mean - K) / self.deg_se if self.deg_se > 0 else math.inf

    def to_json_dict(self):
        """The fields, with null for a non-finite statistic (strict JSON)."""
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }


def verify_sampling_property(state, r_t, theta_t, sample_size, seed=0, ks_cap_per_vertex=200):
    """Measure whether neighborhoods look like rate-theta_t ball samples.

    Checks, over sampled vertices: (a) no neighbor lies beyond r_t; (b) the
    mean of deg(v)/|ball population| versus theta_t in standard errors; and
    (c) a two-sided two-sample KS test at the h-transformed radial statistic
    between neighbor distances and non-neighbor in-ball distances.

    A ball of radius >= 1 is the whole torus and is not scanned.  The KS sample
    is drawn by rank, and only the drawn members get a distance.
    """
    from scipy import stats

    if sample_size < 2:
        raise InputError(
            f"need at least 2 sampled vertices for a standard error, got {sample_size}"
        )
    if not r_t > 0:
        raise InputError("need r_t > 0")
    m = state.space.n
    d = state.space.d
    pts = state.space.points
    rng = np.random.default_rng(seed)
    sample = rng.choice(m, size=min(sample_size, m), replace=False)
    indptr, nbrs = state.adjacency()
    sample_deg = np.diff(indptr)[sample]
    nbr_owner = np.repeat(np.arange(len(sample)), sample_deg)
    nbr_ptr, neigh = csr(nbr_owner, nbrs[csr_rows(indptr[sample], sample_deg)], len(sample))
    nbr_dist = wrapped_distance(pts[sample[nbr_owner]], pts[neigh])
    out_of_range = int((nbr_dist > r_t).sum())
    nbr_radial = (nbr_dist / r_t) ** d

    rates = np.empty(len(sample))
    pop_radial = []
    # every wrapped sup-distance is at most 1 (2 - t is exact for t in (1, 2]),
    # so a ball of radius >= 1 is the whole torus: one run, the key at p is p
    whole = r_t >= 1.0
    runs = [(0, np.arange(len(sample) + 1) * m, None)] if whole else ball_scan(pts, sample, r_t)
    for start, ptr, keys in runs:
        size = ptr.size - 1
        stop = start + size
        # every ball holds its centre (r_t > 0); the centre and its neighbors
        # leave the KS population, located by the sorted keys ball*m + vertex
        q = np.diff(ptr) - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = sample_deg[start:stop] / q
        rates[start:stop] = np.where(q > 0, rate, np.nan)
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
        pop = (np.diff(ptr) - np.diff(cut)).tolist()
        first = (ptr[:-1] - cut[:-1]).tolist()
        ranks = np.concatenate([
            f + (rng.choice(n, size=ks_cap_per_vertex, replace=False)
                 if n > ks_cap_per_vertex else np.arange(n))
            for f, n in zip(first, pop)
        ])
        pos = ranks + np.searchsorted(gone - np.arange(gone.size), ranks, side="right")
        # distances only for the picks, in the order they were drawn
        owner, vertex = np.divmod(pos if whole else keys[pos], m)
        dist = wrapped_distance(pts[sample[start + owner]], pts[vertex])
        pop_radial.append((dist / r_t) ** d)

    rates = rates[np.isfinite(rates)]
    rate_mean = float(rates.mean()) if rates.size else math.nan
    rate_se = float(rates.std(ddof=1) / math.sqrt(rates.size)) if rates.size > 1 else math.nan
    deg_mean = float(sample_deg.mean())
    deg_se = float(sample_deg.std(ddof=1) / math.sqrt(len(sample)))
    pop_radial = np.concatenate(pop_radial) if pop_radial else np.zeros(0)
    if nbr_radial.size >= 5 and pop_radial.size >= 5:
        ks = stats.ks_2samp(nbr_radial, pop_radial)
        ks_stat, ks_p = float(ks.statistic), float(ks.pvalue)
    else:
        ks_stat, ks_p = math.nan, math.nan
    return SamplingReport(
        t=state.t,
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


@dataclass
class TwoNrqResult:
    state: TwoNrqState
    schedule: Schedule
    report: dict


def run_2nrq(
    n_mean,
    K,
    d,
    alpha,
    seed,
    verify_rounds=False,
    sample_size=500,
    idealized_inputs=False,
):
    """Full pipeline: sample points, derive the schedule, run every round.

    The schedule is computed from the realized point count (the algorithm
    knows its input), not from n_mean: the update equation squares the
    previous rate each round, so even the Poisson fluctuation of the count
    would otherwise compound into a visible rate bias at desk scale.

    With ``idealized_inputs`` each round's input edge set is regenerated as
    an exact rate-theta sample of in-range pairs, isolating the one-step
    update from dependence accumulated across rounds (a diagnostic, not the
    algorithm).
    """
    root = np.random.SeedSequence(int(seed))
    space_seed, e0_seed, round_seed, verify_seed, ideal_seed = (
        int(s) for s in root.generate_state(5)
    )
    space = torus_poisson(n_mean, d, space_seed)
    m = space.n
    params = derive_params(float(m), K, d, alpha)
    schedule = compute_schedule(params)
    state = init_e0(space, K, float(m), e0_seed)
    round_seeds = [round_seed + t for t in range(schedule.tau + 1)]
    verify_seeds = [verify_seed + t for t in range(schedule.tau + 1)]
    ideal_seeds = [ideal_seed + t for t in range(schedule.tau + 1)]

    per_round = []
    reports = []
    if verify_rounds:
        rep = verify_sampling_property(
            state, schedule.radii[0], schedule.rates[0], sample_size, seed=verify_seeds[0]
        )
        reports.append(rep)
    evals = 0
    for t in range(1, schedule.tau + 1):
        r_t, r_prev = schedule.radii[t], schedule.radii[t - 1]
        g_value = g_min_overlap(r_t, r_prev, d)
        src = state
        if idealized_inputs and t > 1:
            src = ideal_state(space, r_prev, schedule.rates[t - 1], t - 1, ideal_seeds[t - 1])
            src.distance_evals = state.distance_evals
        state = range_query_round(src, r_t, r_prev, g_value, round_seeds[t - 1])
        per_round.append(
            {
                "t": t,
                "r_t": r_t,
                "theta_t": schedule.rates[t],
                "edges": state.edge_count,
                "mean_degree": float(state.degrees().mean()),
                "distance_evals": state.distance_evals - evals,
            }
        )
        evals = state.distance_evals
        if verify_rounds:
            rep = verify_sampling_property(
                state, r_t, schedule.rates[t], sample_size, seed=verify_seeds[t]
            )
            reports.append(rep)

    report = {
        "n_mean": float(n_mean),
        "realized_points": m,
        "K": K,
        "d": d,
        "alpha": alpha,
        "seed": int(seed),
        "idealized_inputs": bool(idealized_inputs),
        "tau": schedule.tau,
        "t_prime": schedule.t_prime,
        "radii": list(schedule.radii),
        "rates": list(schedule.rates),
        "distance_evals": state.distance_evals,
        "tau_bound": tau_bound(params, n=float(n_mean)),
        "work_bound": work_bound(params, schedule.t_prime, n=float(n_mean)),
        "per_round": per_round,
        "sampling_reports": [r.to_json_dict() for r in reports],
    }
    return TwoNrqResult(state=state, schedule=schedule, report=report)
