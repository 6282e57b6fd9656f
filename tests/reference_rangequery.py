"""Reference copies of superseded 2NRQ code from ``nndlab.rangequery``.

``verify_sampling_property`` and ``ideal_state`` are copied verbatim as they
stood before the cell-grid ball scan replaced their all-points scans.
``_nu_many``, ``ball_scan``, ``_hub_pairs`` and ``range_query_round`` are
copied verbatim as they stood while a round gathered its proposals as an
array of vertex pairs and a ball scan returned each member's distance.
``tests/test_rangequery_reference.py`` requires the package versions to
return equal reports, edge arrays, ball members and work counts.  The
package's states have since dropped their round index and work meter, so
these copies build ``TwoNrqState`` without them, the round returns its
distance evaluations beside the new state, and a report carries no round
index.
"""

import math

import numpy as np

from nndlab.errors import InputError
from nndlab.rangequery import SamplingReport, TwoNrqState
from nndlab.ranking import csr_rows, unique_keys
from nndlab.spaces import wrapped_distance
from reference_spaces import wrapped_deltas


def _edge_keys(edges, m):
    """One int64 key lo*m + hi per undirected edge, as ``TwoNrqState`` takes them."""
    return np.minimum(edges[:, 0], edges[:, 1]) * m + np.maximum(edges[:, 0], edges[:, 1])


_SCAN_ENTRIES = 1 << 20  # candidate pairs examined per chunk of ball centres


def ideal_state(space, r, theta, seed, chunk=256):
    """A state satisfying the sampling hypothesis exactly: independent
    rate-theta coins over every vertex pair within distance r.

    Quadratic in the vertex count; intended as the conditioned-input
    diagnostic, not as part of the algorithm.
    """
    m = space.n
    rng = np.random.default_rng(seed)
    pts = space.points
    rows = []
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        block = wrapped_deltas(pts[start:stop, None, :] - pts[None, :, :]).max(axis=2)
        for local, i in enumerate(range(start, stop)):
            near = np.flatnonzero(block[local, i + 1 :] <= r) + i + 1
            if near.size:
                keep = near[rng.random(near.size) < theta]
                if keep.size:
                    rows.append(np.stack([np.full(keep.size, i, dtype=np.int64), keep], axis=1))
    edges = np.concatenate(rows) if rows else np.zeros((0, 2), dtype=np.int64)
    return TwoNrqState(space, _edge_keys(edges, m))


def verify_sampling_property(state, r_t, theta_t, sample_size, seed=0, ks_cap_per_vertex=200):
    """Measure whether neighborhoods look like rate-theta_t ball samples.

    Checks, over sampled vertices: (a) no neighbor lies beyond r_t; (b) the
    mean of deg(v)/|ball population| versus theta_t in standard errors; and
    (c) a two-sided two-sample KS test at the h-transformed radial statistic
    between neighbor distances and non-neighbor in-ball distances.
    """
    from scipy import stats

    m = state.space.n
    d = state.space.d
    pts = state.space.points
    rng = np.random.default_rng(seed)
    sample = rng.choice(m, size=min(sample_size, m), replace=False)
    indptr, nbrs = state.adjacency()
    deg = np.diff(indptr)

    rates = np.empty(len(sample))
    out_of_range = 0
    nbr_radial = []
    pop_radial = []
    chunk = 256
    for start in range(0, len(sample), chunk):
        idx = sample[start : start + chunk]
        block = wrapped_deltas(pts[idx][:, None, :] - pts[None, :, :]).max(axis=2)
        for local, v in enumerate(idx):
            row = block[local]
            in_ball = row <= r_t
            in_ball[v] = False
            q = int(in_ball.sum())
            neigh = nbrs[indptr[v] : indptr[v + 1]]
            out_of_range += int((row[neigh] > r_t).sum())
            rates[start + local] = deg[v] / q if q else np.nan
            if neigh.size:
                nbr_radial.append((row[neigh] / r_t) ** d)
            others = np.flatnonzero(in_ball)
            others = np.setdiff1d(others, neigh, assume_unique=False)
            if others.size > ks_cap_per_vertex:
                others = rng.choice(others, size=ks_cap_per_vertex, replace=False)
            if others.size:
                pop_radial.append((row[others] / r_t) ** d)

    rates = rates[np.isfinite(rates)]
    rate_mean = float(rates.mean())
    rate_se = float(rates.std(ddof=1) / math.sqrt(len(rates)))
    deg_sample = deg[sample]
    deg_mean = float(deg_sample.mean())
    deg_se = float(deg_sample.std(ddof=1) / math.sqrt(len(sample)))
    nbr_radial = np.concatenate(nbr_radial) if nbr_radial else np.zeros(0)
    pop_radial = np.concatenate(pop_radial) if pop_radial else np.zeros(0)
    if nbr_radial.size >= 5 and pop_radial.size >= 5:
        ks = stats.ks_2samp(nbr_radial, pop_radial)
        ks_stat, ks_p = float(ks.statistic), float(ks.pvalue)
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


def _nu_many(deltas, r):
    per_axis = np.minimum(
        2.0, np.maximum(0.0, 2 * r - deltas) + np.maximum(0.0, 2 * r + deltas - 2.0)
    )
    return per_axis.prod(axis=1)


def ball_scan(points, centres, r):
    """Points within wrapped sup-distance ``r`` of each centre, in chunks of centres.

    ``centres`` are indices into ``points``.  Yields ``(start, indptr, idx,
    dist)`` for consecutive runs ``centres[start:start + len(indptr) - 1]``:
    the ball of the k-th centre of a run is ``idx[indptr[k]:indptr[k + 1]]``
    in ascending order (the centre included) with distances ``dist``.

    The points are bucketed into a wrapping grid of g^d cells with
    g = floor(2/r) - 1, so each cell side 2/g is strictly greater than r and
    a ball meets only the 3^d cells around its centre's cell, however the
    coordinates round (Bentley, Stanat & Williams, IPL 1977).  When g <= 3
    that window is the whole torus, and every point is scanned as one row.
    """
    centres = np.asarray(centres, dtype=np.int64)
    m, d = np.shape(points)
    axes = np.ascontiguousarray(np.transpose(points), dtype=np.float64)  # one row per coordinate
    g = min(int(2.0 / r) - 1, int(2.0 ** (62.0 / d)))  # cell ids must fit in int64
    if g <= 3:
        rows = max(1, _SCAN_ENTRIES // max(m, 1))
        for start in range(0, centres.size, rows):
            chunk = np.take(axes, centres[start : start + rows], axis=1)
            dist = wrapped_distance(chunk.T[:, None, :], axes.T[None, :, :])
            inside = dist <= r
            indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
            # flat positions and a gather beat boolean masks on dense rows
            hit = np.flatnonzero(inside)
            yield start, indptr, hit % m, dist.ravel()[hit]
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
        cand = order[pos[hit]]
        # the 3^d cells are distinct when g >= 4, so the keys are unique
        by_key = np.argsort(owner * m + cand)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=chunk.size))])
        yield start, indptr, cand[by_key], dist[hit[by_key]]


def _hub_pairs(state):
    """All (neighbor, neighbor) pairs proposed by degree >= 2 vertices."""
    indptr, nbrs = state.adjacency()
    deg = np.diff(indptr)
    groups = [np.zeros((0, 2), dtype=np.int64)]
    for g in unique_keys(deg[deg >= 2]):
        hubs = np.flatnonzero(deg == g)
        pairs = np.stack(np.triu_indices(g, 1), axis=1)  # i < j, lexicographic
        block = nbrs[indptr[hubs][:, None] + np.arange(g)[None, :]]
        groups.append(block[:, pairs].reshape(-1, 2))
    return np.concatenate(groups)


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
    proposals = _hub_pairs(state)
    evals = proposals.shape[0]
    if evals:
        u = np.take(axes, proposals[:, 0], axis=1).T
        v = np.take(axes, proposals[:, 1], axis=1).T
        in_range = np.flatnonzero(wrapped_distance(u, v) <= r_t)
        prop = proposals[in_range]
        nu = _nu_many(wrapped_deltas(u[in_range] - v[in_range]), r_prev)
        f = g_value / nu
        if f.size and f.max() > 1.0 + 1e-9:
            raise InputError(
                f"acceptance rate {f.max():.6f} exceeds 1: overlap volume fell below g"
            )
        accepted = prop[rng.random(f.size) < f]
    else:
        accepted = np.zeros((0, 2), dtype=np.int64)
    new_state = TwoNrqState(state.space, _edge_keys(accepted, state.space.n))
    if return_accept_counts:
        m = state.space.n
        keys, counts = np.unique(_edge_keys(accepted, m), return_counts=True)
        pairs = zip((keys // m).tolist(), (keys % m).tolist())
        return (new_state, evals), dict(zip(pairs, counts.tolist()))
    return new_state, evals
