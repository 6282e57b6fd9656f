"""Reference copies of the quadratic 2NRQ verification and ideal-state sampler.

``verify_sampling_property`` and ``ideal_state`` are copied verbatim from
``nndlab.rangequery`` as they stood before the cell-grid ball scan replaced
their all-points scans.  ``tests/test_rangequery_reference.py`` requires the
package versions to return equal reports and equal edge arrays.
"""

import math

import numpy as np

from nndlab.rangequery import SamplingReport, TwoNrqState
from nndlab.spaces import wrapped_deltas


def ideal_state(space, r, theta, t, seed, chunk=256):
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
    return TwoNrqState(space, edges, t=t)


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
