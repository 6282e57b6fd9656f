import itertools
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nndlab import rangequery
from nndlab.errors import InputError, ScheduleExhausted
from nndlab.rangequery import (
    SamplingReport,
    TwoNrqParams,
    TwoNrqState,
    ball_scan,
    compute_schedule,
    g_min_overlap,
    ideal_state,
    init_e0,
    range_query_round,
    run_2nrq,
    schedule_csv,
    solve_next_radius,
    tau_bound,
    verify_sampling_property,
)
from nndlab.spaces import TorusSpace, torus_poisson, wrapped_distance
from reference_csr import edges as pairs
from reference_spaces import wrapped_deltas

GOLDEN = dict(n=1e7, K=28, d=4, alpha=0.5)
DESK = dict(n=2e4, K=12, d=2, alpha=0.5)


class TestDeriveParams:
    def test_golden_parameter_table(self):
        p = TwoNrqParams(**GOLDEN)
        assert p.beta == pytest.approx(1.386, abs=1e-3)
        assert p.gamma == pytest.approx(0.6387, abs=5e-4)
        assert p.gamma_star == pytest.approx(0.7621, abs=5e-4)
        assert p.alpha * p.gamma ** 4 == pytest.approx(0.083, abs=1e-3)
        assert 3.68 < p.t_prime_bound < 3.70

    def test_one_dimensional_gamma(self):
        p = TwoNrqParams(1e4, 3, 1, 0.4)
        assert p.gamma == pytest.approx(1 - math.sqrt(1 / 3), abs=1e-12)

    def test_beta_limit_as_alpha_vanishes(self):
        alpha = 1e-6
        p = TwoNrqParams(1e4, 12, 2, alpha)
        assert abs(p.beta - (1 + alpha / 2)) < 1e-6

    def test_dimension_too_high(self):
        with pytest.raises(InputError, match="2\\^d"):
            TwoNrqParams(1e4, 4, 2, 0.5)

    def test_beta_out_of_range(self):
        # K/2^d = 1.25 but beta(0.9) > 2.5
        with pytest.raises(InputError, match="beta"):
            TwoNrqParams(1e4, 5, 2, 0.9)

    @pytest.mark.parametrize(
        "K,alpha,advice",
        [(12, 1e-300, "raise alpha"), (5, 0.9, "lower alpha")],
        ids=["beta-not-above-1", "beta-not-below-K-over-2d"],
    )
    def test_beta_advice_points_the_right_way(self, K, alpha, advice):
        # beta rises with alpha from 1, so only a higher alpha lifts beta above 1
        with pytest.raises(InputError, match=advice):
            TwoNrqParams(300, K, 2, alpha)

    @pytest.mark.parametrize("K,alpha,match", [(2, 0.5, "2\\^d"), (28, 1.5, "alpha")],
                             ids=["K-not-above-2^d", "alpha-above-1"])
    def test_the_record_checks_its_own_fields(self, K, alpha, match):
        # built directly, each raised "math domain error" from gamma or compute_schedule
        with pytest.raises(InputError, match=match):
            TwoNrqParams(1e7, K, 4, alpha)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_n(self, n):
        with pytest.raises(InputError, match="finite n"):
            TwoNrqParams(n, 12, 2, 0.5)

    def test_envelope_ordering(self):
        p = TwoNrqParams(**DESK)
        assert 0 < p.gamma < p.gamma_star < 1
        assert p.beta == pytest.approx(-math.log(1 - p.alpha) / p.alpha, abs=1e-12)


class TestOverlapVolumes:
    def test_g_at_s_equals_r(self):
        assert g_min_overlap(0.3, 0.3, 3) == pytest.approx(0.3 ** 3)

    def test_g_caps_at_one(self):
        assert g_min_overlap(0.5, 0.8, 3) == 1.0

    def test_g_direct_value(self):
        assert g_min_overlap(0.3, 0.4, 2) == pytest.approx(0.25)

    def test_g_zero_when_far(self):
        assert g_min_overlap(0.9, 0.4, 2) == 0.0

    def test_nu_full_ball(self):
        v = np.array([0.1, -0.2, 0.5])
        assert rangequery._nu_many(wrapped_deltas(v - v), 0.3) == pytest.approx(0.6 ** 3)

    def test_nu_line_segment(self):
        delta = wrapped_deltas(np.array([0.0]) - np.array([0.3]))
        assert rangequery._nu_many(delta, 0.4) == pytest.approx(0.5)

    def test_nu_matches_monte_carlo(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            v = rng.uniform(-1, 1, size=3)
            vp = v + rng.uniform(-0.25, 0.25, size=3)
            r = rng.uniform(0.3, 0.6)
            exact = rangequery._nu_many(wrapped_deltas(v - vp), r)
            samples = rng.uniform(-1, 1, size=(1_000_000, 3))
            inside = (
                (wrapped_deltas(samples - v).max(axis=1) <= r)
                & (wrapped_deltas(samples - vp).max(axis=1) <= r)
            ).mean()
            estimate = inside * 8.0
            sigma = 8.0 * math.sqrt(inside * (1 - inside) / 1_000_000)
            assert abs(estimate - exact) <= 3 * sigma + 1e-9


def _update_residual(params, r_prev, r_t):
    # the update equation itself, as an independent oracle
    n, K, d = params.n, params.K, params.d
    g = min(1.0, (2 * r_prev - r_t) ** d)
    lhs = (K / (n * r_prev ** d)) ** 2 * n * g / 2 ** d
    rhs = -math.log1p(-K / (n * r_t ** d))
    return lhs - rhs


class TestRadiusSolver:
    def test_golden_explicit_steps(self):
        p = TwoNrqParams(**GOLDEN)
        r1, explicit1 = solve_next_radius(p, 1.0)
        assert explicit1 and r1 == pytest.approx(0.8694, abs=5e-4)
        r2, explicit2 = solve_next_radius(p, r1)
        assert explicit2 and r2 == pytest.approx(0.6572, abs=5e-4)

    def test_golden_first_implicit_step(self):
        p = TwoNrqParams(**GOLDEN)
        r1, _ = solve_next_radius(p, 1.0)
        r2, _ = solve_next_radius(p, r1)
        r3, explicit3 = solve_next_radius(p, r2)
        assert not explicit3
        assert r3 == pytest.approx(0.420, abs=1e-3)

    def test_solutions_satisfy_update_equation(self):
        p = TwoNrqParams(**DESK)
        schedule = compute_schedule(p)
        for r_prev, r_t in zip(schedule.radii, schedule.radii[1:]):
            assert abs(_update_residual(p, r_prev, r_t)) < 1e-9

    def test_exhaustion_signal(self):
        p = TwoNrqParams(**DESK)
        r_min = (p.K / (p.n * p.alpha)) ** (1 / p.d)
        with pytest.raises(ScheduleExhausted):
            solve_next_radius(p, r_min * 1.0000001)

    def test_precondition(self):
        p = TwoNrqParams(**DESK)
        with pytest.raises(InputError):
            solve_next_radius(p, 1.2)

    def test_underflowing_coefficient_names_n(self):
        # theta^2 * n underflows to 0 and the closed form divided by zero
        p = TwoNrqParams(1e300, 12, 2, 0.5)
        with pytest.raises(InputError, match="--n"):
            solve_next_radius(p, 1.0)


class TestSchedule:
    def test_golden_shape(self):
        schedule = compute_schedule(TwoNrqParams(**GOLDEN))
        assert schedule.tau == 8
        assert schedule.t_prime == 2
        assert len(schedule.radii) == 9

    def test_golden_rates(self):
        schedule = compute_schedule(TwoNrqParams(**GOLDEN))
        stated = [5e-4, 3.2e-3, 1.91e-2, 1.040e-1, 3.856e-1]
        for theta, expected in zip(schedule.rates[4:], stated):
            assert theta == pytest.approx(expected, abs=3e-4)

    def test_monotone_chains(self):
        schedule = compute_schedule(TwoNrqParams(**GOLDEN))
        radii, rates = np.array(schedule.radii), np.array(schedule.rates)
        assert (np.diff(radii) < 0).all() and radii[0] == 1.0
        assert (np.diff(rates) > 0).all()
        p = schedule.params
        assert radii[-1] ** p.d >= p.K / (p.n * p.alpha)

    def test_coupling_identity(self):
        schedule = compute_schedule(TwoNrqParams(**GOLDEN))
        p = schedule.params
        for r, theta in zip(schedule.radii, schedule.rates):
            assert abs(theta * p.n * r ** p.d - p.K) < 1e-9

    def test_geometric_sandwich_after_t_prime(self):
        for kwargs in (GOLDEN, DESK):
            schedule = compute_schedule(TwoNrqParams(**kwargs))
            p = schedule.params
            for t in range(schedule.t_prime + 1, schedule.tau + 1):
                ratio = schedule.radii[t] / schedule.radii[t - 1]
                assert p.gamma < ratio <= p.gamma_star

    def test_success_rate_ratio_bounds(self):
        schedule = compute_schedule(TwoNrqParams(**GOLDEN))
        p = schedule.params
        for t in range(schedule.t_prime + 1, schedule.tau + 1):
            ratio = schedule.rates[t] / schedule.rates[t - 1]
            assert p.gamma_star ** -p.d <= ratio < p.gamma ** -p.d

    def test_final_rate_window(self):
        for kwargs in (GOLDEN, DESK):
            schedule = compute_schedule(TwoNrqParams(**kwargs))
            p = schedule.params
            assert p.alpha * p.gamma ** p.d < schedule.rates[-1] <= p.alpha

    def test_tau_within_bound(self):
        for kwargs in (GOLDEN, DESK):
            p = TwoNrqParams(**kwargs)
            schedule = compute_schedule(p)
            assert schedule.tau <= schedule.t_prime + math.log(
                p.n * p.alpha / p.K
            ) / (p.d * math.log(1 / p.gamma_star))

    def test_doubling_n_adds_at_most_one_round(self):
        tau1 = compute_schedule(TwoNrqParams(2e4, 12, 2, 0.5)).tau
        tau2 = compute_schedule(TwoNrqParams(4e4, 12, 2, 0.5)).tau
        assert tau2 - tau1 in (0, 1)

    def test_csv_export(self):
        schedule = compute_schedule(TwoNrqParams(**DESK))
        text = schedule_csv(schedule)
        lines = text.strip().splitlines()
        assert lines[0] == "t,r_t,theta_t,formula_used"
        assert len(lines) == schedule.tau + 2
        assert lines[1].endswith("init")


class TestTwoNrqState:
    # three points: the edges 0-1, 0-2 and 1-2 have the keys lo*3 + hi = 1, 2 and 5
    SPACE = TorusSpace(np.zeros((3, 2)))

    def test_repeated_keys_collapse(self):
        state = TwoNrqState(self.SPACE, [5, 1, 5, 2, 1, 1])
        np.testing.assert_array_equal(pairs(state), [[0, 1], [0, 2], [1, 2]])
        assert not any(a.flags.writeable for a in state.adjacency())
        assert state.edge_count == 3

    @pytest.mark.parametrize(
        "keys",
        [[-1], [1, -4], [9], [2, 10], [0], [4], [8], [3], [1, 7]],
        ids=["negative", "negative-among-valid", "m^2", "above-m^2", "loop-0", "loop-1",
             "loop-2", "lo>hi", "lo>hi-among-valid"],
    )
    def test_refuses_keys_outside_lo_below_hi(self, keys):
        with pytest.raises(InputError, match="edge keys"):
            TwoNrqState(self.SPACE, keys)


class TestInitE0:
    def test_mean_degree(self):
        space = torus_poisson(5000, 2, seed=3)
        state = init_e0(space, 12, seed=4)
        mean_deg = 2 * state.edge_count / space.n
        assert abs(mean_deg - 12 * (space.n - 1) / space.n) < 0.3

    def test_rate_one_gives_complete_graph(self):
        space = torus_poisson(30, 2, seed=5)
        m = space.n
        state = init_e0(space, K=m, seed=0)
        assert state.edge_count == m * (m - 1) // 2

    def test_degrees_are_binomial(self):
        from scipy import stats

        space = torus_poisson(10_000, 2, seed=6)
        m = space.n
        state = init_e0(space, 12, seed=7)
        deg = state.degrees()
        dist = stats.binom(m - 1, 12 / m)
        hi = int(dist.ppf(0.99999)) + 1
        observed = np.bincount(np.minimum(deg, hi), minlength=hi + 1)
        expected = dist.pmf(np.arange(hi + 1)) * m
        expected[hi] += (1 - dist.cdf(hi)) * m
        cut = np.flatnonzero(expected >= 5)
        lo, hi2 = cut[0], cut[-1]
        obs = np.concatenate(
            [[observed[:lo].sum()], observed[lo : hi2 + 1], [observed[hi2 + 1 :].sum()]]
        )
        exp = np.concatenate(
            [[expected[:lo].sum()], expected[lo : hi2 + 1], [expected[hi2 + 1 :].sum()]]
        )
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue > 0.01

    def test_deterministic(self):
        space = torus_poisson(500, 2, seed=1)
        a = init_e0(space, 8, seed=2)
        b = init_e0(space, 8, seed=2)
        assert np.array_equal(pairs(a), pairs(b))


class TestBallScanInput:
    POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, 2))

    @pytest.mark.parametrize("centres, r", [
        ([0, 1], 0.0), ([0, 1], -0.1), ([0, 1], math.nan), ([0, 10 ** 6], 0.5),
        ([0, 10 ** 6], 0.1), ([-1], 0.5), ([0.0, 1.0], 0.5), ([True], 0.5),
    ], ids=["r=0", "r<0", "r=nan", "id-past-m-rows", "id-past-m-grid", "negative-id",
            "float-ids", "bool-ids"])
    def test_refuses_bad_arguments(self, centres, r):
        # these raised ZeroDivisionError, ValueError and IndexError, or scanned
        with pytest.raises(InputError, match="ball_scan needs"):
            list(ball_scan(self.POINTS, np.array(centres), r))

    def test_empty_centres_scan_nothing(self):
        assert list(ball_scan(self.POINTS, [], 0.5)) == []
        assert list(ball_scan(self.POINTS, [], 0.1)) == []


def _three_point_state(r_gap):
    pts = np.array([[0.0, 0.0], [r_gap / 2, 0.0], [-r_gap / 2, 0.0]])
    pts.setflags(write=False)
    space = TorusSpace(pts)
    return space, TwoNrqState(space, [1, 2])  # keys lo*3 + hi of the edges 0-1 and 0-2


class TestRangeQueryRound:
    def test_degree_one_graph_proposes_nothing(self):
        space = torus_poisson(100, 2, seed=8)
        m = space.n
        state = TwoNrqState(space, [0 * m + 1, 2 * m + 3, 4 * m + 5])
        after, evals = range_query_round(state, 0.3, 1.0, seed=0)
        assert after.edge_count == 0
        assert evals == 0

    def test_out_of_range_pair_never_joined(self):
        space, state = _three_point_state(0.6)
        for seed in range(20):
            after, evals = range_query_round(state, 0.5, 1.0, seed=seed)
            assert after.edge_count == 0
            assert evals == 1

    def test_in_range_pair_eventually_joined(self):
        space, state = _three_point_state(0.3)
        joined = sum(
            range_query_round(state, 0.5, 1.0, seed=s)[0].edge_count for s in range(60)
        )
        assert joined > 0

    def test_accepted_common_neighbor_counts_match_poisson_mean(self):
        # accepted proposals per in-range pair average n theta^2 g / 2^d
        rng = np.random.default_rng(9)
        space = torus_poisson(2e4, 2, seed=10)
        m = space.n
        state = init_e0(space, 12, seed=11)
        p = TwoNrqParams(m, 12, 2, 0.5)
        schedule = compute_schedule(p)
        r1 = schedule.radii[1]
        g = g_min_overlap(r1, 1.0, 2)
        raw = []
        build = TwoNrqState.__init__

        def spy(self, space, keys, **kwargs):
            raw.append(keys)  # the accepted proposals as keys lo*m + hi, repeats kept
            build(self, space, keys, **kwargs)

        with mock.patch.object(TwoNrqState, "__init__", spy):
            range_query_round(state, r1, 1.0, seed=12)
        keys, hits = np.unique(raw[0], return_counts=True)
        counts = dict(zip(zip((keys // m).tolist(), (keys % m).tolist()), hits.tolist()))
        mu = m * (12 / m) ** 2 * g / 4
        draws = 400_000
        a = rng.integers(0, m, size=draws)
        b = rng.integers(0, m, size=draws)
        keep = a != b
        d = wrapped_deltas(space.points[a[keep]] - space.points[b[keep]]).max(axis=1)
        sel = d <= r1
        pairs = np.stack([a[keep][sel], b[keep][sel]], axis=1)
        observed = np.array(
            [counts.get((min(u, v), max(u, v)), 0) for u, v in pairs], dtype=float
        )
        sigma = math.sqrt(mu / observed.size)
        assert abs(observed.mean() - mu) <= 3 * sigma

    def test_no_edge_exceeds_radius(self):
        result = run_2nrq(3000, 12, 2, 0.5, seed=13)
        final_r = result.schedule.radii[-1]
        if result.state.edge_count:
            a, b = pairs(result.state).T
            p = result.state.space.points
            assert wrapped_distance(p[a], p[b]).max() <= final_r + 1e-12

    def test_radius_ordering_validated(self):
        space = torus_poisson(50, 2, seed=0)
        state = TwoNrqState(space, [1])
        with pytest.raises(InputError):
            range_query_round(state, 0.9, 0.5, seed=0)


class TestSamplingProperty:
    def test_round_zero_rate(self):
        space = torus_poisson(8000, 2, seed=14)
        m = space.n
        state = init_e0(space, 12, seed=15)
        report = verify_sampling_property(state, 1.0, 12.0 / m, 500, seed=16)
        assert report.out_of_range_neighbors == 0
        assert abs(report.rate_z) <= 3
        assert abs(report.deg_mean - 12) <= 3 * report.deg_se

    def test_first_round_uniformity(self):
        # E_0 has independent coins, so one update satisfies the one-step law
        result = run_2nrq(2e4, 12, 2, 0.5, seed=5, sample_size=500)
        first = result.report["sampling_reports"][1]
        assert first["out_of_range_neighbors"] == 0
        assert abs(first["rate_z"]) <= 3
        assert first["ks_pvalue"] >= 0.01
        # the measured final-round rate lands in the guaranteed window even
        # though it runs above the schedule value
        p = result.schedule.params
        final = result.report["sampling_reports"][-1]
        assert p.alpha * p.gamma ** p.d < final["rate_mean"] <= p.alpha

    def test_conditioned_rounds_all_satisfy_property(self):
        # feeding each round an exact rate-theta sample isolates the
        # one-step update, which then verifies at every round
        result = run_2nrq(1e4, 12, 2, 0.5, seed=6, idealized_inputs=True)
        for rep in result.report["sampling_reports"]:
            assert rep["out_of_range_neighbors"] == 0
            assert abs(rep["rate_z"]) <= 3.5
        final = result.report["sampling_reports"][-1]
        assert abs(final["deg_mean"] - 12) <= 3.5 * final["deg_se"]

    def test_report_writes_null_for_non_finite_statistics(self):
        report = SamplingReport(
            r_t=0.5, theta_t=0.01, sampled=2, out_of_range_neighbors=0,
            rate_mean=0.01, rate_se=0.0, rate_z=math.inf, deg_mean=3.0, deg_se=0.0,
            ks_stat=math.nan, ks_pvalue=math.nan,
        )
        doc = report.to_json_dict()
        assert doc["rate_z"] is None and doc["ks_stat"] is None and doc["ks_pvalue"] is None
        assert doc["rate_se"] == 0.0 and doc["sampled"] == 2 and "t" not in doc

    def test_ideal_state_rate(self):
        space = torus_poisson(2000, 2, seed=17)
        state = ideal_state(space, 0.5, 0.01, seed=18)
        report = verify_sampling_property(state, 0.5, 0.01, 400, seed=19)
        assert report.out_of_range_neighbors == 0 and abs(report.rate_z) <= 3


class TestRun2nrq:
    def test_rounds_and_work_within_bounds(self):
        result = run_2nrq(DESK["n"], DESK["K"], DESK["d"], DESK["alpha"], seed=1)
        schedule = result.schedule
        assert schedule.tau <= tau_bound(TwoNrqParams(**DESK))
        assert result.report["distance_evals"] <= 5 * DESK["n"] * DESK["K"] ** 2 * schedule.tau

    def test_report_contents(self):
        result = run_2nrq(2000, 12, 2, 0.5, seed=2)
        report = result.report
        assert report["tau"] == result.schedule.tau
        assert len(report["per_round"]) == report["tau"]
        assert report["distance_evals"] > 0
        import json

        json.dumps(report)  # must be JSON-serializable

    def test_deterministic(self):
        a = run_2nrq(2000, 12, 2, 0.5, seed=3)
        b = run_2nrq(2000, 12, 2, 0.5, seed=3)
        assert np.array_equal(pairs(a.state), pairs(b.state))
        assert a.report["distance_evals"] == b.report["distance_evals"]

    @pytest.mark.parametrize("idealized", [False, True], ids=["plain", "idealized"])
    def test_distance_evals_are_the_pairs_each_round_proposes(self, monkeypatch, idealized):
        # round t evaluates one distance per pair of neighbours in the state it
        # proposes from, E_{t-1} or, idealized, the ideal sample standing for it
        real_round = rangequery.range_query_round
        inputs = []

        def record(state, *args):
            inputs.append(state)
            return real_round(state, *args)

        monkeypatch.setattr(rangequery, "range_query_round", record)
        result = run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100, idealized_inputs=idealized)
        per_round = result.report["per_round"]
        assert len(inputs) == len(per_round) == result.schedule.tau
        for t, state in enumerate(inputs, start=1):
            deg = state.degrees()
            assert per_round[t - 1]["distance_evals"] == int((deg * (deg - 1) // 2).sum())
        assert result.report["distance_evals"] == sum(r["distance_evals"] for r in per_round)


def _peak_above_start(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in MB, under tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


_SMALL = torus_poisson(200, 2, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: g_min_overlap(math.nan, 0.5, 2),
        lambda: g_min_overlap(0.1, math.nan, 2),
        lambda: solve_next_radius(TwoNrqParams(**DESK), math.nan),
        lambda: init_e0(_SMALL, math.nan, 0),
        lambda: init_e0(_SMALL, -1, 0),
        lambda: ideal_state(_SMALL, 0.5, math.nan, 0),
        lambda: verify_sampling_property(init_e0(_SMALL, 12, 1), 0.5, 0.1, 2.5),
        lambda: torus_poisson(math.nan, 2, 0),
        lambda: torus_poisson(math.inf, 2, 0),
    ],
    ids=["g-nan-s", "g-nan-r", "radius-nan", "e0-nan-k", "e0-negative-k",
         "ideal-nan-theta", "verify-float-sample", "poisson-nan-n", "poisson-inf-n"],
)
def test_bad_numeric_arguments_raise_input_error(call):
    # each of these once returned a quiet result or raised a numpy or type error
    with pytest.raises(InputError):
        call()


def test_init_and_first_round_memory_is_bounded(monkeypatch):
    # the benchmark's configuration; a round that kept every in-range proposal
    # until its coins were drawn peaked at 26.7 MB, and init_e0 at 27.1 MB
    # (11.4 MB with int64 draws and a state held as pairs and a CSR, 6.4 MB since).
    # tracemalloc sees every thread, so the worker's first task, the ball
    # index of verification 0, waits until round 1 has been measured
    real_init, real_round = rangequery.init_e0, rangequery.range_query_round
    real_index = rangequery._sample_balls
    peaks = {}
    measured = threading.Event()

    def init(*args):
        state, peaks["init_e0"] = _peak_above_start(real_init, *args)
        return state

    def first_round(state, *args):
        if measured.is_set():
            return real_round(state, *args)
        try:
            new, peaks["round 1"] = _peak_above_start(real_round, state, *args)
        finally:
            measured.set()
        return new

    def index(*args):
        measured.wait(timeout=120)
        return real_index(*args)

    monkeypatch.setattr(rangequery, "init_e0", init)
    monkeypatch.setattr(rangequery, "range_query_round", first_round)
    monkeypatch.setattr(rangequery, "_sample_balls", index)
    run_2nrq(2e4, 12, 2, 0.5, seed=1)
    assert peaks["init_e0"] <= 8
    assert peaks["round 1"] <= 12


def test_state_holds_one_csr():
    # a state that kept an (E, 2) pair list beside its CSR held 33 bytes per
    # edge, and building the CSR from 2E concatenated entries peaked at 82;
    # placing the upper and lower halves through a row mask peaked at 34, and
    # int64 neighbours held 16 per edge and peaked at 26
    space = torus_poisson(2e4, 2, seed=23)
    m = space.n
    a, b = np.random.default_rng(24).integers(0, m, size=(2, 100_000))
    keys = (np.minimum(a, b) * m + np.maximum(a, b))[a != b]
    tracemalloc.start()
    try:
        state = TwoNrqState(space, keys)
        state.adjacency()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = state.edge_count
    assert edges > 99_000
    assert held <= 8 * edges + 8 * (m + 1) + 4096
    assert peak <= 22 * edges


def test_round_memory_is_bounded_by_its_chunk():
    # 98 cliques of 41 make one degree block of 3.1e6 proposals; held at once,
    # their per-axis deltas alone would take 48 MB
    space = torus_poisson(4100, 2, seed=20)
    I, J = np.triu_indices(41, 1)
    base = 41 * np.arange(space.n // 41)[:, None]
    state = TwoNrqState(space, (base + I).ravel() * space.n + (base + J).ravel())
    state.adjacency()
    (_, evals), peak = _peak_above_start(range_query_round, state, 0.05, 1.0, 0)
    assert evals == base.size * 41 * math.comb(40, 2)
    assert peak <= 8


@pytest.mark.parametrize("r", [0.578, 0.203])
def test_held_ball_index_is_small(r):
    # a whole-row index held as int64 keys took 27 MB here; packed it is
    # sample * m / 8 bytes, and a grid index 4 bytes a key
    space = torus_poisson(2e4, 2, seed=21)
    tracemalloc.start()
    try:
        balls = rangequery._sample_balls(space, r, 500, 22)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    keys = sum(k.size for _, _, k in ball_scan(space.points, balls[2], r))
    bound = 500 * space.n / 8 if r > 0.4 else 4 * keys
    assert held <= bound + 2 ** 16


@st.composite
def _ks_samples(draw):
    """Two samples, either of which may pass scipy's 10000-point switch, with
    ties within and across them or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = [draw(st.integers(1, 400)), draw(st.integers(9900, 14000) | st.integers(1, 400))]
    values = draw(st.sampled_from([3, 50, 10 ** 6, 0]))  # 0: continuous
    a, b = (rng.integers(0, values, size=n) / values if values else rng.random(n)
            for n in draw(st.permutations(sizes)))
    return a, b


@settings(max_examples=150, deadline=None)
@given(_ks_samples())
def test_merge_ks_equals_scipy(case):
    a, b = case
    # with many ties scipy's exact p-value can fail below 10000 points; it
    # then warns and takes the asymptotic one, in both calls alike
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = stats.ks_2samp(a, b)
        got = rangequery._ks_2samp(a, b)
    assert repr(got) == repr((float(want.statistic), float(want.pvalue)))


def _failing_at(fn, t, message):
    """fn, except that its call t, counted from 0, raises InputError(message): a
    run calls a round and a verification on E_0, E_1, ... in turn."""
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        if next(calls) == t:
            raise InputError(message)
        return fn(*args, **kwargs)

    return wrapper


class TestVerificationThread:
    def test_reports_equal_verifying_each_round_in_order(self, monkeypatch):
        # the worker's reports are those of verifying every state E_t on the
        # main thread, in round order, at verify_seed + t
        real_round = rangequery.range_query_round
        states = []

        def record(state, *args):
            if not states:
                states.append(state)  # E_0
            new, evals = real_round(state, *args)
            states.append(new)
            return new, evals

        monkeypatch.setattr(rangequery, "range_query_round", record)
        result = run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100)
        verify_seed = int(np.random.SeedSequence(3).generate_state(5)[3])
        schedule = result.schedule
        assert len(states) == schedule.tau + 1
        expected = [
            {"t": t, **verify_sampling_property(s, schedule.radii[t], schedule.rates[t], 100,
                                                seed=verify_seed + t).to_json_dict()}
            for t, s in enumerate(states)
        ]
        assert result.report["sampling_reports"] == expected

    def test_no_thread_left_after_a_verified_run(self):
        before = threading.active_count()
        result = run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100)
        assert len(result.report["sampling_reports"]) == result.schedule.tau + 1
        assert threading.active_count() == before

    def test_round_error_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        failing = _failing_at(rangequery.range_query_round, 1, "round 2 failed")
        monkeypatch.setattr(rangequery, "range_query_round", failing)
        before = threading.active_count()
        with pytest.raises(InputError, match="round 2 failed"):
            run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100)
        assert threading.active_count() == before

    def test_verification_error_wins_over_a_later_round_error(self, monkeypatch):
        # in sequence, E_1 is verified before round 2 runs
        failing = _failing_at(rangequery.range_query_round, 1, "round 2 failed")
        monkeypatch.setattr(rangequery, "range_query_round", failing)
        failing = _failing_at(rangequery._sampling_report, 1, "verification 1 failed")
        monkeypatch.setattr(rangequery, "_sampling_report", failing)
        before = threading.active_count()
        with pytest.raises(InputError, match="verification 1 failed"):
            run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n, K, d", [(3000, 3, 1), (2000, 12, 2), (4000, 30, 3)])
    def test_index_ahead_equals_one_call_verification(self, monkeypatch, n, K, d):
        # each round's ball index was built before its edges existed; the
        # radii take r >= 1 (no scan), whole-row (0.4 < r < 1) and grid scans
        real_round = rangequery.range_query_round
        states = []

        def record(state, *args):
            if not states:
                states.append(state)
            new, evals = real_round(state, *args)
            states.append(new)
            return new, evals

        monkeypatch.setattr(rangequery, "range_query_round", record)
        result = run_2nrq(n, K, d, 0.5, seed=4, sample_size=300)
        radii = result.schedule.radii
        assert radii[0] >= 1 and any(0.4 < r < 1 for r in radii) and min(radii) <= 0.4
        verify_seed = int(np.random.SeedSequence(4).generate_state(5)[3])
        assert len(states) == result.schedule.tau + 1
        expected = [
            {"t": t, **verify_sampling_property(s, radii[t], result.schedule.rates[t], 300,
                                                seed=verify_seed + t).to_json_dict()}
            for t, s in enumerate(states)
        ]
        assert result.report["sampling_reports"] == expected

    def test_index_error_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        def failing(*args):
            raise InputError("scan failed")

        monkeypatch.setattr(rangequery, "_ball_runs", failing)
        before = threading.active_count()
        with pytest.raises(InputError, match="scan failed"):
            run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100)
        assert threading.active_count() == before

    def test_init_error_leaves_no_thread(self, monkeypatch):
        # the ball indices of rounds 0 and 1 are already queued when init_e0 runs
        def failing(*args):
            raise InputError("init failed")

        monkeypatch.setattr(rangequery, "init_e0", failing)
        before = threading.active_count()
        with pytest.raises(InputError, match="init failed"):
            run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=100)
        assert threading.active_count() == before

    def test_one_sampled_vertex_is_refused(self):
        before = threading.active_count()
        with pytest.raises(InputError, match="at least 2"):
            run_2nrq(2000, 12, 2, 0.5, seed=3, sample_size=1)
        assert threading.active_count() == before

    def test_cli_import_leaves_the_executor_unloaded(self):
        code = "import sys; from nndlab import cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        assert done.stdout.strip() == "False"
