"""The four benchmark workloads: inputs from a seed, the timed call, checks.

Each workload builds its inputs outside the timed region, times only the
call a user of the package makes, and then checks the output without
timing the check.  Module attributes are looked up at call time
(``descent.run_nnd``, not a name imported once), so the traced run's
wrappers see every call.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from nndlab import cli, concordance, descent, diagnostics, ranking, spaces
from spans import POOL_ITEMS

# Every nndlab callable the traced run wraps, as module.attr or module.Class.method.
TRACE_TARGETS = (
    "ranking.RankingOracle.top_k",
    "ranking.exact_knn",
    "ranking.recall",
    "descent.run_nnd",
    "descent.batch_round",
    "descent.pointwise_pass",
    "descent.FriendState.__init__",
    "descent.FriendState.set_friends",
    "descent.random_kout",
    "spaces.paris_space",
    "spaces.rank_table",
    "spaces.torus_poisson",
    "concordance.generic_crs",
    "concordance.concordancy_check",
    "rangequery.run_2nrq",
    "rangequery.compute_schedule",
    "rangequery.init_e0",
    "rangequery.range_query_round",
    "rangequery.verify_sampling_property",
    "rangequery.TwoNrqState.__init__",
    "rangequery.TwoNrqState.adjacency",
    "diagnostics.diameter_experiment",
    "diagnostics.undirected_diameter",
    "diagnostics.undirected_adjacency",
    "cli.main",
)


def strict_json(text):
    """json.loads that rejects the non-standard constants NaN and Infinity."""

    def reject(name):
        raise ValueError(f"non-finite constant {name} in JSON output")

    return json.loads(text, parse_constant=reject)


class Workload:
    """One benchmark workload.

    ``run_layers`` are (span, stats) pairs reported from the timed call;
    their self times make up the traced coverage.  ``setup_layers`` are
    reported per call from the set-up or input build.  ``extra_metrics``
    are (name, unit, better) triples that ``extras`` computes.
    ``work_counter`` names the counter that is the exact work count.
    """

    name = ""
    inputs_per_instance = False  # True when make_input is the set-up work
    work_counter = ""
    run_layers = ()
    setup_layers = ()
    extra_metrics = ()

    def __init__(self, root, outdir):
        self.root = root
        self.outdir = outdir

    def setup(self):
        """Build shared inputs; returns the set-up times measured."""
        return []

    def make_input(self, seed):
        return seed

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """List of failed checks (empty when the output is correct)."""
        raise NotImplementedError

    def fingerprint(self, out):
        """Everything that must repeat exactly when the same instance reruns."""
        raise NotImplementedError

    def counters(self, inp, out):
        """Exact work counts and results of one instance; ``rounds`` and
        ``work_counter`` are always present."""
        raise NotImplementedError

    def extras(self, out, totals, counts):
        """Per-layer ratios and counts of one traced instance."""
        return {}


def _top_k_extras(K, totals, counts):
    calls = totals.get("ranking.top_k", {}).get("calls", 0)
    pool = counts.get(POOL_ITEMS, 0)
    return {POOL_ITEMS: pool, "ranking.top_k.keep_ratio": K * calls / pool if pool else 0.0}


_TOP_K_EXTRAS = (
    (POOL_ITEMS, "count", "lower"),
    ("ranking.top_k.keep_ratio", "ratio", "higher"),
)


class NndParis(Workload):
    """Batch descent on the Paris (star) metric at n=2048, K=8: the paper's success case."""

    name = "nnd-paris"
    n, K = 2048, 8
    run_layers = (
        ("ranking.top_k", ("calls", "s")),
        ("descent.batch_round", ("calls", "s", "self_s")),
        ("descent.FriendState.init", ("s",)),
    )
    setup_layers = (("spaces.rank_table", ("s",)),)
    extra_metrics = _TOP_K_EXTRAS + (("oracle_comparisons", "count", "lower"),)
    work_counter = "oracle_comparisons"

    def setup(self):
        times = []
        for _ in range(3):  # the table is shared by every instance; time 3 builds
            t0 = time.perf_counter()
            self.table = spaces.rank_table(spaces.paris_space(range(1, self.n + 1)))
            times.append(time.perf_counter() - t0)
        self.exact_rows = np.sort(self.table.order[:, : self.K], axis=1)
        return times

    def run(self, seed):
        result = descent.run_nnd(ranking.RankingOracle(self.table), self.n, self.K, "batch", seed)
        result.recall = ranking.recall(result.graph, ranking.exact_knn(self.table, self.K))
        return result

    def check(self, seed, result):
        errors = []
        if result.recall != 1.0:
            errors.append(f"recall {result.recall} != 1.0")
        if not np.array_equal(np.sort(result.graph.neighbors, axis=1), self.exact_rows):
            errors.append("final graph rows differ from exact_knn as sets")
        return errors

    def fingerprint(self, result):
        return (result.graph.neighbors.tobytes(), result.comparisons, result.rounds,
                tuple(result.round_changes), result.recall)

    def counters(self, inp, result):
        return {"oracle_comparisons": result.comparisons, "rounds": result.rounds,
                "recall": result.recall}

    def extras(self, result, totals, counts):
        return {**_top_k_extras(self.K, totals, counts), "oracle_comparisons": result.comparisons}


class NndGeneric(Workload):
    """Certificate plus pointwise descent on a generic CRS at n=512, K=8: the failure case."""

    name = "nnd-generic"
    n, K = 512, 8
    inputs_per_instance = True
    work_counter = "oracle_comparisons"
    run_layers = (
        ("ranking.top_k", ("calls", "s")),
        ("descent.pointwise_pass", ("calls", "s", "self_s")),
        ("descent.FriendState.set_friends", ("calls", "s")),
        ("concordance.concordancy_check", ("s",)),
    )
    setup_layers = (("concordance.generic_crs", ("s",)),)
    extra_metrics = _TOP_K_EXTRAS + (
        ("descent.changed_ratio", "ratio", "higher"),
        ("concordance.dag_arcs", "count", "lower"),
        ("oracle_comparisons", "count", "lower"),
    )

    def make_input(self, seed):
        return seed, concordance.generic_crs(self.n, seed).table

    def run(self, inp):
        seed, table = inp
        crs = concordance.concordancy_check(table)
        result = descent.run_nnd(ranking.RankingOracle(table), self.n, self.K, "pointwise", seed,
                                 stop="budget")
        result.recall = ranking.recall(result.graph, ranking.exact_knn(table, self.K))
        return crs, result

    def check(self, inp, out):
        crs, _ = out
        return [] if crs.is_concordant else ["certificate is not concordant"]

    def fingerprint(self, out):
        crs, result = out
        return (frozenset(crs.dag_arcs), result.graph.neighbors.tobytes(), result.comparisons,
                tuple(result.round_changes), result.recall)

    def counters(self, inp, out):
        crs, result = out
        return {"oracle_comparisons": result.comparisons, "rounds": result.rounds,
                "recall": result.recall, "dag_arcs": len(crs.dag_arcs)}

    def extras(self, out, totals, counts):
        crs, result = out
        return {
            **_top_k_extras(self.K, totals, counts),
            "descent.changed_ratio": sum(result.round_changes) / (self.n * result.rounds),
            "concordance.dag_arcs": len(crs.dag_arcs),
            "oracle_comparisons": result.comparisons,
        }


class TwoNrqVerify(Workload):
    """``nndlab 2nrq simulate`` at n=2e4, K=12, d=2 with per-round verification.

    The command draws its inputs inside the timed call.  Its set-up is the
    start-up of the command before that call: in a fresh interpreter with
    numpy already loaded, importing ``nndlab.cli`` and building its parser.
    """

    name = "2nrq-verify"
    work_counter = "distance_evals"
    run_layers = (
        ("rangequery.verify_sampling_property", ("calls", "s", "self_s")),
        ("rangequery.range_query_round", ("calls", "s", "self_s")),
        ("rangequery.TwoNrqState.init", ("s",)),
        ("rangequery.TwoNrqState.adjacency", ("calls", "s")),
        ("rangequery.init_e0", ("s",)),
        ("rangequery.compute_schedule", ("s",)),
        ("spaces.torus_poisson", ("s",)),
        ("cli.main", ("self_s",)),
    )
    extra_metrics = (
        ("rangequery.accept_ratio", "ratio", "higher"),
        ("distance_evals", "count", "lower"),
    )

    STARTUP = ("import time, numpy\n"
               "t0 = time.perf_counter()\n"
               "from nndlab import cli\n"
               "cli.build_parser()\n"
               "print(time.perf_counter() - t0)\n")

    def setup(self):
        os.makedirs(os.path.join(self.outdir, "2nrq"), exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        return [float(subprocess.run([sys.executable, "-c", self.STARTUP], env=env, cwd=self.root,
                                     check=True, capture_output=True, text=True).stdout)
                for _ in range(9)]

    def run(self, seed):
        path = os.path.join(self.outdir, "2nrq", f"{seed}.json")
        argv = ["2nrq", "simulate", "--n", "2e4", "--k", "12", "--d", "2", "--alpha", "0.5",
                "--seed", str(seed), "--out", path]
        return cli.main(argv), path

    def _report(self, out):
        with open(out[1]) as fh:
            return strict_json(fh.read())["data"]

    def check(self, inp, out):
        code, path = out
        if code != 0:
            return [f"exit code {code}"]
        try:
            data = self._report(out)
        except (OSError, ValueError) as exc:
            return [f"output is not strict JSON: {exc}"]
        errors = []
        bad = [r["t"] for r in data["sampling_reports"] if r["out_of_range_neighbors"] != 0]
        if bad:
            errors.append(f"out-of-range neighbors in rounds {bad}")
        if sum(r["distance_evals"] for r in data["per_round"]) != data["distance_evals"]:
            errors.append("per-round distance_evals do not sum to the total")
        if not data["tau"] <= data["tau_bound"]:
            errors.append(f"tau {data['tau']} > tau_bound {data['tau_bound']}")
        return errors

    def fingerprint(self, out):
        with open(out[1], "rb") as fh:
            return out[0], fh.read()

    def counters(self, inp, out):
        data = self._report(out)
        return {"distance_evals": data["distance_evals"], "rounds": data["tau"]}

    def extras(self, out, totals, counts):
        data = self._report(out)
        evals = sum(r["distance_evals"] for r in data["per_round"])
        accepted = sum(r["edges"] for r in data["per_round"])
        return {"rangequery.accept_ratio": accepted / evals, "distance_evals": evals}


def _undirected(F):
    """The undirected graph of a K-out matrix, as a scipy CSR matrix."""
    n, K = F.shape
    rows = np.repeat(np.arange(n), K)
    A = sparse.coo_matrix((np.ones(rows.size), (rows, F.ravel())), shape=(n, n))
    return (A + A.T).tocsr()


class DiagDiameter(Workload):
    """One diameter trial of a random 3-out graph at n=10^4, as in criterion 10.

    The experiment draws its graph inside the timed call.  Its set-up is
    that same draw, made beforehand; the check runs its own BFS on it.
    """

    name = "diag-diameter"
    n, K = 10_000, 3
    inputs_per_instance = True
    # no work meter in diagnostics: the size of the graph the BFS sweeps
    work_counter = "adjacency_entries"
    run_layers = (
        ("diagnostics.undirected_diameter", ("calls", "s", "self_s")),
        ("diagnostics.undirected_adjacency", ("s",)),
        ("descent.random_kout", ("s",)),
    )

    def make_input(self, seed):
        # the draw diameter_experiment makes for its single trial
        return seed, descent.random_kout(self.n, self.K, np.random.default_rng(seed))

    def run(self, inp):
        return diagnostics.diameter_experiment(self.n, self.K, trials=1, epsilon=0.5, seed=inp[0])

    def check(self, inp, report):
        if report.disconnected or len(report.diameters) != 1:
            return [f"graph reported disconnected ({report.disconnected} of {report.trials})"]
        G = _undirected(inp[1])
        if csgraph.connected_components(G, directed=False)[0] != 1:
            return ["graph is not connected"]
        d0 = csgraph.shortest_path(G, directed=False, unweighted=True, indices=0)
        far = int(np.argmax(d0))
        d1 = csgraph.shortest_path(G, directed=False, unweighted=True, indices=far)
        ecc0, ecc1 = int(d0.max()), int(d1.max())
        lo, hi = max(ecc0, ecc1), 2 * min(ecc0, ecc1)
        diameter = report.diameters[0]
        if not lo <= diameter <= hi:
            return [f"diameter {diameter} outside two-sweep bounds [{lo}, {hi}]"]
        return []

    def fingerprint(self, report):
        return json.dumps(report.to_json_dict(), sort_keys=True)

    def counters(self, inp, report):
        return {"adjacency_entries": _undirected(inp[1]).nnz,
                "rounds": report.diameters[0] if report.diameters else 0}


WORKLOADS = (NndParis, NndGeneric, TwoNrqVerify, DiagDiameter)
BY_NAME = {w.name: w for w in WORKLOADS}


STAT_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}


def per_layer_spec():
    """(metric name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for w in WORKLOADS:
        for layer, stats in w.setup_layers + w.run_layers:
            spec.extend((f"{w.name}.{layer}.{stat}", *STAT_UNITS[stat]) for stat in stats)
        spec.extend((f"{w.name}.{name}", unit, better) for name, unit, better in w.extra_metrics)
        spec.append((f"{w.name}.coverage", "ratio", "higher"))
        spec.append((f"{w.name}.trace_overhead_s", "s", "lower"))
    return spec
