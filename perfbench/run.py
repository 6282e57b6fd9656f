"""nndlab benchmark: seeded workloads, end-to-end metrics, traced layer split.

    python3 perfbench/run.py --workload nnd-generic --seed 1 --seconds 30 --trace 0

``--trace 0`` runs one workload for ``--seconds`` with no wrappers and
reports the end-to-end metrics.  ``--trace 1`` runs every workload, each
instance once untraced and once traced, and reports the per-layer metrics
of all four (their names carry the workload).  ``--workload all`` with
``--trace 0`` runs each workload in its own process, one after another.
The last line of standard output is the JSON result; the lines before it
are the readable report.  See perfbench/README.md for the definitions.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: runs must not depend on thread count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUTDIR = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("nnd-paris", "nnd-generic", "2nrq-verify", "diag-diameter")
MAX_TRACED_PER_WORKLOAD = 3
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_count": "count",
              "rounds": "count"}


def import_package():
    """Import nndlab from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nndlab", "__init__.py")):
        raise SystemExit(f"perfbench: no nndlab package under {src}")
    sys.path.insert(0, src)
    import nndlab

    if not os.path.abspath(nndlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: nndlab was imported from {nndlab.__file__}, not {src}")
    # load lazily imported modules now, so no instance pays for them
    import scipy.stats  # noqa: F401


def instance_seed(seed, i):
    return seed * 1000 + i


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(len(ordered) * p / 100) - 1]
    return None, None


class Tally:
    """Attempted and failed instances of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()

    def fail(self, key, why):
        self.failed.add(key)
        print(f"FAIL {key}: {why}", file=sys.stderr)

    @property
    def error_rate(self):
        return len(self.failed) / self.attempted if self.attempted else 1.0


def attempt(tally, key, fn, *args):
    """Run fn(*args); an exception counts as a failure of instance ``key``."""
    try:
        return fn(*args)
    except Exception:  # the benchmark must report every failing instance and go on
        tally.fail(key, traceback.format_exc())
        return None


def run_instance(wl, tally, key, seed):
    """Build inputs, time the call, check it. Returns (input_s, run_s, inp, out) or None."""
    tally.attempted += 1
    gc.collect()
    t0 = time.perf_counter()
    inp = attempt(tally, key, wl.make_input, seed)
    t1 = time.perf_counter()
    if key in tally.failed:
        return None
    out = attempt(tally, key, wl.run, inp)
    t2 = time.perf_counter()
    if key in tally.failed:
        return None
    for why in attempt(tally, key, wl.check, inp, out) or ():
        tally.fail(key, why)
    return t1 - t0, t2 - t1, inp, out


def same_fingerprint(wl, tally, key, first, out):
    again = attempt(tally, key, wl.fingerprint, out)
    if again is not None and again != first:
        tally.fail(key, "rerun of the same instance gave different counters or outputs")


def measure(wl, seed, seconds):
    """Untraced run: instances for ``seconds``, then the first instance again."""
    tally = Tally()
    setup = attempt(tally, "setup", wl.setup)
    if setup is None:
        tally.attempted += 1
        return tally, None
    input_s, run_s, counters = [], [], []
    first = None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        key = instance_seed(seed, i)
        got = run_instance(wl, tally, key, key)
        if got is not None:
            input_s.append(got[0])
            run_s.append(got[1])
            counters.append(attempt(tally, key, wl.counters, got[2], got[3]))
            if i == 0:
                first = attempt(tally, key, wl.fingerprint, got[3])
        i += 1
    if first is not None:
        # the rerun is a timing sample too; its counters repeat instance 0's
        key0 = instance_seed(seed, 0)
        got = run_instance(wl, tally, key0, key0)
        if got is not None:
            run_s.append(got[1])
            same_fingerprint(wl, tally, key0, first, got[3])
    if wl.inputs_per_instance:
        setup = setup + input_s
    return tally, {"setup_s": setup, "run_s": run_s, "counters": [c for c in counters if c]}


def untraced_report(wl, tally, data, values):
    run_s, counters = data["run_s"], data["counters"]
    p, tail_s = tail(run_s)
    lines = [
        f"workload {wl.name}: {tally.attempted} runs attempted (instance 0 twice), "
        f"{len(tally.failed)} failed",
        f"  run_s        {values['run_s']:.4f} s  median of {len(run_s)} runs",
        (f"  run_s_tail   {tail_s:.4f} s  p{p:g} of {len(run_s)} runs" if p else
         f"  run_s_tail   n/a  {len(run_s)} runs, a tail needs 20 (10 beyond p50)"),
        f"  setup_s      {values['setup_s']:.4f} s  median of {len(data['setup_s'])} set-ups",
        f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB  process peak",
        f"  error_rate   {tally.error_rate:.4f}  {len(tally.failed)}/{tally.attempted}",
    ]
    work = wl.work_counter
    lines.append(f"  work_count   {values['work_count']:g} count  median of {len(counters)} "
                 f"instances ({work}; sum {sum(c[work] for c in counters)})")
    if "recall" in counters[0]:
        mean = statistics.fmean(c["recall"] for c in counters)
        lines.append(f"  recall       {mean:.6f}  mean of {len(counters)} instances (higher is better)")
    lines.append(f"  rounds       {values['rounds']:g}  median of {len(counters)} instances")
    return "\n".join(lines)


def run_untraced(name, seed, seconds):
    import workloads

    os.makedirs(OUTDIR, exist_ok=True)
    wl = workloads.BY_NAME[name](ROOT, OUTDIR)
    tally, data = measure(wl, seed, seconds)
    if data is None or not data["run_s"] or not data["counters"]:
        return tally, {}
    values = {
        "run_s": statistics.median(data["run_s"]),
        "setup_s": statistics.median(data["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_count": statistics.median(c[wl.work_counter] for c in data["counters"]),
        "rounds": statistics.median(c["rounds"] for c in data["counters"]),
    }
    print(untraced_report(wl, tally, data, values))
    return tally, {name: (values[name], unit) for name, unit in END_TO_END.items()}


def run_traced(seed, seconds):
    """Every workload: each instance untraced, then traced with the same seed."""
    import spans
    import workloads

    os.makedirs(OUTDIR, exist_ok=True)
    tracer = spans.Tracer()
    patch = spans.Patch(tracer, workloads.TRACE_TARGETS)
    tally = Tally()
    metrics = {}
    share = seconds / len(workloads.WORKLOADS)
    for cls in workloads.WORKLOADS:
        wl = cls(ROOT, OUTDIR)
        tracer.instance = f"{wl.name}:setup"
        with patch:
            attempt(tally, f"{wl.name}:setup", wl.setup)
        labels, untraced_s, traced_s = [], [], []
        extras = []
        start = time.perf_counter()
        i = 0
        while i == 0 or (time.perf_counter() - start < share and i < MAX_TRACED_PER_WORKLOAD):
            seed_i = instance_seed(seed, i)
            key = f"{wl.name}:{seed_i}"
            plain = run_instance(wl, tally, key + ":untraced", seed_i)
            first = attempt(tally, key, wl.fingerprint, plain[3]) if plain else None
            tracer.instance = f"{wl.name}:{i}:input"
            with patch:
                inp = attempt(tally, key, wl.make_input, seed_i)
            if inp is not None:
                tally.attempted += 1
                tracer.instance = f"{wl.name}:{i}"
                gc.collect()
                with patch:
                    t0 = time.perf_counter()
                    out = attempt(tally, key, wl.run, inp)
                    elapsed = time.perf_counter() - t0
                if out is not None:
                    for why in attempt(tally, key, wl.check, inp, out) or ():
                        tally.fail(key, why)
                    if first is not None:
                        same_fingerprint(wl, tally, key, first, out)
                    totals = spans.layer_totals(tracer.spans, tracer.instance)
                    counts = {n: v for (inst, n), v in tracer.counters.items()
                              if inst == tracer.instance}
                    labels.append((tracer.instance, totals))
                    extras.append(attempt(tally, key, wl.extras, out, totals, counts) or {})
                    traced_s.append(elapsed)
                    if plain:
                        untraced_s.append(plain[1])
            i += 1
        if not traced_s or not untraced_s:
            continue
        metrics.update(layer_metrics(wl, tracer, labels, extras, traced_s, untraced_s))
    tracer.instance = ""
    tracer.write_csv(os.path.join(OUTDIR, "spans.csv"))
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(OUTDIR, ROOT)}/spans.csv")
    return tally, metrics


def layer_metrics(wl, tracer, labels, extras, traced_s, untraced_s):
    import spans
    import workloads

    out = {}
    # set-up layers: seconds per call, median over the set-up and input builds
    setup_labels = [f"{wl.name}:setup"] + [f"{lab}:input" for lab, _ in labels]
    setup_totals = [spans.layer_totals(tracer.spans, lab) for lab in setup_labels]
    for layer, stats in wl.setup_layers:
        per_call = [t[layer]["s"] / t[layer]["calls"] for t in setup_totals if layer in t]
        out[f"{wl.name}.{layer}.s"] = (statistics.median(per_call), "s")
    # run layers: counts from the first instance, times as medians over instances
    coverage = []
    for (label, totals), elapsed in zip(labels, traced_s):
        own = sum(totals.get(layer, {}).get("self_s", 0.0) for layer, _ in wl.run_layers)
        coverage.append(own / elapsed)
    print(f"traced {wl.name}: {len(traced_s)} instances, median {statistics.median(traced_s):.4f} s"
          f" traced vs {statistics.median(untraced_s):.4f} s untraced")
    first = labels[0][1]
    for layer, stats in wl.run_layers:
        row = first.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat == "calls":
                value = row["calls"]
            else:
                value = statistics.median(t.get(layer, {}).get(stat, 0.0) for _, t in labels)
            out[f"{wl.name}.{layer}.{stat}"] = (value, workloads.STAT_UNITS[stat][0])
    median_s = statistics.median(traced_s)
    for layer, _ in wl.run_layers:
        own = statistics.median(t.get(layer, {}).get("self_s", 0.0) for _, t in labels)
        print(f"  {layer:<40} self {own:9.4f} s  {100 * own / median_s:5.1f}% of instance")
    for name, unit, _ in wl.extra_metrics:
        if name in extras[0]:
            out[f"{wl.name}.{name}"] = (extras[0][name], unit)
    out[f"{wl.name}.coverage"] = (statistics.median(coverage), "ratio")
    out[f"{wl.name}.trace_overhead_s"] = (median_s - statistics.median(untraced_s), "s")
    print(f"  coverage by the named layers: {100 * statistics.median(coverage):.1f}%;"
          f" tracing overhead {median_s - statistics.median(untraced_s):+.4f} s per instance")
    return out


def run_all(args):
    """--workload all --trace 0: each workload in its own process."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must lie in [0, 2^32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import numpy
    import scipy

    if args.workload == "all" and not args.trace:
        result = run_all(args)
    else:
        print(f"machine: {os.cpu_count()} CPUs, python {sys.version.split()[0]}, "
              f"numpy {numpy.__version__}, scipy {scipy.__version__}, BLAS threads pinned to 1")
        if args.trace:
            tally, metrics = run_traced(args.seed, args.seconds)
        else:
            tally, metrics = run_untraced(args.workload, args.seed, args.seconds)
        shutil.rmtree(os.path.join(OUTDIR, "2nrq"), ignore_errors=True)
        if not metrics:
            raise SystemExit("perfbench: no instance completed; nothing to report")
        result = {
            "correct": not tally.failed,
            "attempted": tally.attempted,
            "failed": len(tally.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
