"""Experiment runner: every subsystem as a seeded subcommand with CSV/JSON output.

Exit codes: 0 success, 2 usage error, 3 domain/precondition error or an
output that cannot be written, 4 resource refusal.  ``main`` refuses a run
whose arrays would not fit in memory (``dense_bytes``) before any is built.
Each ``cmd_*`` returns its document and ``main`` writes it.  Every
document's header holds the command's parsed options (``_config``), so
re-running a file's header reproduces it byte for byte.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys

import numpy as np

from . import __version__
from . import concordance, descent, diagnostics, rangequery, spaces
from .errors import InputError, NndlabError, ResourceLimitError
from .ranking import RankingOracle, check_table_size, exact_knn, recall

RECALL_LIMIT = 4096  # largest n for which the quadratic exact graph is built

# a run is refused when its arrays would pass this share of physical memory or RLIMIT_AS
MEMORY_FRACTION = 0.5

# peak bytes per embedding coordinate: the float64 array and its text, which
# for JSON is padded to its nesting; getrusage measured about 21 (csv) and 35
# (json) at n=200 and n=300, CPython 3.11
_EMBED_BYTES = {"csv": 24, "json": 40}

# peak bytes per pair of items of a special order, document included, and
# per pair of each order its white component holds: getrusage measured
# 446-465 for every kind at n=1000 and n=1400, and 10.5-12.4 per order on
# baranyai at n=20 and n=40, CPython 3.11
_SPECIAL_BYTES = 480
_COMPONENT_BYTES = 13

# peak bytes per n^2 items of an nnd run, which builds its rank table at the
# peak: getrusage measured 20.6 (random-ranking) to 27.7 (generic-crs) at
# n=2048, CPython 3.11; powers2 is capped at n=52
_NND_BYTES = 28


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count_at_least(low):
    """An argparse type for integers of at least ``low``, also written as 1e3."""

    def count(text):
        value = _finite(text)
        if value != int(value) or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return int(value)

    return count


_count = _count_at_least(0)


def _resolve_out(path):
    outdir = os.environ.get("NNDLAB_OUTDIR")
    if path and outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text, out):
    out = _resolve_out(out)
    if not out:
        sys.stdout.write(text)
        return
    try:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from exc


# parsed names that are not options of a command, or that choose where its
# output goes or in which form
_NOT_IN_CONFIG = ("version", "func", "command", "subcommand", "out", "format", "histogram")


def _config(args, drop=()):
    """A command's header: its parsed options, less ``drop``."""
    config = {key: value for key, value in vars(args).items()
              if key not in _NOT_IN_CONFIG and key not in drop}
    config["command"] = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    return config


def _json_doc(config, data):
    return json.dumps({"config": config, "data": data}, indent=2, sort_keys=True) + "\n"


def _json_rows(matrix, level):
    """Pieces that join to a non-empty float matrix as ``json.dumps(indent=2)``
    writes its list of rows at nesting ``level``.  They are made a row at a
    time: a Python float per entry of the whole matrix costs about 17 times
    the array."""
    row_pad, item_pad = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    pieces = []
    for row in matrix:
        body = ("," + item_pad).join(map(repr, row.tolist()))
        pieces += [",", row_pad, "[", item_pad, body, row_pad, "]"]
    pieces[0] = "["
    pieces.append("\n" + "  " * level + "]")
    return pieces


def _csv_doc(config, body):
    return "# config: " + json.dumps(config, sort_keys=True) + "\n" + body


def golden_schedule_checksum():
    params = rangequery.derive_params(1e7, 28, 4, 0.5)
    text = rangequery.schedule_csv(rangequery.compute_schedule(params))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _build_space_table(args):
    name = args.space
    if name == "paris":
        space = spaces.paris_space(range(1, args.n + 1))
        return spaces.rank_table(space)
    if name == "circle":
        space = spaces.circle_sample(args.n, args.seed)
        return spaces.rank_table(space)
    if name == "powers2":
        space = spaces.powers_of_two_space(args.n)
        return spaces.rank_table(space)
    if name == "lcs":
        space = spaces.lcs_sample(args.n, args.lcs_m, seed=args.seed)
        return spaces.rank_table(space)
    if name == "random-ranking":
        return spaces.random_ranking_table(args.n, args.seed)
    if name == "generic-crs":
        return concordance.generic_crs(args.n, args.seed).table
    raise InputError(f"unknown space {name!r}")


def cmd_nnd(args):
    table = _build_space_table(args)
    oracle = RankingOracle(table)
    result = descent.run_nnd(
        oracle,
        n=table.n,
        K=args.k,
        mode=args.mode,
        seed=args.seed,
        max_rounds=args.rounds,
        stop=args.stop,
    )
    if table.n <= RECALL_LIMIT:
        result.recall = recall(result.graph, exact_knn(table, args.k))
    config = _config(args, drop=() if args.space == "lcs" else ("lcs_m",))
    return _json_doc(config, descent.run_report(result))


def cmd_2nrq_schedule(args):
    params = rangequery.derive_params(args.n, args.k, args.d, args.alpha)
    schedule = rangequery.compute_schedule(params)
    if args.format == "csv":
        return _csv_doc(_config(args), rangequery.schedule_csv(schedule))
    data = {
        "radii": list(schedule.radii),
        "rates": list(schedule.rates),
        "formulas": list(schedule.formulas),
        "t_prime": schedule.t_prime,
        "tau": schedule.tau,
        "beta": params.beta,
        "gamma": params.gamma,
        "gamma_star": params.gamma_star,
        "t_prime_bound": params.t_prime_bound,
    }
    return _json_doc(_config(args), data)


def cmd_2nrq_simulate(args):
    result = rangequery.run_2nrq(
        args.n,
        args.k,
        args.d,
        args.alpha,
        args.seed,
        verify_rounds=True,
        sample_size=args.sample_vertices,
        idealized_inputs=args.idealized_inputs,
    )
    return _json_doc(_config(args), result.report)


def cmd_crs_enumerate(args):
    census = concordance.enumerate_small(args.n)
    return _json_doc(_config(args), census.to_json_dict())


def cmd_crs_embed(args):
    if args.example == "concordant5":
        table, extension = concordance.concordant5_system()
        crs = concordance.concordancy_check(table)
        emb = concordance.linf_embed(crs, extension=extension)
        config = _config(args, drop=("n", "seed"))
    else:
        crs = concordance.generic_crs(args.n, args.seed)
        emb = concordance.linf_embed(crs, seed=args.seed)
        config = _config(args, drop=("example",))
    if args.format == "csv":
        return _csv_doc(config, emb.to_csv())
    data = {
        "columns": [list(p) for p in emb.column_pairs],
        "coords": None,
        "verified": concordance.verify_embedding(crs, emb),
    }
    head, _, tail = _json_doc(config, data).partition('"coords": null')
    # one join, so the document's text is never copied whole
    return "".join([head, '"coords": ', *_json_rows(emb.coords, 2), tail])


def cmd_crs_special(args):
    builders = {
        "powers2": concordance.powers_of_two_order,
        "baranyai": concordance.baranyai_order,
        "eulerian": concordance.eulerian_order,
    }
    order = builders[args.kind](args.n)
    data = {"pairs": [list(p) for p in order.pairs]}
    if args.check == "isolated":
        data["isolated"] = concordance.is_isolated(order)
    elif args.check == "component":
        component = concordance.white_component(order, cap=args.cap)
        data["component_size"] = len(component)
        data["complete"] = component.complete
    return _json_doc(_config(args), data)


def cmd_crs_fraction(args):
    exact, empirical = concordance.white_edge_fraction(
        args.n, samples=args.samples, seed=args.seed
    )
    data = {
        "exact": str(exact),
        "exact_float": float(exact),
        "empirical": empirical,
    }
    return _json_doc(_config(args), data)


def cmd_diag_diameter(args):
    report = diagnostics.diameter_experiment(args.n, args.k, args.trials, args.eps, args.seed)
    config = _config(args)
    if args.histogram:
        _emit(_csv_doc(config, report.histogram_csv()), args.histogram)
    return _json_doc(config, report.to_json_dict())


def cmd_diag_expansion(args):
    rng = np.random.default_rng(args.seed)
    F = descent.random_kout(args.n, args.k, rng)
    report = diagnostics.expansion_check(F, args.alpha, args.eps, args.sets, args.seed)
    return _json_doc(_config(args), report.to_json_dict())


def _kout_bytes(n, K):
    """``random_kout``'s draw: float64 keys and their int64 argsort, n x n when
    K > (n - 1) / 2, else int64 rows and their sort, n x K."""
    if not 1 <= K < n:
        return 0  # the command refuses these arguments itself
    return 16 * n * (n if K > (n - 1) // 2 else K)


def dense_bytes(args):
    """The bytes of a command's largest arrays, estimated from its options alone."""
    if args.func is cmd_nnd:
        return _NND_BYTES * args.n ** 2
    if args.func is cmd_crs_fraction:
        # float64 sort keys and their int64 argsort, samples x N, a block of samples at a time
        return 16 * min(args.samples, concordance.FRACTION_ROWS) * concordance.n_pairs(args.n)
    if args.func is cmd_crs_embed and args.example is None:
        return args.n * concordance.n_pairs(args.n) * _EMBED_BYTES[args.format]
    if args.func is cmd_crs_special:
        orders = 0
        if args.check == "component":
            # powers-of-two and Eulerian orders are isolated: their component is the order alone
            orders = args.cap if args.kind == "baranyai" else 1
        return (_SPECIAL_BYTES + _COMPONENT_BYTES * orders) * concordance.n_pairs(args.n)
    if args.func is cmd_diag_expansion:
        return _kout_bytes(args.n, args.k)
    if args.func is cmd_diag_diameter and args.k >= 3:  # below, the command refuses K itself
        # the undirected adjacency's int64 keys, and below the exact-diameter
        # limit the BFS gather of one reach bitset row per arc
        per_arc = 64
        if args.n <= diagnostics.EXACT_DIAMETER_LIMIT:
            per_arc += 8 * -(-args.n // 64)
        return _kout_bytes(args.n, args.k) + per_arc * 2 * args.n * args.k
    return 0


def _refuse_unaffordable(args):
    """Refuse a run above the rank-table cap or the memory budget, before anything is built."""
    if args.func is cmd_nnd or args.func is cmd_crs_embed and args.example is None:
        check_table_size(args.n)  # the spaces build n x n arrays before RankTable checks
    need = dense_bytes(args)
    total, limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "of physical memory"
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY and soft < total:
        total, limit = soft, "address-space limit (RLIMIT_AS)"
    if need > MEMORY_FRACTION * total:
        raise ResourceLimitError(
            f"{_config(args)['command']} needs about {need / 2 ** 30:.1f} GiB, more than "
            f"{MEMORY_FRACTION:.0%} of the {total / 2 ** 30:.1f} GiB {limit}"
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nndlab",
        description="Nearest-neighbor descent, concordant ranking systems, and "
        "second-neighbor range queries: seeded experiments with CSV/JSON output.",
    )
    parser.add_argument(
        "--version",
        action="store_true",
        help="print version and the golden-schedule checksum, then exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("nnd", help="run nearest-neighbor descent on an example space")
    p.add_argument("--space", required=True,
                   choices=["paris", "circle", "powers2", "lcs", "random-ranking", "generic-crs"])
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--mode", choices=["batch", "pointwise"], default="batch")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--rounds", type=_count, default=None, help="round budget (default 2 log_K n)")
    p.add_argument("--stop", choices=["no_change", "budget"], default="no_change")
    p.add_argument("--lcs-m", type=_count, default=32, help="string length for --space lcs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nnd)

    p2 = sub.add_parser("2nrq", help="second-neighbor range query tools")
    sub2 = p2.add_subparsers(dest="subcommand", required=True)

    ps = sub2.add_parser("schedule", help="solve the radius/rate schedule (pure numerics)")
    ps.add_argument("--n", type=_count, required=True)
    ps.add_argument("--k", type=_count, required=True)
    ps.add_argument("--d", type=_count, required=True)
    ps.add_argument("--alpha", type=_finite, default=0.5)
    ps.add_argument("--format", choices=["csv", "json"], default="csv")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_2nrq_schedule)

    pm = sub2.add_parser("simulate", help="desk-scale Monte Carlo of the graph process")
    pm.add_argument("--n", type=_count, required=True)
    pm.add_argument("--k", type=_count, required=True)
    pm.add_argument("--d", type=_count, required=True)
    pm.add_argument("--alpha", type=_finite, default=0.5)
    pm.add_argument("--seed", type=_count, default=0)
    # a standard error needs at least two sampled vertices
    pm.add_argument("--sample-vertices", type=_count_at_least(2), default=500)
    pm.add_argument("--idealized-inputs", action="store_true",
                    help="feed each round an exact rate-theta sample (one-step diagnostic)")
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_2nrq_simulate)

    p3 = sub.add_parser("crs", help="concordant-ranking-system tools")
    sub3 = p3.add_subparsers(dest="subcommand", required=True)

    pe = sub3.add_parser("enumerate", help="exhaustive census of pair orders (n <= 5)")
    pe.add_argument("--n", type=_count, required=True)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_crs_enumerate)

    pb = sub3.add_parser("embed", help="sup-norm embedding of a concordant system")
    pb.add_argument("--example", choices=["concordant5"], default=None)
    pb.add_argument("--n", type=_count, default=8)
    pb.add_argument("--seed", type=_count, default=0)
    pb.add_argument("--format", choices=["csv", "json"], default="csv")
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_crs_embed)

    pc = sub3.add_parser("special", help="construct an extreme pair order")
    pc.add_argument("--kind", choices=["powers2", "baranyai", "eulerian"], required=True)
    pc.add_argument("--n", type=_count, required=True)
    pc.add_argument("--check", choices=["isolated", "component", "none"], default="none")
    pc.add_argument("--cap", type=_count, default=20000)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_crs_special)

    pf = sub3.add_parser("fraction", help="white-edge fraction, exact and Monte Carlo")
    pf.add_argument("--n", type=_count, required=True)
    pf.add_argument("--samples", type=_count_at_least(1), default=100000)
    pf.add_argument("--seed", type=_count, default=0)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=cmd_crs_fraction)

    p4 = sub.add_parser("diag", help="initial-graph diameter and expansion experiments")
    sub4 = p4.add_subparsers(dest="subcommand", required=True)

    pd = sub4.add_parser("diameter", help="measure undirected diameters of random K-out graphs")
    pd.add_argument("--n", type=_count, required=True)
    pd.add_argument("--k", type=_count, required=True)
    pd.add_argument("--trials", type=_count, default=50)
    pd.add_argument("--eps", type=_finite, default=0.5)
    pd.add_argument("--seed", type=_count, default=0)
    pd.add_argument("--out", default=None)
    pd.add_argument("--histogram", default=None, help="also write a diameter histogram CSV")
    pd.set_defaults(func=cmd_diag_diameter)

    px = sub4.add_parser("expansion", help="sample vertex sets and check the expansion inequality")
    px.add_argument("--n", type=_count, required=True)
    px.add_argument("--k", type=_count, required=True)
    px.add_argument("--alpha", type=_finite, default=0.05, help="set-size coefficient")
    px.add_argument("--eps", type=_finite, default=1.0)
    px.add_argument("--sets", type=_count_at_least(1), default=10000)
    px.add_argument("--seed", type=_count, default=0)
    px.add_argument("--out", default=None)
    px.set_defaults(func=cmd_diag_expansion)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(f"nndlab {__version__} (golden schedule sha256/12: {golden_schedule_checksum()})")
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        _refuse_unaffordable(args)
        _emit(args.func(args), args.out)
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except NndlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
