"""Command-line front end: generate, solve, check, bench.

Exit codes: 0 success (and all checks passing), 1 usage error, 2 runtime
failure (unreadable files, infeasible parameters), 3 property violation.
Location indices are printed 1-based; everything internal is 0-based.

Outputs are reproducible by default: rerunning a command with the same flags
and seeds yields byte-identical files.  Measured wall-clock times are
therefore only written to reports and CSVs when ``--stamp`` is given (the
summary printed to stdout always shows real timings).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

from . import oracle
from .choice_models import MultinomialLogit
from .instances import (
    FormatError,
    GeneratorParams,
    MmnlParams,
    assign_nests,
    generate_euclidean,
    mmnl_expand,
    read_instance,
    write_instance,
)
from .oracle import brute_force_opt
from .solver import SolverConfig, ggx

__all__ = ["main", "entry"]

DEFAULT_TIME_BUDGET = 600.0
DEFAULT_MU = (1.1, 1.2, 1.3, 1.4, 1.5)

_MODELS = ("mnl", "nested", "mmnl")
CSV_HEADER = "instance_id,I,m,C,alpha,beta,model,algo,objective,wall_ms,match_best"


class _UsageError(ValueError):
    """Bad flag combination or value; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Flag converters raise ArgumentTypeError, whose text argparse prints; it
# reports any other error under the converter's function name instead.
def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_even_int(text: str) -> int:
    value = _positive_int(text)
    if value % 2 != 0:
        raise argparse.ArgumentTypeError(f"must be even, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _model(text: str) -> str:
    if text not in _MODELS:
        raise argparse.ArgumentTypeError(f"choose from {','.join(_MODELS)}, got {text!r}")
    return text


def _grid_cell(text: str):
    left, _, right = text.partition("x")  # no 'x' leaves right empty, which int() rejects
    try:
        cell = int(left), int(right)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid cell {text!r} must look like '50x25'") from None
    if min(cell) < 1:
        raise argparse.ArgumentTypeError(f"grid sizes must be >= 1, got {text!r}")
    return cell


def _list_of(text: str, convert, what: str):
    """The comma separated items of ``text``, each through ``convert``; blank items are skipped."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty {what} {text!r}")
    try:
        return [convert(t) for t in items]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}: {exc}") from None


def _positive_floats(text: str):
    return _list_of(text, _positive_float, "number list")


def _int_range(text: str):
    """Parse '2:10' as an inclusive ``range``, or '2,5,7' / '4' as a list, of values >= 1."""
    if ":" not in text:
        return _list_of(text, _positive_int, "integer list")
    lo, _, hi = text.partition(":")
    try:
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer range {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if values[0] < 1:
        raise argparse.ArgumentTypeError(f"values must be >= 1, got {text!r}")
    return values


def _resolve_model_flags(args, models, m_min: int) -> None:
    """Check ``--mu`` and ``--mmnl-K`` against the chosen ``models`` and the smallest location
    count ``m_min``, then fill in their defaults; run before any instance is built."""
    for flag, kind, value in (("--mu", "nested", args.mu), ("--mmnl-K", "mmnl", args.mmnl_K)):
        if value is not None and kind not in models:
            raise _UsageError(f"{flag} applies to model {kind} only")
    args.mu = DEFAULT_MU if args.mu is None else args.mu
    args.mmnl_K = 100 if args.mmnl_K is None else args.mmnl_K
    if "nested" in models and min(args.mu) < 1:
        raise _UsageError(f"--mu values must be >= 1, got {min(args.mu):g}")
    if "nested" in models and len(args.mu) > m_min:
        raise _UsageError(f"--mu gives {len(args.mu)} nests, more than the {m_min} locations")


def _make_instance(params: GeneratorParams, kind: str, mu, theta: float, samples: int):
    """Generate one mnl, nested (one nest per ``mu`` value) or mmnl instance."""
    if kind == "mmnl":
        return mmnl_expand(params, MmnlParams(theta=theta, samples=samples, seed=params.seed))
    model = assign_nests(params.locations, len(mu), mu) if kind == "nested" else MultinomialLogit()
    return generate_euclidean(params, model)


# -- generate -------------------------------------------------------------------


def _cmd_generate(args) -> int:
    _resolve_model_flags(args, [args.model], args.locations)

    params = GeneratorParams(
        zones=args.zones,
        locations=args.locations,
        competitors=args.competitors,
        alpha=args.alpha,
        beta=args.beta,
        plane_side=args.plane_side,
        seed=args.seed,
    )
    inst = _make_instance(params, args.model, args.mu, theta=args.beta, samples=args.mmnl_K)
    write_instance(inst, args.out)
    tag = "mnl" if isinstance(inst.model, MultinomialLogit) else "nested"
    print(f"{args.out}: zones={inst.n_zones} m={inst.m} model={tag} seed={args.seed}")
    return 0


# -- solve ----------------------------------------------------------------------


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    cfg = SolverConfig(
        C=args.C,
        delta=args.delta,
        time_budget=args.time_budget,
        algo=args.algo,
    )
    solution, report = ggx(inst, cfg)

    tag = "mnl" if isinstance(inst.model, MultinomialLogit) else "nested"
    if args.json:
        payload = {
            "instance": str(args.instance),
            "zones": inst.n_zones,
            "m": inst.m,
            "model": tag,
            "algo": args.algo,
            "C": args.C,
            "delta": args.delta,
            "coef_mode": args.coef_mode,
            "selected": [j + 1 for j in solution.selected],
            "objective": float(f"{solution.objective:.12f}"),
            "phases": [
                {
                    "name": p.name,
                    "objective": float(f"{p.objective:.12f}"),
                    "iterations": p.iterations,
                    "wall_ms": round(p.wall_ms, 3) if args.stamp else 0.0,
                }
                for p in report.phases
            ],
        }
        if args.stamp:
            payload["wall_ms_total"] = round(sum(p.wall_ms for p in report.phases), 3)
        print(json.dumps(payload, indent=2))
    else:
        print(f"instance: {args.instance} (zones={inst.n_zones}, m={inst.m}, model={tag})")
        print(f"algo: {args.algo}  C={args.C}  delta={args.delta}  coef_mode={args.coef_mode}")
        print("selected: " + " ".join(str(j + 1) for j in solution.selected))
        print(f"objective: {solution.objective:.12f}")
        for p in report.phases:
            line = f"phase {p.name:<8} objective={p.objective:.12f} iterations={p.iterations}"
            if args.stamp:
                line += f" wall_ms={p.wall_ms:.3f}"
            print(line)
    return 0


# -- check ----------------------------------------------------------------------


def _default_check_instances(seed: int):
    # beta = 1 keeps every utility inside the clamp window on the default plane
    params = GeneratorParams(zones=30, locations=15, competitors=5, alpha=0.1, beta=1.0, seed=seed)
    return [(kind, _make_instance(params, kind, DEFAULT_MU, theta=1.0, samples=100))
            for kind in ("mnl", "nested")]


_SUITES = ("submodularity", "monotonicity", "gradient", "subproblem", "euler", "all")


def _cmd_check(args) -> int:
    wanted = list(_SUITES[:-1]) if args.suite == "all" else [args.suite]
    if args.instance is not None and args.suite == "subproblem":
        raise _UsageError("--instance does not apply to suite subproblem")
    if args.instance is not None:
        labelled = [(str(args.instance), read_instance(args.instance))]
    else:
        labelled = _default_check_instances(args.seed)

    reports = []
    for suite in wanted:
        if suite == "subproblem":
            report = oracle.check_subproblem(args.trials, args.seed)
            reports.append(report)
            print(str(report))
            continue
        fn = {
            "submodularity": oracle.check_submodularity,
            "monotonicity": oracle.check_monotonicity,
            "gradient": oracle.check_gradient,
            "euler": oracle.check_cpgf_contracts,
        }[suite]
        for label, inst in labelled:
            report = fn(inst, args.trials, seed=args.seed)
            reports.append(report)
            print(f"[{label}] {report}")
    return 0 if all(r.passed for r in reports) else 3


# -- bench ----------------------------------------------------------------------


def _run_cell(cell, args):
    """Rows for one grid cell: per C, one ``ggx`` run gives the gh and ggx rows, then bf."""
    (zones, m), model_kind, seed, alpha, beta = cell
    instance_id = f"I{zones}_m{m}_{model_kind}_a{alpha:g}_b{beta:g}_s{seed}"
    params = GeneratorParams(
        zones=zones, locations=m, competitors=args.competitors,
        alpha=alpha, beta=beta, plane_side=args.plane_side, seed=seed,
    )
    inst = _make_instance(params, model_kind, args.mu, theta=beta, samples=args.mmnl_K)
    rows = []
    for C in args.C:
        t0 = time.perf_counter()
        sol, report = ggx(inst, SolverConfig(C=C, delta=args.delta, time_budget=args.time_budget))
        t1 = time.perf_counter()
        gh = report.phases[0]  # the greedy phase of this run is the gh row
        results = [("gh", gh.objective, gh.wall_ms), ("ggx", sol.objective, (t1 - t0) * 1e3)]
        if args.bf_max and math.comb(m, C) <= args.bf_max:  # timed from the end of the ggx run
            results.append(("bf", brute_force_opt(inst, C).objective, (time.perf_counter() - t1) * 1e3))
        best = max(f for _, f, _ in results)  # match_best allows 1e-9 relative slack
        for algo, f, wall in results:
            rows.append({
                "instance_id": instance_id, "I": zones, "m": m, "C": C,
                "alpha": alpha, "beta": beta, "model": model_kind, "algo": algo,
                "objective": f, "wall_ms": wall,
                "match_best": f >= best - 1e-9 * max(1.0, abs(best)),
            })
    return rows


def _cmd_bench(args) -> int:
    m_min = min(m for _, m in args.grid)
    C_max = args.C[-1] if isinstance(args.C, range) else max(args.C)  # max() would walk a range
    if C_max > m_min:
        raise _UsageError(f"--C {C_max} exceeds the smallest grid m={m_min}")
    _resolve_model_flags(args, args.models, m_min)
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir) or os.path.isdir(args.out):  # found before any cell runs, not after all
        raise OSError(f"cannot write {args.out}: it must name a file in an existing directory")
    cells = itertools.product(args.grid, args.models, range(args.seeds), args.alphas, args.betas)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = [row for chunk in pool.map(lambda cell: _run_cell(cell, args), cells) for row in chunk]

    lines = []
    if args.stamp:
        lines.append(f"# generated_at={datetime.now(timezone.utc).isoformat()}")
    lines.append(CSV_HEADER)
    for row in rows:
        wall = f"{row['wall_ms']:.3f}" if args.stamp else "0"
        lines.append(
            f"{row['instance_id']},{row['I']},{row['m']},{row['C']},"
            f"{row['alpha']:g},{row['beta']:g},{row['model']},{row['algo']},"
            f"{row['objective']:.12f},{wall},{'true' if row['match_best'] else 'false'}"
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    _print_bench_summary(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _print_bench_summary(rows) -> None:
    """Per problem group: best-objective matches and mean measured wall time."""
    summary = {}
    for row in rows:
        key = (row["I"], row["m"], row["model"], row["algo"])
        matches, total, wall = summary.get(key, (0, 0, 0.0))
        summary[key] = (matches + bool(row["match_best"]), total + 1, wall + row["wall_ms"])
    print(f"{'I':>6} {'m':>5} {'model':>7} {'algo':>5} {'best':>9} {'mean_ms':>10}")
    for (zones, m, model, algo), (matches, total, wall) in sorted(summary.items()):
        print(f"{zones:>6} {m:>5} {model:>7} {algo:>5} {matches:>4}/{total:<4} {wall / total:>10.2f}")


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxcap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a synthetic .mcp instance")
    gen.add_argument("--zones", type=_positive_int, required=True)
    gen.add_argument("--locations", type=_positive_int, required=True)
    gen.add_argument("--competitors", type=_positive_int, default=5)
    gen.add_argument("--alpha", type=_positive_float, default=0.1)
    gen.add_argument("--beta", type=_positive_float, default=1.0, help="distance sensitivity; theta for mmnl")
    gen.add_argument("--plane-side", type=_positive_float, default=30.0)
    gen.add_argument("--model", choices=_MODELS, default="mnl")
    gen.add_argument("--mu", type=_positive_floats, default=None, help="one value >= 1 per nest, comma separated")
    gen.add_argument("--mmnl-K", dest="mmnl_K", type=_positive_int, default=None)
    gen.add_argument("--seed", type=_non_negative_int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an .mcp instance")
    solve.add_argument("instance")
    solve.add_argument("--C", type=_positive_int, required=True)
    solve.add_argument("--delta", type=_positive_even_int, default=4)
    solve.add_argument("--coef-mode", choices=("gradient",), default="gradient",
                       help="accepted for existing scripts; sets nothing")
    solve.add_argument("--algo", choices=("gh", "ggx"), default="ggx")
    solve.add_argument("--time-budget", type=_positive_float, default=DEFAULT_TIME_BUDGET)
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--stamp", action="store_true", help="include measured wall times")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="run randomized property audits")
    check.add_argument("--suite", choices=_SUITES, default="all")
    check.add_argument("--trials", type=_positive_int, required=True)
    check.add_argument("--seed", type=_non_negative_int, default=0)
    check.add_argument("--instance", default=None)
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="run a benchmark grid and write CSV")
    bench.add_argument("--grid", type=lambda t: _list_of(t, _grid_cell, "grid"), required=True,
                       help="zone x location cells, e.g. 50x25,100x50")
    bench.add_argument("--alphas", type=_positive_floats, default=[0.01, 0.1, 1.0])
    bench.add_argument("--betas", type=_positive_floats, default=[1.0, 5.0, 10.0])
    bench.add_argument("--C", type=_int_range, default=range(2, 11))
    bench.add_argument("--models", type=lambda t: _list_of(t, _model, "model list"), default="mnl",
                       help="comma separated subset of mnl,nested,mmnl")
    bench.add_argument("--competitors", type=_positive_int, default=5)
    bench.add_argument("--plane-side", type=_positive_float, default=30.0)
    bench.add_argument("--mu", type=_positive_floats, default=None, help="one value >= 1 per nest, comma separated")
    bench.add_argument("--mmnl-K", dest="mmnl_K", type=_positive_int, default=None)
    bench.add_argument("--delta", type=_positive_even_int, default=4)
    bench.add_argument("--seeds", type=_positive_int, default=1,
                       help="geometry seeds 0..k-1 per grid cell")
    bench.add_argument("--time-budget", type=_positive_float, default=DEFAULT_TIME_BUDGET)
    bench.add_argument("--bf-max", dest="bf_max", type=_non_negative_int, default=0,
                       help="add brute-force rows when comb(m, C) is at most this")
    bench.add_argument("--jobs", type=_positive_int, default=1)
    bench.add_argument("--stamp", action="store_true", help="include timestamps and measured wall times")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"maxcap: error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError, ValueError) as exc:
        print(f"maxcap: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
