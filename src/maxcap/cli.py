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
import concurrent.futures
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

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
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _float_list(text: str):
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty number list {text!r}")
    return values


def _int_range(text: str):
    """Parse '2:10' as an inclusive range, or '2,5,7' / '4' as a list, of values >= 1."""
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer range or list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range or list {text!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"values must be >= 1, got {text!r}")
    return values


def _grid_list(text: str):
    cells = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        left, _, right = piece.partition("x")  # no 'x' leaves right empty, which int() rejects
        try:
            cells.append((int(left), int(right)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"grid cell {piece!r} must look like '50x25'") from None
    if not cells:
        raise argparse.ArgumentTypeError("empty grid")
    return cells


def _build_model(kind: str, m: int, n_nests: int, mu):
    if kind == "nested":
        if len(mu) != n_nests:
            raise _UsageError(f"--mu needs {n_nests} values for L={n_nests}, got {len(mu)}")
        return assign_nests(m, n_nests, mu)
    return MultinomialLogit()


# -- generate -------------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.model != "nested" and (args.mu is not None or args.L is not None):
        raise _UsageError("--L/--mu apply to --model nested only")
    if args.model != "mmnl" and (args.mmnl_K is not None or args.mmnl_theta is not None):
        raise _UsageError("--mmnl-K/--mmnl-theta apply to --model mmnl only")

    params = GeneratorParams(
        zones=args.zones,
        locations=args.locations,
        competitors=args.competitors,
        alpha=args.alpha,
        beta=args.beta,
        plane_side=args.plane_side,
        seed=args.seed,
    )
    if args.model == "mmnl":
        mp = MmnlParams(
            theta=args.mmnl_theta if args.mmnl_theta is not None else args.beta,
            samples=args.mmnl_K if args.mmnl_K is not None else 100,
            seed=args.seed,
        )
        inst = mmnl_expand(params, mp)
    else:
        n_nests = args.L if args.L is not None else 5
        mu = tuple(args.mu) if args.mu is not None else DEFAULT_MU
        model = _build_model(args.model, args.locations, n_nests, mu)
        inst = generate_euclidean(params, model)
    write_instance(inst, args.out)
    tag = "mnl" if isinstance(inst.model, MultinomialLogit) else "nested"
    print(f"{args.out}: zones={inst.n_zones} m={inst.m} model={tag} seed={args.seed}")
    return 0


# -- solve ----------------------------------------------------------------------


def _cmd_solve(args) -> int:
    if args.delta % 2 != 0:
        raise _UsageError(f"--delta must be even, got {args.delta}")
    inst = read_instance(args.instance)
    cfg = SolverConfig(
        C=args.C,
        delta=args.delta,
        coef_mode=args.coef_mode,
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
    mnl = generate_euclidean(params, MultinomialLogit())
    nested = generate_euclidean(params, assign_nests(15, 5, DEFAULT_MU))
    return [("mnl", mnl), ("nested", nested)]


_SUITES = ("submodularity", "monotonicity", "gradient", "subproblem", "euler", "all")


def _cmd_check(args) -> int:
    wanted = list(_SUITES[:-1]) if args.suite == "all" else [args.suite]
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


def _instance_for_cell(zones, m, model_kind, alpha, beta, seed, args):
    params = GeneratorParams(
        zones=zones, locations=m, competitors=args.competitors,
        alpha=alpha, beta=beta, plane_side=args.plane_side, seed=seed,
    )
    if model_kind == "mmnl":
        return mmnl_expand(params, MmnlParams(theta=beta, samples=args.mmnl_K, seed=seed))
    return generate_euclidean(params, _build_model(model_kind, m, args.L, args.mu))


def _bench_tasks(args):
    for zones, m in args.grid:
        for model_kind in args.models:
            for seed in range(args.seeds):
                for alpha in args.alphas:
                    for beta in args.betas:
                        instance_id = f"I{zones}_m{m}_{model_kind}_a{alpha:g}_b{beta:g}_s{seed}"
                        yield (zones, m, model_kind, seed, alpha, beta, instance_id)


def _run_cell(task, args):
    zones, m, model_kind, seed, alpha, beta, instance_id = task
    inst = _instance_for_cell(zones, m, model_kind, alpha, beta, seed, args)
    rows = []
    for C in args.C:
        if C > m:
            raise ValueError(f"C={C} exceeds m={m} in grid cell {instance_id}")
        algos = ["gh", "ggx"]
        if args.bf_max and math.comb(m, C) <= args.bf_max:
            algos.append("bf")
        for algo in algos:
            t0 = time.perf_counter()
            if algo == "bf":
                sol = brute_force_opt(inst, C)
            else:
                sol, _ = ggx(inst, SolverConfig(C=C, delta=args.delta, time_budget=args.time_budget,
                                                algo=algo))
            wall = (time.perf_counter() - t0) * 1e3
            rows.append({
                "instance_id": instance_id, "I": zones, "m": m, "C": C,
                "alpha": alpha, "beta": beta, "model": model_kind, "algo": algo,
                "objective": sol.objective, "wall_ms": wall,
            })
    return rows


def _cmd_bench(args) -> int:
    if args.delta % 2 != 0:
        raise _UsageError(f"--delta must be even, got {args.delta}")
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    bad = [m for m in models if m not in ("mnl", "nested", "mmnl")]
    if bad or not models:
        raise _UsageError(f"invalid --models {args.models!r}")
    args.models = models

    tasks = list(_bench_tasks(args))
    if not tasks:
        raise _UsageError("benchmark grid is empty")

    if args.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            per_task = list(pool.map(lambda t: _run_cell(t, args), tasks))
    else:
        per_task = [_run_cell(t, args) for t in tasks]
    rows = [row for chunk in per_task for row in chunk]

    # best objective per (instance, C) across algorithms, 1e-9 relative slack
    groups = {}
    for row in rows:
        key = (row["instance_id"], row["C"])
        groups[key] = max(groups.get(key, -np.inf), row["objective"])
    for row in rows:
        best = groups[(row["instance_id"], row["C"])]
        row["match_best"] = row["objective"] >= best - 1e-9 * max(1.0, abs(best))

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
    gen.add_argument("--beta", type=_positive_float, default=1.0)
    gen.add_argument("--plane-side", type=_positive_float, default=30.0)
    gen.add_argument("--model", choices=("mnl", "nested", "mmnl"), default="mnl")
    gen.add_argument("--L", type=_positive_int, default=None, help="nest count (nested only)")
    gen.add_argument("--mu", type=_float_list, default=None, help="nest parameters, comma separated")
    gen.add_argument("--mmnl-K", dest="mmnl_K", type=_positive_int, default=None)
    gen.add_argument("--mmnl-theta", dest="mmnl_theta", type=_positive_float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an .mcp instance")
    solve.add_argument("instance")
    solve.add_argument("--C", type=_positive_int, required=True)
    solve.add_argument("--delta", type=_positive_int, default=4)
    solve.add_argument("--coef-mode", choices=("gradient", "marginal"), default="gradient")
    solve.add_argument("--algo", choices=("gh", "ggx"), default="ggx")
    solve.add_argument("--time-budget", type=_positive_float, default=DEFAULT_TIME_BUDGET)
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--stamp", action="store_true", help="include measured wall times")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="run randomized property audits")
    check.add_argument("--suite", choices=_SUITES, default="all")
    check.add_argument("--trials", type=_positive_int, required=True)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--instance", default=None)
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="run a benchmark grid and write CSV")
    bench.add_argument("--grid", type=_grid_list, required=True, help="zone x location cells, e.g. 50x25,100x50")
    bench.add_argument("--alphas", type=_float_list, default=[0.01, 0.1, 1.0])
    bench.add_argument("--betas", type=_float_list, default=[1.0, 5.0, 10.0])
    bench.add_argument("--C", type=_int_range, default=list(range(2, 11)))
    bench.add_argument("--models", default="mnl", help="comma separated subset of mnl,nested,mmnl")
    bench.add_argument("--competitors", type=_positive_int, default=5)
    bench.add_argument("--plane-side", type=_positive_float, default=30.0)
    bench.add_argument("--L", type=_positive_int, default=5)
    bench.add_argument("--mu", type=_float_list, default=list(DEFAULT_MU))
    bench.add_argument("--mmnl-K", dest="mmnl_K", type=_positive_int, default=100)
    bench.add_argument("--delta", type=_positive_int, default=4)
    bench.add_argument("--seeds", type=_positive_int, default=1,
                       help="geometry seeds 0..k-1 per grid cell")
    bench.add_argument("--time-budget", type=_positive_float, default=DEFAULT_TIME_BUDGET)
    bench.add_argument("--bf-max", dest="bf_max", type=int, default=0,
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
