"""Layered benchmark of the ``maxcap`` command line.

Each workload is a closed loop with one client in one process and no think
time: an operation is an in-process call of ``maxcap.cli.main(argv)`` with
stdout captured, the same work as ``maxcap solve FILE ...`` or ``maxcap check
...`` minus interpreter start-up.  Instances are generated from ``--seed`` and
written as ``.mcp`` files during set-up; every output is checked after the
timed part.

    python3 bench/run.py --workload solve-nested --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate run with spans around each layer (see tracing.py).
``--workload all`` runs every workload in its own process and prints a table;
with ``--trace 1`` it runs each untraced and traced and reports the tracing
overhead.  The last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import (COUNTED, OP_SPAN, SETUP_SPANS, SWAP_BYTES_PER_CELL,  # noqa: E402
                     Tracer, coverage_problems, installed)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"


@dataclass(frozen=True)
class Solve:
    """A ``maxcap solve`` workload: planar geometry, 5 competitors, alpha 0.1, beta 5."""

    model: str  # "nested" (L=5, mu 1.1..1.5), "mnl" or "mmnl" (K=100 draws, theta 5)
    zones: int  # before mixed-logit expansion
    locations: int
    C: int
    instances: int  # geometry seeds per run, solved in turn


# Sized so that one op takes about 0.1 s: a run then holds a few hundred ops,
# and its tail (10 ops from the top) is a high percentile of many samples.
SOLVES = {
    "solve-nested": Solve("nested", 800, 100, 30, 4),
    "solve-mnl": Solve("mnl", 1000, 150, 25, 4),
    "solve-mmnl": Solve("mmnl", 25, 25, 5, 4),
}
WORKLOADS = tuple(SOLVES) + ("audit",)

# Geometry seeds come from a pool whose reference objectives (and iteration
# counts) are stored in reference.json, so every run can check against them.
POOL = 128
MU = (1.1, 1.2, 1.3, 1.4, 1.5)
AUDIT_TRIALS = 20  # an audit of about 0.1 s, like a solve op
AUDIT_LINES = 9  # four suites on two built-in instances, plus the subproblem suite
WARMUPS = 5  # audit set-up: untimed audits, as it has no instance files to write
REL_TOL = 1e-9

# The metrics of the result line and of BENCHMARK.json.  On a shared host
# the share of a run that neighbours slow down changes from run to run,
# which moves the median and the mean; the tail sits in the slowed ops of
# every run, so only it is gated among the op latencies.
END_TO_END = (
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed beside them, not gated
REPORTED = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
)

_SELF = ["cli.self_s", "solver.self_s"]
_PAIRS = [
    ("instances.read_instance", ("s", "calls", "bytes")),
    ("instances.generate", ("s",)),
    ("instances.write_instance", ("s",)),
    ("objective.evaluator.swap", ("s", "calls", "cells", "bytes_computed")),
    ("objective.evaluator.additions", ("s", "calls", "cells")),
    ("objective.evaluator.reset", ("s", "calls")),
    ("objective.evaluator.removals", ("s", "calls")),
    ("objective.evaluator.coefficients", ("s", "calls")),
    ("objective.objective", ("s", "calls")),
    ("objective.objective_relaxed", ("s", "calls")),
    ("objective.objective_gradient", ("s", "calls")),
    ("choice_models.value_rows", ("s", "calls", "rows")),
    ("choice_models.grad_rows", ("s", "calls", "rows")),
    ("solver.solve_subproblem", ("s", "calls")),
    ("oracle.check_submodularity", ("s",)),
    ("oracle.check_monotonicity", ("s",)),
    ("oracle.check_gradient", ("s",)),
    ("oracle.check_subproblem", ("s",)),
    ("oracle.check_cpgf_contracts", ("s",)),
    ("oracle.brute_force_subproblem", ("s", "calls")),
]
_UNITS = {"s": "s", "calls": "count", "rows": "count", "cells": "count",
          "bytes": "B", "bytes_computed": "B", "iterations": "count"}

# (name, unit, better); every value is per cycle of the workload's op list
PER_LAYER = tuple(
    [(name, "s", "lower") for name in _SELF]
    + [(f"{layer}.{kind}", _UNITS[kind], "lower") for layer, kinds in _PAIRS for kind in kinds]
    + [
        ("instances.clamp_warnings", "count", "lower"),
        ("solver.greedy.s", "s", "lower"),
        ("solver.gradient.s", "s", "lower"),
        ("solver.exchange.s", "s", "lower"),
        ("solver.gradient.iterations", "count", "lower"),
        ("solver.exchange.iterations", "count", "lower"),
        ("solver.gradient.improved_frac", "ratio", "higher"),
        ("solver.exchange.improved_frac", "ratio", "higher"),
        ("solver.objective_sum", "demand", "higher"),
        ("trace.ops_per_s", "1/s", "higher"),
    ]
)
# deterministic counts, written to the counters artifact apart from timings
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B", "ratio"))


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs."""


def load_maxcap():
    """Import maxcap from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "maxcap" / "__init__.py").is_file():
        raise SetupError(f"no maxcap sources under {src}")
    sys.path.insert(0, str(src))
    import maxcap
    import maxcap.cli  # noqa: F401

    if Path(maxcap.__file__).resolve().parent != src / "maxcap":
        raise SetupError(f"imported maxcap from {maxcap.__file__}, expected {src}")
    return maxcap


def reference(workload):
    """Per geometry seed: the reference objective and exchange iterations."""
    return json.loads(REFERENCE.read_text())[workload]


def cost_class(workload):
    """Pool seeds whose reference solve takes the pool's median number of passes.

    Solve time grows with the gradient and exchange iterations, which vary
    between geometries, so a plain draw of seeds makes the op-time mix (and
    its tail) differ from run to run.  Restricting the draw to one class of
    (gradient, exchange) iterations, the median of each over the pool, makes
    every run solve instances of one typical cost.
    """
    ref = reference(workload)
    pairs = list(zip(ref["gradient_iterations"], ref["exchange_iterations"]))
    typical = tuple(int(statistics.median_low(col)) for col in zip(*pairs))
    return [g for g, pair in enumerate(pairs) if pair == typical]


def geometry_seeds(workload, seed):
    """The run's geometry seeds: drawn by ``seed``, without repeats, from the cost class."""
    pool = cost_class(workload)
    count = SOLVES[workload].instances
    if len(pool) < count:
        raise SetupError(f"{workload}: {len(pool)} pool seeds in the cost class, {count} needed")
    rng = np.random.default_rng([seed, 1])
    return [pool[int(i)] for i in rng.choice(len(pool), size=count, replace=False)]


def generate(spec, geo_seed):
    """One instance of ``spec`` for a geometry seed, and its clamp warning count.

    The generator's clamp RuntimeWarnings are counted instead of printed.
    """
    from maxcap import (GeneratorParams, MmnlParams, MultinomialLogit, assign_nests,
                        generate_euclidean, mmnl_expand)

    params = GeneratorParams(zones=spec.zones, locations=spec.locations, competitors=5,
                             alpha=0.1, beta=5.0, seed=geo_seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if spec.model == "mmnl":
            inst = mmnl_expand(params, MmnlParams(theta=5.0, samples=100, seed=geo_seed))
        elif spec.model == "nested":
            inst = generate_euclidean(params, assign_nests(spec.locations, len(MU), MU))
        else:
            inst = generate_euclidean(params, MultinomialLogit())
    clamps = 0
    for w in caught:
        if issubclass(w.category, RuntimeWarning) and str(w.message).startswith("clamped"):
            clamps += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return inst, clamps


def solve_argv(path, spec, traced):
    argv = ["solve", str(path), "--C", str(spec.C), "--algo", "ggx", "--delta", "4",
            "--coef-mode", "gradient", "--json"]
    # phase 2 and 3 are private, so their times come from the --stamp report
    return argv + ["--stamp"] if traced else argv


def audit_argv(seed):
    return ["check", "--suite", "all", "--trials", str(AUDIT_TRIALS), "--seed", str(seed)]


@dataclass
class Op:
    argv: list
    code: int | None
    out: str
    err: str
    seconds: float


def run_op(main, argv):
    """Call ``main(argv)`` with stdout and stderr captured; a crash is a failed op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def set_up(workload, seed, workdir, call):
    """Prepare one run's inputs.

    Returns the written instance files as (path, geometry seed) pairs, the
    seconds each set-up unit took and the number of clamp warnings.  A unit is one instance generated and
    written (solve workloads) or one short warm-up audit (audit, which reads
    no files).  ``call(span, fn, *args)`` runs each step, traced or not.
    """
    from maxcap import cli, write_instance

    if workload == "audit":
        units = []
        for i in range(WARMUPS):
            t0 = time.perf_counter()
            code, out, err = run_op(lambda argv: call(OP_SPAN, cli.main, argv), audit_argv(seed + i))
            units.append(time.perf_counter() - t0)
            reason = audit_failure(code, out, err)
            if reason:
                raise SetupError(f"warm-up audit failed: {reason}")
        return [], units, 0

    spec = SOLVES[workload]
    paths, units, clamps = [], [], 0
    for geo in geometry_seeds(workload, seed):
        path = workdir / f"{workload}-g{geo}.mcp"
        t0 = time.perf_counter()
        inst, clamped = call("instances.generate", generate, spec, geo)
        call("instances.write_instance", write_instance, inst, path)
        units.append(time.perf_counter() - t0)
        clamps += clamped
        paths.append((path, geo))
    return paths, units, clamps


def timed_loop(argv_of, main, seconds, cycle_len):
    """Run ops back to back until ``seconds`` have passed and a cycle is whole.

    ``cycle_len`` is 1 for untraced runs, which stop at the first op past the
    deadline; traced runs stop on whole cycles so per-cycle figures divide evenly.
    """
    ops = []
    start = time.perf_counter()
    while True:
        argv = argv_of(len(ops))
        t0 = time.perf_counter()
        code, out, err = run_op(lambda a: main(a, len(ops)), argv)
        t1 = time.perf_counter()
        ops.append(Op(argv, code, out, err, t1 - t0))
        if t1 - start >= seconds and len(ops) % cycle_len == 0:
            return ops, t1 - start


# -- output checks -----------------------------------------------------------------


def audit_failure(code, out, err, trials=AUDIT_TRIALS):
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    lines = out.splitlines()
    if len(lines) != AUDIT_LINES:
        return f"expected {AUDIT_LINES} report lines, got {len(lines)}"
    for line in lines:
        if not line.endswith("[PASS]") or f"trials={trials}" not in line.split():
            return f"report line not a PASS with trials={trials}: {line}"
    return None


def solve_failure(op, inst, spec, reference, recomputed):
    """Why a solve op's output is wrong, or None.

    Another selection with an equal or better objective is not a failure.
    """
    from maxcap import objective

    if op.code != 0:
        return f"exit code {op.code}: {op.err.strip()[-300:]}"
    try:
        payload = json.loads(op.out)
        selected = payload["selected"]
        reported = float(payload["objective"])
        phases = [float(p["objective"]) for p in payload["phases"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if (len(selected) != spec.C or len(set(selected)) != spec.C
            or not all(isinstance(j, int) and 1 <= j <= inst.m for j in selected)):
        return f"selection is not {spec.C} distinct indices in 1..{inst.m}: {selected}"
    key = tuple(sorted(selected))
    if key not in recomputed:
        recomputed[key] = objective(inst, [j - 1 for j in key])
    exact = recomputed[key]
    if abs(reported - exact) > REL_TOL * abs(exact):
        return f"reported objective {reported!r} but recompute gives {exact!r}"
    if any(b < a for a, b in zip(phases, phases[1:])):
        return f"phase objectives decrease: {phases}"
    if reported < reference - REL_TOL * abs(reference):
        return f"objective {reported!r} below the reference {reference!r}"
    return None


def check_ops(workload, ops, paths):
    """One failure reason (or None) per op, computed outside the timed part."""
    if workload == "audit":
        return [audit_failure(op.code, op.out, op.err) for op in ops]
    spec = SOLVES[workload]
    objectives = reference(workload)["objective"]
    failures = {}
    for path, geo in paths:
        # regenerating is bit-identical to reading the file back: floats are written with 17 digits
        inst, recomputed = generate(spec, geo)[0], {}
        for i, op in enumerate(ops):
            if op.argv[1] == str(path):
                failures[i] = solve_failure(op, inst, spec, objectives[geo], recomputed)
    return [failures[i] for i in range(len(ops))]


# -- metrics ------------------------------------------------------------------------


def tail(latencies):
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 samples or fewer no
    percentile qualifies, and the minimum is returned.
    """
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(ops, elapsed, units):
    """The gated and the reported end-to-end metrics, and how the tail was taken."""
    latencies = [op.seconds for op in ops]
    value, pct, beyond = tail(latencies)
    metrics = {
        "op_tail_s": value,
        # each unit is timed on its own; the median resists one slow unit
        "setup_s": len(units) * statistics.median(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(ops) / elapsed,
        "op_p50_s": statistics.median(latencies),
    }
    note = f"op_tail_s is p{pct:.1f} of n={len(ops)} ops ({beyond} beyond)"
    return metrics, note


def layer_metrics(spans, cycle_len, cycles, payloads, clamps, traced_ops_per_s):
    """Per-layer metrics of a traced run, all per cycle of the op list.

    Times are summed over the run and divided by the cycles run; counts come
    from the first cycle and are identical in every cycle.
    """
    metrics = {name: (0.0 if unit in ("s", "demand", "1/s", "ratio") else 0)
               for name, unit, _ in PER_LAYER}
    self_key = {OP_SPAN: "cli.self_s", "solver.ggx": "solver.self_s",
                "solver.greedy": "solver.self_s"}
    for name, _parent, op, _start, _end, self_s, work in spans:
        if op == "setup":
            # instance set-up happens once per run; audit warm-ups are not ops
            if name in SETUP_SPANS:
                metrics[name + ".s"] += self_s
            continue
        key = self_key.get(name, name + ".s")
        if key in metrics:
            metrics[key] += self_s / cycles
        if op >= cycle_len:
            continue
        if name + ".calls" in metrics:
            metrics[name + ".calls"] += 1
        if work is not None:
            metrics[f"{name}.{COUNTED[name]}"] += work
    metrics["objective.evaluator.swap.bytes_computed"] = (
        SWAP_BYTES_PER_CELL * metrics["objective.evaluator.swap.cells"])
    metrics["instances.clamp_warnings"] = clamps
    metrics["trace.ops_per_s"] = traced_ops_per_s

    improved = {"gradient": 0, "exchange": 0}
    for i, payload in enumerate(payloads):
        if payload is None:
            continue
        greedy, gradient, exchange = payload["phases"]
        for phase in (greedy, gradient, exchange):
            metrics[f"solver.{phase['name']}.s"] += phase["wall_ms"] / 1e3 / cycles
        if i < cycle_len:
            metrics["solver.gradient.iterations"] += gradient["iterations"]
            metrics["solver.exchange.iterations"] += exchange["iterations"]
            improved["gradient"] += gradient["objective"] > greedy["objective"]
            improved["exchange"] += exchange["objective"] > gradient["objective"]
            metrics["solver.objective_sum"] += payload["objective"]
    if payloads:
        for phase, count in improved.items():
            metrics[f"solver.{phase}.improved_frac"] = count / cycle_len
    return metrics


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment():
    """Interpreter, library, processor and thread settings of this run."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size").strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- one workload ------------------------------------------------------------------


def run_workload(workload, seed, seconds, traced):
    import maxcap.cli

    print("env: " + json.dumps(environment(), sort_keys=True))
    workdir = OUT_DIR / workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if traced else None

    def call(span, fn, *args):
        return tracer.call(span, fn, *args) if traced else fn(*args)

    def cli_main(argv, i):
        if not traced:
            return maxcap.cli.main(argv)
        tracer.op = i
        return tracer.call(OP_SPAN, maxcap.cli.main, argv)

    with installed(tracer) if traced else contextlib.nullcontext():
        if traced:
            tracer.op = "setup"
        paths, units, clamps = set_up(workload, seed, workdir, call)
        try:
            if workload == "audit":
                cycle_len = 1
                argv_of = lambda i: audit_argv(seed + i)  # noqa: E731
            else:
                cycle_len = len(paths)
                argv_of = lambda i: solve_argv(paths[i % cycle_len][0], SOLVES[workload], traced)  # noqa: E731
            ops, elapsed = timed_loop(argv_of, cli_main, seconds, cycle_len if traced else 1)
            e2e, tail_note = end_to_end(ops, elapsed, units)
        finally:
            for path, _ in paths:
                path.unlink(missing_ok=True)

    failures = check_ops(workload, ops, paths)
    failed = sum(f is not None for f in failures)
    for op, reason in zip(ops, failures):
        if reason:
            print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)

    print(f"workload {workload} seed {seed}: {len(ops)} ops in {elapsed:.3f} s, "
          f"fail_frac {failed / len(ops):.6f} ({failed}/{len(ops)})")
    if not traced:
        for name, unit in END_TO_END + REPORTED:
            print(f"  {name} = {e2e[name]:.6g} {unit}")
        print(f"  {tail_note}; setup_s is {len(units)} x the median set-up unit")
        if workload != "audit":
            objective_sum = sum(json.loads(op.out)["objective"]
                                for op, reason in zip(ops[:len(paths)], failures) if reason is None)
            print(f"  objective_sum = {objective_sum!r} (first cycle, higher is better)")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        cycles = len(ops) // cycle_len
        payloads = []
        if workload != "audit":
            for op, reason in zip(ops, failures):
                payloads.append(json.loads(op.out) if reason is None else None)
        layers = layer_metrics(tracer.spans, cycle_len, cycles, payloads, clamps, len(ops) / elapsed)
        for problem in coverage_problems(workload, {span[0] for span in tracer.spans}):
            print(f"trace coverage: {problem}", file=sys.stderr)
        write_trace(workload, tracer.spans, layers)
        for name, unit, _ in PER_LAYER:
            print(f"  {name} = {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def write_trace(workload, spans, layers):
    """Write the spans (JSONL) and the byte-stable counters (JSON) of a traced run."""
    out = OUT_DIR / workload
    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write('["name", "parent", "op", "start", "end", "self_s", "count"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    counters = {name: layers[name] for name in COUNT_METRICS}
    (out / "counters.json").write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")


# -- all workloads ------------------------------------------------------------------


def printed_metrics(lines):
    """The ``  name = value unit`` lines of a run's output, as {name: value}."""
    values = {}
    for line in lines:
        name, eq, rest = line.strip().partition(" = ")
        if eq and line.startswith("  ") and " " not in name:
            with contextlib.suppress(ValueError, IndexError):
                values[name] = float(rest.split()[0])
    return values


def run_all(seed, seconds, traced):
    """Each workload in its own process, so peak RSS is per workload."""
    results, printed, code = {}, {}, 0
    modes = (False, True) if traced else (False,)
    for workload in WORKLOADS:
        for mode in modes:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(mode))]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
                code = code or proc.returncode or 2
                continue
            results[f"{workload}{'/trace' if mode else ''}"] = json.loads(lines[-1])
            printed[workload, mode] = printed_metrics(lines)
    table = END_TO_END + REPORTED
    print(f"\n{'workload':<14}" + "".join(f"{name:>13}" for name, _ in table) + f"{'fail_frac':>11}")
    for workload in WORKLOADS:
        result, values = results.get(workload), printed.get((workload, False))
        if result:
            row = "".join(f"{values[name]:>13.5g}" for name, _ in table)
            print(f"{workload:<14}{row}{result['failed'] / result['attempted']:>11.4f}")
    if traced:
        print("\ntracing overhead: 1 - traced / untraced ops_per_s")
        for workload in WORKLOADS:
            plain, trace = printed.get((workload, False)), printed.get((workload, True))
            if plain and trace:
                ratio = trace["trace.ops_per_s"] / plain["ops_per_s"]
                print(f"  {workload:<14} {100 * (1 - ratio):+.1f}%")
    print(json.dumps(results, sort_keys=True))
    return code


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_maxcap()
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
