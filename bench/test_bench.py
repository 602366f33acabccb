"""Self-tests of the benchmark: metric names, output checks, trace coverage, stable counters.

    python3 -m pytest bench/test_bench.py -q

Runs every workload once traced (one cycle each, under a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import ALL_WORKLOADS, COVERAGE, coverage_problems

SEED = 2


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _traced(workload):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = run.OUT_DIR / workload
    with open(out / "spans.jsonl", encoding="utf-8") as fh:
        next(fh)
        names = {json.loads(line)[0] for line in fh}
    return json.loads(proc.stdout.splitlines()[-1]), names, (out / "counters.json").read_bytes(), proc.stderr


@pytest.fixture(scope="module")
def traced():
    return {workload: _traced(workload) for workload in run.WORKLOADS}


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(ALL_WORKLOADS)


@pytest.mark.parametrize("workload", list(run.SOLVES))
def test_instances_come_from_one_cost_class(workload):
    ref = run.reference(workload)
    cls = run.cost_class(workload)
    assert len({(ref["gradient_iterations"][g], ref["exchange_iterations"][g]) for g in cls}) == 1
    for seed in (1, 2, 3):
        seeds = run.geometry_seeds(workload, seed)
        assert seeds == run.geometry_seeds(workload, seed)
        assert len(set(seeds)) == run.SOLVES[workload].instances and set(seeds) <= set(cls)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_passes_output_checks(traced, workload):
    result = traced[workload][0]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_trace_coverage(traced, workload):
    names, stderr = traced[workload][1], traced[workload][3]
    assert coverage_problems(workload, names) == []
    assert "trace coverage" not in stderr
    assert names <= set(COVERAGE), "every recorded span is listed in COVERAGE"


@pytest.mark.parametrize("workload", ["solve-mmnl", "audit"])
def test_counters_are_byte_identical_across_runs(traced, workload):
    assert _traced(workload)[2] == traced[workload][2]


def _self_times(result):
    metrics = result["metrics"]
    phases = {"solver.greedy.s", "solver.gradient.s", "solver.exchange.s"}
    setup = {"instances.generate.s", "instances.write_instance.s"}
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "s" and name not in phases | setup}


def test_layer_split_matches_workload_purpose(traced):
    mmnl = _self_times(traced["solve-mmnl"][0])
    assert max(mmnl, key=mmnl.get) == "instances.read_instance.s"
    nested = _self_times(traced["solve-nested"][0])
    scans = nested.pop("objective.evaluator.swap.s") + nested.pop("objective.evaluator.additions.s")
    assert scans > max(nested.values())
    audit_names = traced["audit"][1]
    assert not {n for n in audit_names if n.startswith("objective.evaluator")} | (
        audit_names & {"instances.read_instance"})


# -- the output checks reject wrong results --------------------------------------------


@pytest.fixture(scope="module")
def small_solve():
    run.load_maxcap()
    from maxcap import cli, write_instance

    spec = run.Solve("nested", 40, 15, 3, 1)
    inst = run.generate(spec, 0)[0]
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = run.OUT_DIR / "check-small.mcp"
    write_instance(inst, path)
    argv = run.solve_argv(path, spec, traced=False)
    code, out, err = run.run_op(cli.main, argv)
    path.unlink()
    assert code == 0, err
    return spec, inst, run.Op(argv, code, out, err, 0.0)


def _edited(op, **changes):
    payload = json.loads(op.out)
    payload.update(changes)
    return run.Op(op.argv, op.code, json.dumps(payload), op.err, 0.0)


def test_solve_check_accepts_correct_output(small_solve):
    spec, inst, op = small_solve
    objective = json.loads(op.out)["objective"]
    assert run.solve_failure(op, inst, spec, objective, {}) is None


def test_solve_check_rejects_wrong_output(small_solve):
    spec, inst, op = small_solve
    payload = json.loads(op.out)
    f, selected = payload["objective"], payload["selected"]
    wrong = [
        run.Op(op.argv, 2, op.out, "boom", 0.0),
        _edited(op, objective=f * (1 + 1e-7)),
        _edited(op, selected=selected[:-1]),
        _edited(op, selected=[selected[0]] * len(selected)),
        _edited(op, selected=[0] + selected[1:]),
        _edited(op, phases=[{"objective": f + 1.0}] + payload["phases"][1:]),
    ]
    for bad in wrong:
        assert run.solve_failure(bad, inst, spec, f, {}) is not None
    assert run.solve_failure(op, inst, spec, f * (1 + 1e-6), {}) is not None


def test_audit_check_requires_pass_lines_with_trial_count():
    line = "[mnl] submodularity: trials=200 violations=0 worst=0.000e+00 seed=1 [PASS]"
    good = "\n".join([line] * run.AUDIT_LINES) + "\n"
    assert run.audit_failure(0, good, "", 200) is None
    assert run.audit_failure(3, good, "", 200) is not None
    assert run.audit_failure(0, good.replace("[PASS]", "[FAIL]", 1), "", 200) is not None
    assert run.audit_failure(0, good, "", 100) is not None
    assert run.audit_failure(0, line + "\n", "", 200) is not None


def test_refuses_to_run_without_the_program():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
