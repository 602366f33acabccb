"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion returns a
canonical timing-free artifact string; the final determinism criterion reruns
all of the others with identical seeds and compares artifact bytes.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from maxcap import (
    GeneratorParams,
    Instance,
    MmnlParams,
    MultinomialLogit,
    SolverConfig,
    assign_nests,
    brute_force_opt,
    check_cpgf_contracts,
    check_gradient,
    check_monotonicity,
    check_submodularity,
    check_subproblem,
    generate_euclidean,
    ggx,
    greedy,
    mmnl_expand,
    objective,
)
from maxcap.cli import main as cli_main

GUARANTEE = 1.0 - 1.0 / math.e
ACCEPT_MU = np.linspace(1.0, 1.5, 4)  # nested dissimilarity within [1, 1.5]


# -- instance builders (fixed seeds; everything below is deterministic) ----------


def suite_instances():
    """10 seeded MNL + 10 seeded nested planar instances."""
    out = []
    for i in range(10):
        p = GeneratorParams(
            zones=20, locations=12, competitors=5,
            alpha=0.1 if i % 3 else 1.0, beta=1.0 if i % 2 == 0 else 5.0, seed=i,
        )
        out.append(("mnl", generate_euclidean(p, MultinomialLogit())))
        out.append(("nested", generate_euclidean(p, assign_nests(12, 4, ACCEPT_MU))))
    return out


def small_instance(i):
    """Criterion-3 pool: m <= 15, zones <= 30, C in {2, 3, 4}; half planar, half raw."""
    rng = np.random.default_rng([1234, i])
    zones = int(rng.integers(5, 31))
    m = int(rng.integers(6, 16))
    C = int(rng.integers(2, 5))
    n_nests = int(min(4, m))
    model = assign_nests(m, n_nests, np.linspace(1.0, 1.5, n_nests)) if i % 2 else MultinomialLogit()
    if i % 4 < 2:
        p = GeneratorParams(
            zones=zones, locations=m, competitors=5,
            alpha=float(rng.choice([0.01, 0.1, 1.0])), beta=float(rng.choice([1.0, 5.0])), seed=i,
        )
        return generate_euclidean(p, model), C
    Y = rng.uniform(0.0, 3.0, (zones, m)) * (rng.random((zones, m)) < 0.6)
    q = rng.uniform(0.5, 3.0, zones)
    return Instance.from_arrays(q, Y, model), C


# -- criteria --------------------------------------------------------------------


def criterion_1(workdir):
    """Submodularity: 1000 triples per instance, slack 1e-10, zero violations."""
    reports = [check_submodularity(inst, 1000, seed=7) for _, inst in suite_instances()]
    ok = all(r.passed for r in reports)
    return ok, f"{sum(r.violations for r in reports)} violations over 20 instances", \
        "\n".join(str(r) for r in reports)


def criterion_2(workdir):
    """Monotonicity: 1000 (S, j) pairs per instance, zero violations."""
    reports = [check_monotonicity(inst, 1000, seed=7) for _, inst in suite_instances()]
    ok = all(r.passed for r in reports)
    return ok, f"{sum(r.violations for r in reports)} violations over 20 instances", \
        "\n".join(str(r) for r in reports)


def criterion_3(workdir):
    """Greedy warm start earns at least (1 - 1/e) of the brute-force optimum, 100/100."""
    good, lines = 0, []
    for i in range(100):
        inst, C = small_instance(i)
        gh = greedy(inst, C)
        opt = brute_force_opt(inst, C)
        good += gh.objective >= GUARANTEE * opt.objective
        lines.append(f"{i}: gh={gh.objective:.12f} opt={opt.objective:.12f} set={opt.selected}")
    return good == 100, f"guarantee held on {good}/100", "\n".join(lines)


def criterion_4(workdir):
    """Region subproblem matches enumeration set-for-set on 1000/1000 trials."""
    report = check_subproblem(1000, seed=5)
    return report.passed, f"{report.trials - report.violations}/{report.trials} matches", str(report)


def criterion_5(workdir):
    """Full pipeline: never below greedy, optimal on >= 90/100, monotone phases."""
    ge = opt_hits = traj = 0
    lines = []
    for i in range(100):
        inst, C = small_instance(i)
        gh = greedy(inst, C)
        opt = brute_force_opt(inst, C)
        sol, report = ggx(inst, SolverConfig(C=C))
        ge += sol.objective >= gh.objective - 1e-12
        opt_hits += abs(sol.objective - opt.objective) <= 1e-9 * max(1.0, opt.objective)
        f1, f2, f3 = report.phase_objectives
        traj += f1 <= f2 <= f3
        lines.append(f"{i}: ggx={sol.objective:.12f} set={sol.selected} "
                     f"phases=({f1:.12f},{f2:.12f},{f3:.12f})")
    ok = ge == 100 and opt_hits >= 90 and traj == 100
    return ok, f"ggx>=gh {ge}/100, optimal {opt_hits}/100, monotone phases {traj}/100", \
        "\n".join(lines)


def criterion_6(workdir):
    """Objective gradient vs central differences at 100 interior points per model."""
    p = GeneratorParams(zones=15, locations=10, competitors=5, alpha=0.1, beta=1.0, seed=21)
    reports = [
        check_gradient(generate_euclidean(p, MultinomialLogit()), 100, seed=3),
        check_gradient(generate_euclidean(p, assign_nests(10, 4, ACCEPT_MU)), 100, seed=3),
    ]
    ok = all(r.passed for r in reports)
    return ok, f"worst relative error {max(r.worst_violation for r in reports):.3e}", \
        "\n".join(str(r) for r in reports)


def criterion_7(workdir):
    """Generating-function contracts plus nested-with-unit-mu == multinomial."""
    p = GeneratorParams(zones=8, locations=12, competitors=5, alpha=0.1, beta=1.0, seed=22)
    reports = [
        check_cpgf_contracts(generate_euclidean(p, MultinomialLogit()), 1000, seed=4),
        check_cpgf_contracts(generate_euclidean(p, assign_nests(12, 4, ACCEPT_MU)), 1000, seed=4),
    ]
    unit = assign_nests(12, 4, np.ones(4))
    mnl = MultinomialLogit()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        y = rng.uniform(0.0, 5.0, 12)
        worst = max(
            worst,
            abs(unit.value(y) - mnl.value(y)),
            float(np.abs(unit.grad(y) - mnl.grad(y)).max()),
            float(np.abs(unit.probabilities(y) - mnl.probabilities(y)).max()),
        )
    ok = all(r.passed for r in reports) and worst <= 1e-12
    artifact = "\n".join(str(r) for r in reports) + f"\nunit-mu-gap={worst:.3e}"
    return ok, f"contract reports clean, unit-mu gap {worst:.3e}", artifact


def criterion_8(workdir):
    """Expanded mixed-logit objective equals the mean of per-draw objectives, 1e-12."""
    worst, lines = 0.0, []
    for seed in range(20):
        zones = 5 + seed % 11
        m = 6 + seed % 5
        k = 10 + 2 * seed
        p = GeneratorParams(zones=zones, locations=m, competitors=4, alpha=0.1,
                            beta=1.0, seed=seed)
        inst = mmnl_expand(p, MmnlParams(theta=1.0 + seed % 3, samples=k, seed=seed))
        rng = np.random.default_rng([77, seed])
        diffs = []
        for _ in range(3):
            s = sorted(rng.choice(m, size=min(3, m), replace=False).tolist())
            expanded = objective(inst, s)
            per_draw = [
                objective(
                    Instance.from_arrays(np.ones(zones), inst.Y[d::k], MultinomialLogit()),
                    s,
                )
                for d in range(k)
            ]
            diffs.append(abs(expanded - float(np.mean(per_draw))))
        worst = max(worst, max(diffs))
        lines.append(f"seed={seed} zones={zones} K={k} max_diff={max(diffs):.3e}")
    return worst <= 1e-12, f"worst identity gap {worst:.3e}", "\n".join(lines)


def criterion_9(workdir):
    """Desk scale: zones=800, m=100, C=10 multinomial; gh <= 2 s, full run <= 30 s."""
    p = GeneratorParams(zones=800, locations=100, competitors=5, alpha=0.1, beta=1.0, seed=42)
    inst = generate_euclidean(p, MultinomialLogit())
    t0 = time.perf_counter()
    gh = greedy(inst, 10)
    gh_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sol, report = ggx(inst, SolverConfig(C=10, delta=4))
    ggx_s = time.perf_counter() - t0
    ok = gh_s <= 2.0 and ggx_s <= 30.0 and sol.objective >= gh.objective - 1e-12
    artifact = (f"gh set={gh.selected} f={gh.objective:.12f}\n"
                f"ggx set={sol.selected} f={sol.objective:.12f}")
    return ok, f"gh {gh_s:.2f}s, ggx {ggx_s:.2f}s", artifact


def criterion_10(workdir):
    """Nested 81-instance alpha/beta/C grid at (50, 25): mean warm-start gap <= 5%."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "grid.csv"
    code = cli_main([
        "bench", "--grid", "50x25", "--alphas", "0.01,0.1,1", "--betas", "1,5,10",
        "--C", "2:10", "--models", "nested", "--out", str(out),
    ])
    if code != 0:
        return False, f"bench exited {code}", ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    cells = {}
    for r in rows:
        cells.setdefault((r[0], r[3]), {})[r[7]] = float(r[8])
    gaps = [(c["ggx"] - c["gh"]) / c["ggx"] for c in cells.values()]
    mean_gap = float(np.mean(gaps))
    ok = len(gaps) == 81 and mean_gap <= 0.05
    return ok, f"mean gap {100 * mean_gap:.3f}% over {len(gaps)} instances", out.read_text()


CRITERIA = [
    (1, "submodularity suite", 30.0, criterion_1),
    (2, "monotonicity suite", 10.0, criterion_2),
    (3, "greedy guarantee", 60.0, criterion_3),
    (4, "subproblem exactness", 10.0, criterion_4),
    (5, "pipeline dominance and quality", 120.0, criterion_5),
    (6, "gradient correctness", 10.0, criterion_6),
    (7, "generating-function contracts", 10.0, criterion_7),
    (8, "mixed-logit expansion identity", 10.0, criterion_8),
    (9, "desk-scale performance", 32.0, criterion_9),
    (10, "warm-start quality gap", 300.0, criterion_10),
]

_first_artifacts = {}


def _run(num, base: Path):
    _, name, limit, fn = next(c for c in CRITERIA if c[0] == num)
    start = time.perf_counter()
    passed, detail, artifact = fn(base / f"c{num}")
    elapsed = time.perf_counter() - start
    return passed, detail, artifact, elapsed, limit, name


@pytest.mark.parametrize("num", [c[0] for c in CRITERIA])
def test_criterion(num, tmp_path_factory):
    base = tmp_path_factory.mktemp(f"acceptance_c{num}")
    passed, detail, artifact, elapsed, limit, name = _run(num, base)
    in_time = elapsed < limit
    status = "PASS" if passed and in_time else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    _first_artifacts[num] = artifact
    assert passed, f"criterion {num} ({name}): {detail}"
    assert in_time, f"criterion {num} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_11_determinism(tmp_path_factory):
    """Repeating criteria 1-10 with identical seeds reproduces artifact bytes."""
    base = tmp_path_factory.mktemp("acceptance_c11")
    mismatches = []
    for num, name, _, _ in CRITERIA:
        first = _first_artifacts.get(num)
        if first is None:
            first = _run(num, base / f"first{num}")[2]
        again = _run(num, base / f"again{num}")[2]
        if first.encode() != again.encode():
            mismatches.append(num)
    status = "PASS" if not mismatches else "FAIL"
    print(f"ACCEPTANCE 11 (determinism): {status} - "
          f"{10 - len(mismatches)}/10 criteria byte-identical on rerun")
    assert not mismatches, f"criteria {mismatches} produced different bytes on rerun"
