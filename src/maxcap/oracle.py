"""Brute-force references and randomized property checks.

Everything here is deliberately independent of the solver's incremental
caches: subsets are evaluated from scratch through the module-level objective
functions, and the subproblem reference enumerates candidate selections
directly.  These serve as ground truth for the solver at small scale and as
randomized audits of the structural claims the solver relies on
(monotonicity, submodularity, non-negative coefficients).

An audit draws all its trials first, in the order a trial-by-trial loop
would, and then prices them in batches: the subsets of the submodularity and
monotonicity checks as indicator rows of one :func:`objective_relaxed` call,
the gradient check's points in one :func:`objective_gradient` call and each
trial's ``2m`` central-difference points in one more, and the contract
check's vectors through the model's ``*_rows`` methods.  A batched value is
bit for bit the single-point one, so batching changes no report.  A batch
is priced in chunks of rows, which bounds the pricing temporaries; the drawn
trials themselves are all held at once, so an audit's memory grows with its
trial count.
``objective``, ``objective_relaxed`` and ``objective_gradient`` stay bound
in this module, where ``bench/tracing.py`` wraps them by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import Instance, Solution, _integer, objective, objective_gradient, objective_relaxed  # noqa: F401
from .solver import subproblem_args

__all__ = [
    "PropertyReport",
    "brute_force_opt",
    "brute_force_subproblem",
    "check_submodularity",
    "check_monotonicity",
    "check_gradient",
    "check_cpgf_contracts",
    "check_subproblem",
]

ENUMERATION_GUARD = 10**7
# subsets priced per objective_relaxed call by brute_force_opt
_SUBSETS_PER_CALL = 4096
# absolute slack separating rounding noise from real structural violations
VIOLATION_SLACK = 1e-10
_FD_STEP = 1e-5  # check_gradient's central-difference step


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one randomized audit; deterministic given (instance, trials, seed)."""

    name: str
    trials: int
    violations: int
    worst_violation: float
    seed: int

    def __post_init__(self):
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: trials={self.trials} violations={self.violations} "
            f"worst={self.worst_violation:.3e} seed={self.seed} [{status}]"
        )


def _indicators(subsets, m: int) -> np.ndarray:
    """One indicator row of length m per subset."""
    rows = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    x = np.zeros((len(subsets), m))
    x[rows, np.concatenate(subsets)] = 1.0
    return x


def _report(name: str, excess: np.ndarray, tol: float, seed: int) -> PropertyReport:
    """Report over per-trial excesses: a trial violates when its excess is above tol.

    A NaN excess means a formula broke down, so it counts as a violation and
    makes the reported worst NaN rather than being skipped.
    """
    violations = int(np.count_nonzero(~(excess <= tol)))
    # max(0.0, ...) keeps 0.0 over a -0.0 excess, as the report prints the sign
    worst = math.nan if np.isnan(excess).any() else max(0.0, float(excess.max()))
    return PropertyReport(name, excess.size, violations, worst, seed)


def brute_force_opt(inst: Instance, C: int) -> Solution:
    """Exact optimum over all size-C subsets; ties go to the first in lex order."""
    if not 1 <= _integer(C, "cardinality C") <= inst.m:
        raise ValueError(f"cardinality must satisfy 1 <= C <= {inst.m}, got {C}")
    count = math.comb(inst.m, C)
    if count > ENUMERATION_GUARD:
        raise ValueError(f"refusing to enumerate {count} subsets (guard is {ENUMERATION_GUARD})")
    best_f, best_s = -np.inf, None
    subsets = itertools.combinations(range(inst.m), C)
    while chunk := list(itertools.islice(subsets, _SUBSETS_PER_CALL)):
        f = objective_relaxed(inst, _indicators(chunk, inst.m))
        k = int(np.argmax(f))  # the first maximum, so the first in lex order
        if f[k] > best_f:
            best_f, best_s = float(f[k]), chunk[k]
    return Solution(best_s, best_f)


def _removal_key(d, removed):
    return tuple(sorted((d[r], r) for r in removed))


def _addition_key(d, added):
    return tuple(sorted((-d[a], a) for a in added))


def brute_force_subproblem(d: np.ndarray, incumbent, C: int, delta: int) -> frozenset:
    """Enumerative reference for the coefficient subproblem.

    Maximizes sum of d over { |S| = C, 2 <= |S symdiff incumbent| <= delta },
    i.e. selections that move by at least one swap, matching what the fast
    solver proposes.  Ties are resolved the same way: fewest swaps first,
    then removals of the smallest coefficients (index breaking equal values),
    then additions of the largest.  Arguments are checked by the fast
    solver's own :func:`~maxcap.solver.subproblem_args`, so both reject the
    same inputs with the same messages.
    """
    d, inside, half = subproblem_args(d, incumbent, C, delta)
    m, C = d.size, inside.size
    inside = tuple(inside.tolist())
    outside = tuple(sorted(set(range(m)).difference(inside)))
    count = sum(math.comb(C, t) * math.comb(m - C, t) for t in range(1, half + 1))
    if count > ENUMERATION_GUARD:
        raise ValueError(f"refusing to enumerate {count} candidates (guard is {ENUMERATION_GUARD})")

    # exact integer scores, so mathematically tied candidates really tie
    # regardless of float summation order: each float is num / den with den a
    # power of two, and scaling every one to the largest den keeps sums exact
    ratios = [float(v).as_integer_ratio() for v in d]
    scale = max(den for _, den in ratios)
    exact = [num * (scale // den) for num, den in ratios]
    best_score, best_key, best_set = None, None, None
    for t in range(1, half + 1):
        for removed in itertools.combinations(inside, t):
            drop = sum(exact[r] for r in removed)
            for added in itertools.combinations(outside, t):
                score = sum(exact[a] for a in added) - drop
                if best_score is not None and score < best_score:
                    continue
                key = (t, _removal_key(d, removed), _addition_key(d, added))
                if best_score is None or score > best_score or key < best_key:
                    best_score, best_key = score, key
                    best_set = frozenset(set(inside).difference(removed).union(added))
    return best_set


def _rng(trials: int, seed: int) -> np.random.Generator:
    """The random stream of an audit of ``trials`` trials; at least one trial is required."""
    _integer(trials, "trials", low=1)
    return np.random.default_rng(_integer(seed, "seed", low=0))


def check_submodularity(inst: Instance, trials: int, seed: int = 0) -> PropertyReport:
    """Diminishing returns: gain of j on A at least the gain on any B containing A.

    Samples (A subset of B, j outside B) uniformly: |B| uniform on [1, m-1],
    B uniform among those sets, A a uniform subset of B, j uniform outside B.
    """
    rng = _rng(trials, seed)
    m = inst.m
    subsets = []
    for _ in range(trials):
        size_b = int(rng.integers(1, m)) if m > 1 else 0
        b = np.sort(rng.choice(m, size=size_b, replace=False))
        a = b[rng.random(size_b) < 0.5]
        pool = np.setdiff1d(np.arange(m), b, assume_unique=True)
        j = int(rng.choice(pool))
        subsets += [np.append(a, j), a, np.append(b, j), b]
    f = objective_relaxed(inst, _indicators(subsets, m)).reshape(trials, 4)
    gain_a, gain_b = f[:, 0] - f[:, 1], f[:, 2] - f[:, 3]
    return _report("submodularity", gain_b - gain_a, VIOLATION_SLACK, seed)


def check_monotonicity(inst: Instance, trials: int, seed: int = 0) -> PropertyReport:
    """Adding a location never loses demand: f(S + j) >= f(S).

    Counts a violation when the gain drops below -slack; locations with zero
    attraction everywhere legitimately gain exactly 0.
    """
    rng = _rng(trials, seed)
    m = inst.m
    subsets = []
    for _ in range(trials):
        size_s = int(rng.integers(0, m))
        s = np.sort(rng.choice(m, size=size_s, replace=False))
        pool = np.setdiff1d(np.arange(m), s, assume_unique=True)
        j = int(rng.choice(pool))
        subsets += [np.append(s, j), s]
    f = objective_relaxed(inst, _indicators(subsets, m)).reshape(trials, 2)
    return _report("monotonicity", -(f[:, 0] - f[:, 1]), VIOLATION_SLACK, seed)


def check_gradient(inst: Instance, trials: int, seed: int = 0) -> PropertyReport:
    """Central finite differences of the relaxed objective against its gradient.

    Samples interior points x in [0.1, 0.9]^m; a trial fails when some entry
    differs by more than 1e-5 relative to max(1, |coefficient|).
    """
    rng = _rng(trials, seed)
    m = inst.m
    points = np.array([rng.uniform(0.1, 0.9, m) for _ in range(trials)])
    grads = objective_gradient(inst, points)
    steps = _FD_STEP * np.eye(m)  # row j moves entry j alone, by exactly the step
    errs = np.empty(trials)
    for t, (x, grad) in enumerate(zip(points, grads)):
        f = objective_relaxed(inst, np.concatenate([x + steps, x - steps]))
        fd = (f[:m] - f[m:]) / (2.0 * _FD_STEP)
        errs[t] = (np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))).max()
    return _report("gradient", errs, 1e-5, seed)


def check_subproblem(trials: int, seed: int = 0) -> PropertyReport:
    """Random small subproblems: the fast solver must match enumeration set-for-set.

    Draws coefficient vectors (30% quantized to force ties), incumbents, and
    feasible (C, delta) combinations with m <= 12, then compares the returned
    selections.  The recorded magnitude is the worst coefficient-sum gap over
    mismatching trials (0 when only the tie rule disagreed).
    """
    from .solver import solve_subproblem  # comparison driver; oracle math stays independent

    rng = _rng(trials, seed)
    violations, worst = 0, 0.0
    for _ in range(trials):
        m = int(rng.integers(4, 13))
        C = int(rng.integers(1, m))
        half = int(rng.integers(1, min(C, m - C) + 1))
        d = rng.uniform(0.0, 1.0, m)
        if rng.random() < 0.3:
            d = np.round(d, 1)  # coefficient ties exercise the tie rules
        incumbent = frozenset(int(j) for j in rng.choice(m, C, replace=False))
        fast = solve_subproblem(d, incumbent, C, 2 * half)
        exact = brute_force_subproblem(d, incumbent, C, 2 * half)
        if fast != exact:
            violations += 1
            worst = max(worst, float(d[list(exact)].sum() - d[list(fast)].sum()))
    return PropertyReport("subproblem", trials, violations, worst, seed)


def check_cpgf_contracts(inst: Instance, trials: int, seed: int = 0) -> PropertyReport:
    """Generating-function contracts on random attraction vectors.

    Per trial: homogeneity |G(ly) - l G(y)| <= 1e-9 max(1, l G(y)), the Euler
    identity |G(y) - sum y_j dG_j(y)| <= 1e-9 max(1, G(y)), non-negativity of
    G and its gradient, and choice probabilities that are non-negative and
    sum to 1 within 1e-12 with a strictly positive outside share.
    """
    rng = _rng(trials, seed)
    model, m = inst.model, inst.m
    y, lam = np.empty((trials, m)), np.empty(trials)
    for t in range(trials):
        y[t] = rng.uniform(0.0, 5.0, m)
        y[t, rng.random(m) < 0.2] = 0.0  # exercise closed locations too
        lam[t] = rng.uniform(0.1, 10.0)
    g = model.value_rows(y)
    dg = model.grad_rows(y)
    p = model.probabilities_rows(y)
    scaled = lam * g
    signs_ok = (g >= 0.0) & np.all(dg >= 0.0, axis=1) & np.all(p >= 0.0, axis=1) & (p[:, -1] > 0.0)
    errs = np.column_stack([
        np.abs(model.value_rows(lam[:, None] * y) - scaled) / np.maximum(1.0, scaled) / 1e-9,
        np.abs(g - (y * dg).sum(axis=1)) / np.maximum(1.0, g) / 1e-9,
        np.abs(p.sum(axis=1) - 1.0) / 1e-12,
        np.where(signs_ok, 0.0, 2.0),
    ])
    return _report("cpgf-contracts", errs.max(axis=1), 1.0, seed)
