"""Three-phase solver: greedy warm-up, gradient-guided local search, exchange.

Phase 1 builds a size-C selection greedily; monotonicity plus submodularity
of the captured-demand objective guarantee the warm start is within a
(1 - 1/e) factor of the optimum.  Phase 2 linearizes the binary objective at
the incumbent's indicator point and maximizes the linear model exactly over
the region of selections within symmetric difference ``delta`` of the
incumbent (:func:`solve_subproblem`, O(m * delta / 2) via partial selection
of extreme coefficients).  Candidates are accepted only when the true
objective strictly improves.  Phase 3 runs best-improvement single swaps to
a local optimum.

Every tie is broken deterministically (smallest index, then fewest swaps), so
a run is a pure function of (instance, config) whenever no time budget is
hit.  All accepted objective values come from the canonical from-scratch
evaluation in :mod:`maxcap.objective`; the incremental caches only rank
candidates, so recorded phase trajectories are monotone by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .objective import IMPROVEMENT_EPS, IncrementalEvaluator, Instance, Solution, objective

__all__ = [
    "SolverConfig",
    "RunReport",
    "greedy",
    "solve_subproblem",
    "gradient_local_search",
    "exchange_search",
    "ggx",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solver run.

    ``delta`` bounds the symmetric difference explored by the phase-2
    subproblem; it is clamped per instance to ``2 * min(C, m - C)`` so the
    region stays feasible.  ``coef_mode`` selects how phase-2 coefficients
    are priced ("gradient" or "marginal").  ``time_budget`` is wall-clock
    seconds for the whole run, checked between iterations only.  The solver
    draws no random numbers, so a run needs no seed.
    """

    C: int
    delta: int = 4
    coef_mode: str = "gradient"
    time_budget: float | None = None

    def __post_init__(self):
        if self.C < 1:
            raise ValueError(f"cardinality C must be >= 1, got {self.C}")
        if self.delta < 2 or self.delta % 2 != 0:
            raise ValueError(f"delta must be a positive even integer, got {self.delta}")
        if self.coef_mode not in ("gradient", "marginal"):
            raise ValueError(f"coef_mode must be 'gradient' or 'marginal', got {self.coef_mode!r}")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive when given")

    def effective_delta(self, m: int) -> int:
        """Region size actually used for an instance with m locations."""
        return min(self.delta, 2 * min(self.C, m - self.C))


@dataclass(frozen=True)
class RunReport:
    """Per-phase trajectory of one run; objectives never decrease."""

    phase_objectives: tuple
    subproblem_iterations: int
    exchange_iterations: int
    wall_ms: tuple
    coef_mode: str

    def __post_init__(self):
        f1, f2, f3 = self.phase_objectives
        if not (f1 <= f2 and f2 <= f3):
            raise ValueError(f"phase objectives must be non-decreasing, got {self.phase_objectives}")


class _Deadline:
    def __init__(self, budget: float | None):
        self._until = None if budget is None else time.perf_counter() + budget

    def expired(self) -> bool:
        return self._until is not None and time.perf_counter() >= self._until


def greedy(inst: Instance, C: int) -> Solution:
    """Warm-up: add the best-gain location C times, ties to the smallest index."""
    if C < 1 or C > inst.m:
        raise ValueError(f"cardinality must satisfy 1 <= C <= {inst.m}, got {C}")
    ev = IncrementalEvaluator(inst)
    chosen: list[int] = []
    for _ in range(C):
        vals = ev.objectives_with_additions()
        j = int(np.argmax(vals))  # argmax returns the first maximum: smallest index
        chosen.append(j)
        ev.reset(chosen)
    chosen.sort()
    return Solution(tuple(chosen), objective(inst, chosen))


def _k_extreme(d: np.ndarray, pool: np.ndarray, k: int, largest: bool) -> np.ndarray:
    """The k most extreme coefficients of d over pool, ordered for prefix gains.

    Returns indices ordered ascending by d (descending when ``largest``),
    coefficient ties broken toward the smallest location index.  Uses a
    partial partition rather than a full sort, so the cost is
    O(len(pool) + k log k).
    """
    vals = d[pool]
    if largest:
        vals = -vals
    if k < pool.size:
        head = np.argpartition(vals, k - 1)[:k]
        threshold = vals[head].max()
        strict = pool[vals < threshold]
        tied = pool[vals == threshold]  # pool is ascending, so ties come smallest-index first
        take = np.concatenate([strict, tied[: k - strict.size]])
    else:
        take = pool
    keyed = sorted(take.tolist(), key=lambda j: (-d[j] if largest else d[j], j))
    return np.asarray(keyed, dtype=np.intp)


def solve_subproblem(d: np.ndarray, incumbent, C: int, delta: int) -> frozenset:
    """Maximize sum of d over selections of size C within symmetric difference delta.

    Picks the delta/2 smallest coefficients inside the incumbent and the
    delta/2 largest outside, evaluates the cumulative gain gamma(t) of
    swapping the first t of each, and applies the best prefix.  Always
    proposes at least one swap; the caller decides whether the true objective
    improves.  Ties: gamma ties go to the smallest t, coefficient ties to the
    smallest index.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError("coefficient vector must be 1-d")
    if np.any(d < 0.0):
        raise ValueError("coefficients must be non-negative")
    m = d.size
    inside = np.asarray(sorted(int(j) for j in incumbent), dtype=np.intp)
    if inside.size != C:
        raise ValueError(f"incumbent has {inside.size} locations, expected C={C}")
    if inside.size and (inside[0] < 0 or inside[-1] >= m):
        raise ValueError(f"incumbent indices must lie in [0, {m})")
    if delta < 2 or delta % 2 != 0:
        raise ValueError(f"delta must be a positive even integer, got {delta}")
    half = delta // 2
    outside = np.setdiff1d(np.arange(m, dtype=np.intp), inside, assume_unique=True)
    if half > min(C, m - C):
        raise ValueError(f"delta/2 = {half} exceeds min(C, m - C) = {min(C, m - C)}")

    drop = _k_extreme(d, inside, half, largest=False)
    add = _k_extreme(d, outside, half, largest=True)
    # cumulative swap gains in exact rational arithmetic: prefix sums of float
    # coefficients are order-dependent at the last ulp, which would make
    # mathematically tied region sizes compare inconsistently
    gamma = []
    acc = Fraction(0)
    for a, r in zip(add.tolist(), drop.tolist()):
        acc += Fraction(float(d[a])) - Fraction(float(d[r]))
        gamma.append(acc)
    t_star = max(range(half), key=lambda t: (gamma[t], -t)) + 1  # gain ties: smallest t
    result = set(inside.tolist())
    result.difference_update(drop[:t_star].tolist())
    result.update(add[:t_star].tolist())
    return frozenset(result)


def gradient_local_search(inst: Instance, start: Solution, cfg: SolverConfig) -> Solution:
    """Phase 2: repeat linearize-and-reselect until no strict improvement."""
    sol, _ = _gradient_local_search(inst, start, cfg, _Deadline(cfg.time_budget))
    return sol


def _gradient_local_search(inst, start, cfg, deadline):
    if len(start.selected) != cfg.C:
        raise ValueError(f"start selection has {len(start.selected)} locations, expected {cfg.C}")
    current = frozenset(start.selected)
    f_cur = objective(inst, current)
    iterations = 0
    delta = cfg.effective_delta(inst.m)
    if delta < 2:  # C equals m (or its complement is empty): nothing to explore
        return Solution(tuple(sorted(current)), f_cur), iterations
    ev = IncrementalEvaluator(inst)
    ev.reset(current)
    while not deadline.expired():
        iterations += 1
        d = ev.coefficients(cfg.coef_mode)
        candidate = solve_subproblem(d, current, cfg.C, delta)
        if candidate == current:
            break
        f_cand = objective(inst, candidate)
        if f_cand > f_cur + IMPROVEMENT_EPS:
            current, f_cur = candidate, f_cand
            ev.reset(current)
        else:
            break
    return Solution(tuple(sorted(current)), f_cur), iterations


def exchange_search(inst: Instance, start: Solution, cfg: SolverConfig) -> Solution:
    """Phase 3: best-improvement single swaps until locally optimal."""
    sol, _ = _exchange_search(inst, start, cfg, _Deadline(cfg.time_budget))
    return sol


def _exchange_search(inst, start, cfg, deadline):
    if len(start.selected) != cfg.C:
        raise ValueError(f"start selection has {len(start.selected)} locations, expected {cfg.C}")
    current = list(start.selected)
    f_cur = objective(inst, current)
    iterations = 0
    ev = IncrementalEvaluator(inst)
    ev.reset(current)
    while len(current) < inst.m and not deadline.expired():
        iterations += 1
        best_val, best_pair = -np.inf, None
        for j in current:  # ascending: the first strict maximum is the smallest (j, t) pair
            vals = ev.objectives_with_swap(j)
            t = int(np.argmax(vals))
            if vals[t] > best_val:
                best_val, best_pair = float(vals[t]), (j, t)
        if best_pair is None:
            break
        j, t = best_pair
        swapped = sorted(set(current) - {j} | {t})
        f_cand = objective(inst, swapped)
        if f_cand <= f_cur + IMPROVEMENT_EPS:
            break
        current, f_cur = swapped, f_cand
        ev.reset(current)
    return Solution(tuple(current), f_cur), iterations


def ggx(inst: Instance, cfg: SolverConfig):
    """Run all three phases; returns the final solution and a run report.

    The warm-up always runs to completion so the returned selection has
    exactly C locations; the time budget gates phases 2 and 3, checked
    between iterations.
    """
    if cfg.C > inst.m:
        raise ValueError(f"cardinality C={cfg.C} exceeds m={inst.m}")
    deadline = _Deadline(cfg.time_budget)

    t0 = time.perf_counter()
    warm = greedy(inst, cfg.C)
    t1 = time.perf_counter()
    refined, sub_iters = _gradient_local_search(inst, warm, cfg, deadline)
    t2 = time.perf_counter()
    final, ex_iters = _exchange_search(inst, refined, cfg, deadline)
    t3 = time.perf_counter()

    report = RunReport(
        phase_objectives=(warm.objective, refined.objective, final.objective),
        subproblem_iterations=sub_iters,
        exchange_iterations=ex_iters,
        wall_ms=((t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3),
        coef_mode=cfg.coef_mode,
    )
    return final, report
