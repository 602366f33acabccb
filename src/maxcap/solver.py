"""Three-phase solver: greedy warm-up, then one improvement loop run twice.

Phase 1 builds a size-C selection greedily; monotonicity plus submodularity
of the captured-demand objective guarantee the warm start is within a
(1 - 1/e) factor of the optimum.  Phases 2 and 3 are one loop,
:func:`_climb`, fed two proposals: propose a selection, price it from
scratch with :meth:`~maxcap.objective.IncrementalEvaluator.reset`, and keep
it only when its objective strictly improves
(:func:`~maxcap.objective.improves`); the first rejected proposal ends the
phase.  Phase 2's proposal linearizes the binary objective at the
incumbent's indicator point and maximizes the linear model exactly over the
region of selections within symmetric difference ``delta`` of the incumbent
(:func:`solve_subproblem`, O(m * delta / 2) via partial selection of extreme
coefficients).  Phase 3's proposal is the best single swap, so it runs
best-improvement swaps to a local optimum.  Both phases share one
:class:`~maxcap.objective.IncrementalEvaluator`; greedy keeps its own.

Every tie is broken deterministically (smallest index, then fewest swaps), so
a run is a pure function of (instance, config) whenever no time budget is
hit.  Every reported objective is the evaluator's from-scratch value of its
selection, right after ``reset``; incremental move prices only rank
candidates, so recorded phase trajectories are monotone by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# objective is unused here but stays bound, where bench/tracing.py wraps it by name
from .objective import IncrementalEvaluator, Instance, Solution, improves, objective  # noqa: F401

__all__ = [
    "SolverConfig",
    "Phase",
    "RunReport",
    "greedy",
    "solve_subproblem",
    "ggx",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solver run.

    ``algo`` picks the pipeline: "ggx" runs all three phases, "gh" the
    greedy warm-up only.  ``delta`` bounds the symmetric difference explored
    by the phase-2 subproblem; it is clamped per instance to
    ``2 * min(C, m - C)`` so the region stays feasible.  ``coef_mode``
    selects how phase-2 coefficients are priced ("gradient" or "marginal").
    ``time_budget`` is wall-clock seconds for the whole run, checked between
    iterations only.  The solver draws no random numbers, so a run needs no
    seed.
    """

    C: int
    delta: int = 4
    coef_mode: str = "gradient"
    time_budget: float | None = None
    algo: str = "ggx"

    def __post_init__(self):
        if self.C < 1:
            raise ValueError(f"cardinality C must be >= 1, got {self.C}")
        if self.delta < 2 or self.delta % 2 != 0:
            raise ValueError(f"delta must be a positive even integer, got {self.delta}")
        if self.coef_mode not in ("gradient", "marginal"):
            raise ValueError(f"coef_mode must be 'gradient' or 'marginal', got {self.coef_mode!r}")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive when given")
        if self.algo not in ("gh", "ggx"):
            raise ValueError(f"algo must be 'gh' or 'ggx', got {self.algo!r}")

    def effective_delta(self, m: int) -> int:
        """Region size actually used for an instance with m locations."""
        return min(self.delta, 2 * min(self.C, m - self.C))


@dataclass(frozen=True)
class Phase:
    """One phase of a run: its name, the objective it ended at, its iterations and wall time."""

    name: str
    objective: float
    iterations: int
    wall_ms: float


@dataclass(frozen=True)
class RunReport:
    """The phases of one run, in order; their objectives never decrease."""

    phases: tuple

    def __post_init__(self):
        f = self.phase_objectives
        if not all(a <= b for a, b in zip(f, f[1:])):
            raise ValueError(f"phase objectives must be non-decreasing, got {f}")

    @property
    def phase_objectives(self) -> tuple:
        return tuple(p.objective for p in self.phases)


class _Deadline:
    def __init__(self, budget: float | None):
        self._until = None if budget is None else time.perf_counter() + budget

    def expired(self) -> bool:
        return self._until is not None and time.perf_counter() >= self._until


def greedy(inst: Instance, C: int) -> Solution:
    """Warm-up: add the best-gain location C times, ties to the smallest index.

    Lazy (Minoux 1978): the first step prices every location with one
    additions scan; later steps re-price only candidates whose stale gain
    could still win.  Submodularity makes a location's last priced gain an
    upper bound on its gain now, so candidates are re-priced in descending
    order of ``f + bound`` until every stale one falls more than a rounding
    slack below the best fresh ``f + gain``.  The slack covers what rounding
    can add to a gain that cannot rise, and the last-place differences
    between :meth:`~maxcap.objective.IncrementalEvaluator.gains` and the
    additions scan.  When two fresh values lie within it of each other, the
    step is decided by a full additions scan instead, so every step picks
    what the eager argmax over ``f + gains`` picks, ties included.
    """
    if C < 1 or C > inst.m:
        raise ValueError(f"cardinality must satisfy 1 <= C <= {inst.m}, got {C}")
    ev = IncrementalEvaluator(inst)
    bound = ev.objectives_with_additions()  # f(empty) = 0, so these are the first gains exactly
    chosen = [int(np.argmax(bound))]  # argmax returns the first maximum: smallest index
    for _ in range(1, C):
        ev.reset(chosen)
        bound[chosen[-1]] = -np.inf
        chosen.append(_lazy_pick(ev, bound, inst.m - len(chosen)))
    ev.reset(chosen)
    return Solution(tuple(sorted(chosen)), ev.current_objective())


def _lazy_pick(ev, bound, n_open):
    """Greedy's next location; ``bound`` holds stale gains, refreshed in place."""
    f = ev.current_objective()
    # a gain sums n_zones non-negative terms, each off by a few units in the
    # last place, so in any order it is off by at most about n_zones of them;
    # twice that covers a stale and a fresh value, or one gain in two orders
    tol = 4.0 * (ev.q.size + 8) * np.finfo(float).eps
    order = np.argsort(-bound)[:n_open]  # largest bound first; -inf (selected) last
    done, batch = 0, 1
    while True:
        fresh = order[done:done + batch]
        bound[fresh] = ev.gains(fresh)
        done, batch = done + fresh.size, 2 * batch
        vals = f + bound[order[:done]]
        best = vals.max()
        slack = tol * abs(best)
        if done == n_open or f + bound[order[done]] < best - slack:
            break
    near = order[:done][vals >= best - slack]
    if near.size > 1:  # a near-tie: decide it on the eager scan's values
        return int(np.argmax(ev.objectives_with_additions()))
    return int(near[0])


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


def _climb(ev, start, cfg, deadline, propose):
    """Propose, price and accept until a proposal fails to strictly improve.

    ``propose(ev, current, cfg)`` maps the incumbent (a frozenset, with
    ``ev`` reset to it) to a candidate selection of the same size.  Each
    candidate is priced by ``ev.reset``, from scratch; an accepted one
    leaves ``ev`` on the new incumbent, and a rejected one ends the loop
    with ``ev`` on the candidate.  A full selection (C = m) has no other
    selection to move to and runs zero iterations.  Returns the final
    solution and the number of proposals.
    """
    if len(start.selected) != cfg.C:
        raise ValueError(f"start selection has {len(start.selected)} locations, expected {cfg.C}")
    current = frozenset(start.selected)
    ev.reset(current)
    f_cur = ev.current_objective()
    iterations = 0
    while cfg.C < ev.m and not deadline.expired():
        iterations += 1
        candidate = propose(ev, current, cfg)
        ev.reset(candidate)
        f_cand = ev.current_objective()
        if not improves(f_cand, f_cur):
            break
        current, f_cur = candidate, f_cand
    return Solution(tuple(sorted(current)), f_cur), iterations


def _linear_model_move(ev, current, cfg):
    """Phase 2's proposal: the best selection of the linear model within delta of current."""
    delta = cfg.effective_delta(ev.m)
    return solve_subproblem(ev.coefficients(cfg.coef_mode), current, cfg.C, delta)


def _best_swap(ev, current, _cfg):
    """Phase 3's proposal: the best single swap by the evaluator's prices."""
    best_val, best_pair = -np.inf, None
    for j in sorted(current):  # ascending: the first strict maximum is the smallest (j, t) pair
        vals = ev.objectives_with_swap(j)
        t = int(np.argmax(vals))
        if vals[t] > best_val:
            best_val, best_pair = float(vals[t]), (j, t)
    j, t = best_pair
    return current - {j} | {t}


def ggx(inst: Instance, cfg: SolverConfig):
    """Run the phases of ``cfg.algo``; returns the final solution and a run report.

    The warm-up always runs to completion so the returned selection has
    exactly C locations; the time budget gates phases 2 and 3, checked
    between iterations.  Each phase's wall time runs from the end of the
    previous one, so phase 2's includes building the shared evaluator.
    """
    if cfg.C > inst.m:
        raise ValueError(f"cardinality C={cfg.C} exceeds m={inst.m}")
    deadline = _Deadline(cfg.time_budget)
    t0 = time.perf_counter()
    # greedy is looked up at call time, so a wrapper installed on the module sees it
    solution = greedy(inst, cfg.C)
    t1 = time.perf_counter()
    phases = [Phase("greedy", solution.objective, cfg.C, (t1 - t0) * 1e3)]
    if cfg.algo == "ggx":
        ev = IncrementalEvaluator(inst)
        for name, propose in (("gradient", _linear_model_move), ("exchange", _best_swap)):
            t0 = t1
            solution, iterations = _climb(ev, solution, cfg, deadline, propose)
            t1 = time.perf_counter()
            phases.append(Phase(name, solution.objective, iterations, (t1 - t0) * 1e3))
    return solution, RunReport(tuple(phases))
