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
(:func:`solve_subproblem`: one partition per side finds the delta/2 extreme
coefficients in O(m), and it swaps every pair whose outside coefficient
beats its inside one, at least one).  Phase 3's proposal is the best
single swap, so it runs best-improvement swaps to a local optimum.  All
three phases run on one :class:`~maxcap.objective.IncrementalEvaluator`,
built once per run.

Phase 3 mostly certifies: its last proposal finds no improving swap.  So
before it scans the swaps out of each selected location, it bounds them
from one additions scan, by the submodularity argument of lazy greedy
(:meth:`~maxcap.objective.IncrementalEvaluator.swap_upper_bounds`), and
it scans only the locations whose bound beats both the incumbent and the
best swap found so far.  A location in a nest with ``mu != 1`` has no
bound and is always scanned.  The proposal is the full scan's whenever
that one would be accepted; when no location needs a scan, it is the
incumbent, which the loop rejects as it would reject the full scan's
non-improving swap.

Every tie is broken deterministically (smallest index, then fewest swaps), so
a run is a pure function of (instance, config) whenever no time budget is
hit, on one BLAS build with one thread count: the evaluator ranks moves
through matrix-vector products, whose last bits can depend on both.  Every
reported objective is the evaluator's from-scratch value of its selection,
right after ``reset``; incremental move prices only rank candidates, so
recorded phase trajectories are monotone by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# objective is unused here but stays bound, where bench/tracing.py wraps it by name
from .objective import (IncrementalEvaluator, Instance, Solution, _check_indices, _integer, _positive_real,
                        improves, objective)  # noqa: F401

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
    ``2 * min(C, m - C)`` so the region stays feasible.  Phase 2 has one
    linear model, the relaxation gradient at the incumbent's indicator
    point.  ``time_budget`` is wall-clock seconds for the whole run, checked
    between iterations only.  The solver draws no random numbers, so a run
    needs no seed.
    """

    C: int
    delta: int = 4
    time_budget: float | None = None
    algo: str = "ggx"

    def __post_init__(self):
        _integer(self.C, "cardinality C", low=1)
        if _integer(self.delta, "delta") < 2 or self.delta % 2 != 0:
            raise ValueError(f"delta must be a positive even integer, got {self.delta}")
        if self.time_budget is not None:
            _positive_real(self.time_budget, "time_budget")
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


def greedy(ev: IncrementalEvaluator, C: int) -> Solution:
    """Warm-up on ``ev``: add the best-gain location C times, ties to the smallest index.

    Starts from ``ev.reset(())`` and leaves ``ev`` reset to the result, where
    phase 2 starts.  Lazy (Minoux 1978): the first step prices every location
    with one additions scan; later steps re-price only candidates whose stale
    gain could still win.  Submodularity makes a location's last priced gain
    an upper bound on its gain now, so candidates are re-priced in descending
    order of ``f + bound`` until every stale one falls more than a rounding
    slack below the best fresh ``f + gain``.  The slack covers what rounding
    can add to a gain that cannot rise, and the last-place differences between
    :meth:`~maxcap.objective.IncrementalEvaluator.gains` and the additions
    scan.  When two fresh values lie within it of each other, the step is
    decided by a full additions scan instead, so every step picks what the
    eager argmax over ``f + gains`` picks, ties included.
    """
    if not 1 <= _integer(C, "cardinality C") <= ev.m:
        raise ValueError(f"cardinality C={C} is below 1 or exceeds m={ev.m}")
    ev.reset(())
    bound = ev.objectives_with_additions()  # f(empty) = 0, so these are the first gains exactly
    chosen = [int(np.argmax(bound))]  # argmax returns the first maximum: smallest index
    for _ in range(1, C):
        ev.reset(chosen)
        bound[chosen[-1]] = -np.inf
        chosen.append(_lazy_pick(ev, bound, ev.m - len(chosen)))
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


def _k_smallest(vals: np.ndarray, pool: np.ndarray, k: int) -> np.ndarray:
    """The k entries of an ascending pool with the smallest vals, in (value, index) order."""
    keep = vals <= np.partition(vals, k - 1)[k - 1]  # the k-th value and all its ties
    return pool[keep][np.argsort(vals[keep], kind="stable")[:k]]


def subproblem_args(d, incumbent, C: int, delta: int):
    """Check the subproblem's arguments; returns (d, sorted incumbent, delta / 2).

    The one argument contract of :func:`solve_subproblem` and its enumerative
    reference :func:`~maxcap.oracle.brute_force_subproblem`.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError("coefficient vector must be 1-d")
    if not np.all(np.isfinite(d)):
        raise ValueError("coefficients must be finite")
    if np.any(d < 0.0):
        raise ValueError("coefficients must be non-negative")
    m = d.size
    C, delta = _integer(C, "cardinality C"), _integer(delta, "delta")
    inside = np.sort(_check_indices(incumbent, m, what="incumbent"))
    if inside.size != C:
        raise ValueError(f"incumbent has {inside.size} locations, expected C={C}")
    if delta < 2 or delta % 2 != 0:
        raise ValueError(f"delta must be a positive even integer, got {delta}")
    half = delta // 2
    if half > min(C, m - C):
        raise ValueError(f"delta/2 = {half} exceeds min(C, m - C) = {min(C, m - C)}")
    return d, inside, half


def solve_subproblem(d: np.ndarray, incumbent, C: int, delta: int) -> frozenset:
    """Maximize sum of d over selections of size C within symmetric difference delta.

    Pairs the delta/2 largest coefficients outside the incumbent, descending,
    with the delta/2 smallest inside, ascending.  The increments
    ``d[add_k] - d[drop_k]`` never increase, so the gain of swapping the first
    t pairs is concave in t and first peaks at t* = #{k : d[add_k] > d[drop_k]},
    found by exact float comparisons.  At least one pair is swapped; the caller
    decides whether the true objective improves.  Ties: equal gains go to the
    smallest t, equal coefficients to the smallest index.
    """
    d, inside, half = subproblem_args(d, incumbent, C, delta)
    outside = np.setdiff1d(np.arange(d.size, dtype=np.intp), inside, assume_unique=True)
    drop = _k_smallest(d[inside], inside, half)
    add = _k_smallest(-d[outside], outside, half)  # the largest d, largest first
    t_star = max(1, np.count_nonzero(d[add] > d[drop]))
    return frozenset(inside.tolist()).difference(drop[:t_star].tolist()).union(add[:t_star].tolist())


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
    return solve_subproblem(ev.coefficients(), current, cfg.C, delta)


def _best_swap(ev, current, _cfg):
    """Phase 3's proposal: the best single swap by the evaluator's prices.

    A ``j_out`` is scanned only when its bound from
    :meth:`~maxcap.objective.IncrementalEvaluator.swap_upper_bounds` (+inf
    in a nest with ``mu != 1``) exceeds both the incumbent's value and the
    best swap found so far.  Any other
    ``j_out`` can neither replace the first strict maximum nor offer a swap
    that ``improves`` accepts.  So the proposal is the full scan's whenever
    that would be accepted, and ``current`` when no ``j_out`` was scanned.
    """
    f = ev.current_objective()
    bounds = ev.swap_upper_bounds()
    best_val, best_pair = -np.inf, None
    for j in sorted(current):  # ascending: the first strict maximum is the smallest (j, t) pair
        if bounds[j] <= max(best_val, f):
            continue
        vals = ev.objectives_with_swap(j)
        t = int(np.argmax(vals))
        if vals[t] > best_val:
            best_val, best_pair = float(vals[t]), (j, t)
    if best_pair is None:
        return current
    j, t = best_pair
    return current - {j} | {t}


def ggx(inst: Instance, cfg: SolverConfig):
    """Run the phases of ``cfg.algo``; returns the final solution and a run report.

    The warm-up always runs to completion so the returned selection has
    exactly C locations; the time budget gates phases 2 and 3, checked
    between iterations.  Each phase's wall time runs from the end of the
    previous one; greedy's includes building the evaluator all phases share.
    """
    deadline = _Deadline(cfg.time_budget)
    t0 = time.perf_counter()
    ev = IncrementalEvaluator(inst)
    # greedy is looked up at call time, so a wrapper installed on the module sees it
    solution = greedy(ev, cfg.C)
    t1 = time.perf_counter()
    phases = [Phase("greedy", solution.objective, cfg.C, (t1 - t0) * 1e3)]
    if cfg.algo == "ggx":
        for name, propose in (("gradient", _linear_model_move), ("exchange", _best_swap)):
            t0 = t1
            solution, iterations = _climb(ev, solution, cfg, deadline, propose)
            t1 = time.perf_counter()
            phases.append(Phase(name, solution.objective, iterations, (t1 - t0) * 1e3))
    return solution, RunReport(tuple(phases))
