"""Spans around the public functions of each ``maxcap`` layer, installed from outside.

Nothing under ``src/`` knows about tracing.  :func:`installed` swaps each
boundary in :data:`BOUNDARIES` for a wrapper that records a span (name,
start, end, parent span, operation id, self time and optional work counts)
into a :class:`Tracer`, and puts the originals back on exit.  A wrapper is
installed where the caller looks the name up, because the package binds
functions with ``from .x import y``: ``maxcap.cli.read_instance`` is the
binding ``maxcap solve`` calls, not ``maxcap.instances.read_instance``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# Work counted at a boundary, from the call's arguments alone.  Evaluator
# scans touch every one of the n_zones x m cells.


def _file_bytes(path, *_):
    return os.path.getsize(path)


def _rows(_model, y_rows, *_):
    return len(y_rows)


def _cells(ev, *_):
    return ev.Y.shape[0] * ev.m


# Computed from array shapes, not measured: a swap scan reads one float64
# (n, m) attraction block and writes one (n, m) block of candidate values.
SWAP_BYTES_PER_CELL = 16

# (module, attribute or Class.attribute, span name, counter, counted unit)
BOUNDARIES = (
    ("maxcap.cli", "read_instance", "instances.read_instance", _file_bytes, "bytes"),
    ("maxcap.cli", "ggx", "solver.ggx", None, None),
    ("maxcap.oracle", "check_submodularity", "oracle.check_submodularity", None, None),
    ("maxcap.oracle", "check_monotonicity", "oracle.check_monotonicity", None, None),
    ("maxcap.oracle", "check_gradient", "oracle.check_gradient", None, None),
    ("maxcap.oracle", "check_subproblem", "oracle.check_subproblem", None, None),
    ("maxcap.oracle", "check_cpgf_contracts", "oracle.check_cpgf_contracts", None, None),
    ("maxcap.oracle", "brute_force_subproblem", "oracle.brute_force_subproblem", None, None),
    ("maxcap.oracle", "objective", "objective.objective", None, None),
    ("maxcap.oracle", "objective_relaxed", "objective.objective_relaxed", None, None),
    ("maxcap.oracle", "objective_gradient", "objective.objective_gradient", None, None),
    ("maxcap.solver", "greedy", "solver.greedy", None, None),
    ("maxcap.solver", "solve_subproblem", "solver.solve_subproblem", None, None),
    ("maxcap.solver", "objective", "objective.objective", None, None),
    ("maxcap.objective", "IncrementalEvaluator.reset", "objective.evaluator.reset", None, None),
    ("maxcap.objective", "IncrementalEvaluator.objectives_with_additions",
     "objective.evaluator.additions", _cells, "cells"),
    ("maxcap.objective", "IncrementalEvaluator.objectives_with_swap",
     "objective.evaluator.swap", _cells, "cells"),
    ("maxcap.objective", "IncrementalEvaluator.objectives_with_removals",
     "objective.evaluator.removals", None, None),
    ("maxcap.objective", "IncrementalEvaluator.coefficients", "objective.evaluator.coefficients", None, None),
    ("maxcap.choice_models", "MultinomialLogit.value_rows", "choice_models.value_rows", _rows, "rows"),
    ("maxcap.choice_models", "MultinomialLogit.grad_rows", "choice_models.grad_rows", _rows, "rows"),
    ("maxcap.choice_models", "NestedLogit.value_rows", "choice_models.value_rows", _rows, "rows"),
    ("maxcap.choice_models", "NestedLogit.grad_rows", "choice_models.grad_rows", _rows, "rows"),
)

# span name -> the unit its counter counts ("bytes", "cells" or "rows")
COUNTED = {name: unit for _, _, name, count, unit in BOUNDARIES if count}

# Spans the benchmark opens itself: one root per operation, and set-up steps.
OP_SPAN = "cli.main"
SETUP_SPANS = ("instances.generate", "instances.write_instance")

SOLVE_WORKLOADS = ("solve-nested", "solve-mnl", "solve-mmnl")
ALL_WORKLOADS = SOLVE_WORKLOADS + ("audit",)

# span name -> (workloads that must record it, workloads that must not).
# This is what the seed code does, which differs from a plain "solve uses
# the evaluator, audit uses the oracle" split in three places: the solver
# re-checks every accepted move with objective() (so objective.objective and
# value_rows run on every solve workload), oracle.check_subproblem calls
# solver.solve_subproblem, and no workload uses --coef-mode marginal, the
# only caller of objectives_with_removals.
COVERAGE = {
    OP_SPAN: (ALL_WORKLOADS, ()),
    "instances.read_instance": (SOLVE_WORKLOADS, ("audit",)),
    "instances.generate": (SOLVE_WORKLOADS, ("audit",)),
    "instances.write_instance": (SOLVE_WORKLOADS, ("audit",)),
    "solver.ggx": (SOLVE_WORKLOADS, ("audit",)),
    "solver.greedy": (SOLVE_WORKLOADS, ("audit",)),
    "solver.solve_subproblem": (ALL_WORKLOADS, ()),
    "objective.evaluator.reset": (SOLVE_WORKLOADS, ("audit",)),
    "objective.evaluator.additions": (SOLVE_WORKLOADS, ("audit",)),
    "objective.evaluator.swap": (SOLVE_WORKLOADS, ("audit",)),
    "objective.evaluator.coefficients": (SOLVE_WORKLOADS, ("audit",)),
    "objective.evaluator.removals": ((), ALL_WORKLOADS),
    "objective.objective": (ALL_WORKLOADS, ()),
    "objective.objective_relaxed": (("audit",), SOLVE_WORKLOADS),
    "objective.objective_gradient": (("audit",), SOLVE_WORKLOADS),
    "choice_models.value_rows": (ALL_WORKLOADS, ()),
    "choice_models.grad_rows": (("audit",), SOLVE_WORKLOADS),
    "oracle.check_submodularity": (("audit",), SOLVE_WORKLOADS),
    "oracle.check_monotonicity": (("audit",), SOLVE_WORKLOADS),
    "oracle.check_gradient": (("audit",), SOLVE_WORKLOADS),
    "oracle.check_subproblem": (("audit",), SOLVE_WORKLOADS),
    "oracle.check_cpgf_contracts": (("audit",), SOLVE_WORKLOADS),
    "oracle.brute_force_subproblem": (("audit",), SOLVE_WORKLOADS),
}


class Tracer:
    """In-memory span log for one traced run.

    A span is the tuple ``(name, parent, op, start, end, self_s, count)``;
    ``parent`` is the index of the enclosing span (-1 for a root), ``op``
    the operation id set by the caller (``"setup"`` during set-up) and
    ``count`` the boundary's work count (see :data:`COUNTED`) or None.
    Self time is the span's duration minus that of its direct children.
    Spans stay in memory until the caller writes them out.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []  # [span index, summed child duration] per open span

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            work = count(*args, **kwargs) if count else None
            self.spans[frame[0]] = (name, parent, self.op, start, end, duration - frame[1], work)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        return traced


def _owner(module_name, dotted):
    # sys.modules, not attribute access: maxcap.objective is shadowed by the function
    owner = sys.modules[module_name]
    *classes, attr = dotted.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


@contextlib.contextmanager
def installed(tracer):
    """Wrap every boundary for the duration of the block.

    A boundary that no longer exists raises here, so a rename fails loudly
    instead of silently reporting zero time.
    """
    import maxcap.cli  # noqa: F401  (loads every module named in BOUNDARIES)

    saved = []
    try:
        for module_name, dotted, name, count, _ in BOUNDARIES:
            owner, attr = _owner(module_name, dotted)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def coverage_problems(workload, names):
    """Boundaries whose recorded presence in ``names`` contradicts :data:`COVERAGE`."""
    problems = []
    for span, (works, bypassed) in COVERAGE.items():
        if workload in works and span not in names:
            problems.append(f"{span}: no span on {workload}, which should exercise it")
        if workload in bypassed and span in names:
            problems.append(f"{span}: spans recorded on {workload}, which should bypass it")
    return problems
