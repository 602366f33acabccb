"""Captured-demand objective over demand zones, with fast incremental evaluation.

An :class:`Instance` holds the demand zones as two stacked arrays: weights
``q`` and competitor-normalized attractions ``Y`` over the ``m`` candidate
locations, one row per zone.  Opening the subset ``S`` captures

    f(S) = sum_i q_i - sum_i q_i / (1 + G_i(y_i masked to S))

which is monotone increasing and submodular in ``S`` for every model in the
generating-function family.  The binary relaxation ``f(x)`` replaces the mask
with an elementwise product ``x * y`` and is differentiable; its gradient has
non-negative entries

    d_j = sum_i q_i * y_ij * dG_j(x * y_i) / (1 + G_i(x * y_i))^2

The module-level functions recompute everything from scratch and serve as the
reference semantics.  :class:`IncrementalEvaluator` keeps per-zone masked
sums cached so greedy sweeps and swap scans run without re-summing.  It has
one code path for every bundled model: multinomial logit is priced as nested
logit with a single nest and ``mu = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choice_models import ChoiceModel, MultinomialLogit, NestedLogit

__all__ = [
    "Zone",
    "Instance",
    "Solution",
    "mask",
    "objective",
    "objective_relaxed",
    "objective_gradient",
    "marginal_gain",
    "IncrementalEvaluator",
]

# Strict-improvement slack used by the solver when comparing objectives;
# avoids oscillation on floating-point ties.
IMPROVEMENT_EPS = 1e-12


def _validated(q, Y):
    """Zone weights and attraction rows as float arrays; ValueError when invalid."""
    q, Y = np.array(q, dtype=float), np.array(Y, dtype=float)
    if Y.ndim != 2 or 0 in Y.shape:
        raise ValueError("attractions must be a (zones, m) matrix with zones, m >= 1")
    if q.shape != Y.shape[:1]:
        raise ValueError(f"expected {Y.shape[0]} zone weights, got shape {q.shape}")
    if not np.all(q > 0.0):
        raise ValueError("zone weights must be positive")
    if not np.all(np.isfinite(Y)) or np.any(Y < 0.0):
        raise ValueError("zone attraction entries must be finite and non-negative")
    return q, Y


@dataclass(frozen=True, eq=False)
class Zone:
    """One demand zone: weight q > 0 and attraction per location (>= 0)."""

    q: float
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _validated([self.q], [self.y])[1][0])


class Instance:
    """Immutable problem data: stacked zone arrays plus a shared choice model.

    ``q`` holds the zone weights, shape ``(n_zones,)``, and ``Y`` the
    attractions, shape ``(n_zones, m)``.  Build one from arrays with
    :meth:`from_arrays`; ``Instance(zones, model)`` stacks :class:`Zone`
    objects and validates through the same code.
    """

    def __init__(self, zones, model: ChoiceModel):
        zones = tuple(zones)
        self._set_arrays([z.q for z in zones], [z.y for z in zones], model)

    @classmethod
    def from_arrays(cls, q, Y, model: ChoiceModel) -> "Instance":
        """Instance from weights ``q`` and an attraction matrix ``Y`` (both copied)."""
        inst = cls.__new__(cls)
        inst._set_arrays(q, Y, model)
        return inst

    def _set_arrays(self, q, Y, model: ChoiceModel) -> None:
        self.q, self.Y = _validated(q, Y)
        model.check_dimension(self.Y.shape[1])
        self.model = model
        self.m = self.Y.shape[1]
        self.total_demand = float(self.q.sum())

    @property
    def n_zones(self) -> int:
        return self.Y.shape[0]

    def __repr__(self) -> str:
        return f"Instance(zones={self.n_zones}, m={self.m}, model={self.model!r})"


@dataclass(frozen=True)
class Solution:
    """A subset of opened locations (ascending indices) with its objective."""

    selected: tuple
    objective: float | None = None

    def __post_init__(self):
        sel = tuple(int(j) for j in self.selected)
        if any(b <= a for a, b in zip(sel, sel[1:])):
            raise ValueError("selected indices must be strictly increasing")
        if sel and sel[0] < 0:
            raise ValueError("selected indices must be non-negative")
        object.__setattr__(self, "selected", sel)


def _check_indices(selected, m: int) -> np.ndarray:
    idx = np.asarray(sorted(int(j) for j in selected), dtype=np.intp)
    if idx.size != len(set(idx.tolist())):
        raise ValueError("selected indices must be distinct")
    if idx.size and (idx[0] < 0 or idx[-1] >= m):
        raise ValueError(f"selected indices must lie in [0, {m})")
    return idx


def mask(y: np.ndarray, selected) -> np.ndarray:
    """Zero out every entry of ``y`` whose index is not in ``selected``."""
    y = np.asarray(y, dtype=float)
    idx = _check_indices(selected, y.size)
    out = np.zeros_like(y)
    out[idx] = y[idx]
    return out


def _indicator(selected, m: int) -> np.ndarray:
    x = np.zeros(m)
    x[_check_indices(selected, m)] = 1.0
    return x


def _relaxation_point(inst: Instance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.m,):
        raise ValueError(f"x must have shape ({inst.m},), got {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("relaxation point entries must lie in [0, 1]")
    return x


def objective(inst: Instance, selected) -> float:
    """Captured demand f(S); f(empty set) is exactly 0."""
    return objective_relaxed(inst, _indicator(selected, inst.m))


def objective_relaxed(inst: Instance, x: np.ndarray) -> float:
    """Binary-relaxation objective f(x) for x in [0, 1]^m.

    On indicator vectors this coincides with :func:`objective` (same code
    path, so the agreement is exact).
    """
    g = inst.model.value_rows(inst.Y * _relaxation_point(inst, x))
    return float(inst.total_demand - (inst.q / (1.0 + g)).sum())


def objective_gradient(inst: Instance, x: np.ndarray) -> np.ndarray:
    """Gradient of the relaxed objective at x; entries are always >= 0."""
    effective = inst.Y * _relaxation_point(inst, x)
    g = inst.model.value_rows(effective)
    dg = inst.model.grad_rows(effective)
    weight = inst.q / (1.0 + g) ** 2
    return (inst.Y * dg * weight[:, None]).sum(axis=0)


def marginal_gain(inst: Instance, selected, j: int) -> float:
    """f(S + j) - f(S); strictly positive whenever location j attracts anyone."""
    idx = _check_indices(selected, inst.m)
    j = int(j)
    if j < 0 or j >= inst.m:
        raise ValueError(f"location index {j} out of range [0, {inst.m})")
    if j in set(idx.tolist()):
        raise ValueError(f"location {j} already selected")
    return objective(inst, list(idx) + [j]) - objective(inst, idx)


class IncrementalEvaluator:
    """Cached per-zone masked sums for one solver run.

    Holds the current selection's per-nest power sums ``T``, their roots
    ``V = T ** (1/mu)`` and per-zone values ``G = sum_l V_l``, so that
    candidate additions and single swaps are priced with one vectorized pass
    per nest instead of a full re-evaluation.  Multinomial logit is one nest
    with ``mu = 1``; the power is skipped wherever ``mu = 1``.  Columns are
    stored nest-major, so each nest is a contiguous block, and scans write
    into one preallocated ``(n_zones, m)`` buffer.  State belongs to a single
    run; it is not shared across threads.  ``reset`` rebuilds the cache from
    scratch after every accepted move, which keeps drift out of the accepted
    trajectory.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.Y = inst.Y
        self.q = inst.q
        self.m = inst.m
        if isinstance(inst.model, NestedLogit):
            nest_of, mu = inst.model.nest_of, inst.model.mu
        elif isinstance(inst.model, MultinomialLogit):
            nest_of, mu = np.zeros(self.m, dtype=np.intp), np.ones(1)
        else:
            raise TypeError("incremental evaluation supports the bundled models only")
        self._nest_of = nest_of
        self._mu = mu
        self._inv_mu = 1.0 / mu
        # nest-major column order (stable, so ascending within a nest) and,
        # in _pos, each location's column in it
        self._order = np.argsort(nest_of, kind="stable")
        self._pos = np.argsort(self._order)
        ends = np.cumsum(np.bincount(nest_of, minlength=mu.size))
        self._blocks = [slice(int(a), int(b)) for a, b in zip(np.r_[0, ends[:-1]], ends)]
        identity = np.array_equal(self._order, np.arange(self.m))
        self._Ys = self.Y if identity else self.Y[:, self._order]
        # attraction raised to its nest's exponent, precomputed per column
        self._Yp = self._Ys if np.all(mu == 1.0) else self._Ys ** mu[nest_of[self._order]]
        self._buf = np.empty_like(self.Y)
        self.reset(())

    # -- state ---------------------------------------------------------------

    def reset(self, selected) -> None:
        """Rebuild cached sums from scratch for the given selection."""
        idx = _check_indices(selected, self.m)
        self._in = np.zeros(self.m, dtype=bool)
        self._in[idx] = True
        in_sorted = self._in[self._order]
        self._T = np.zeros((self.Y.shape[0], self._mu.size))
        for l, block in enumerate(self._blocks):
            chosen = np.flatnonzero(in_sorted[block]) + block.start
            self._T[:, l] = self._Yp[:, chosen].sum(axis=1)
        self._V = self._T ** self._inv_mu
        self._G = self._V.sum(axis=1)

    def current_objective(self) -> float:
        return float(self.inst.total_demand - (self.q / (1.0 + self._G)).sum())

    # -- candidate pricing ---------------------------------------------------

    def _scan(self, sums: np.ndarray, roots: np.ndarray, g_base: np.ndarray) -> np.ndarray:
        """Objective after adding each single location to the given cached state.

        Location j in nest l changes that nest's power sum to ``sums_l + Yp_j``
        and the zone value to ``g_base - roots_l + (sums_l + Yp_j) ** (1/mu_l)``.
        """
        buf = self._buf
        for l, block in enumerate(self._blocks):
            out = buf[:, block]
            offset = (g_base - roots[:, l])[:, None]
            if self._mu[l] == 1.0:
                # the root is the identity: fold the nest sum into the offset,
                # one pass over the block
                np.add(offset + sums[:, l, None], self._Yp[:, block], out=out)
                continue
            np.add(sums[:, l, None], self._Yp[:, block], out=out)
            out **= self._inv_mu[l]
            out += offset
        buf += 1.0
        np.divide(self.q[:, None], buf, out=buf)
        vals = np.empty(self.m)
        vals[self._order] = self.inst.total_demand - buf.sum(axis=0)
        return vals

    def _without(self, j: int):
        """Per-nest sums, roots and per-zone values of the selection minus selected j."""
        lo = int(self._nest_of[j])
        sums, roots = self._T.copy(), self._V.copy()
        sums[:, lo] = np.maximum(self._T[:, lo] - self._Yp[:, self._pos[j]], 0.0)
        roots[:, lo] = sums[:, lo] ** self._inv_mu[lo]
        g_base = self._G - self._V[:, lo] + roots[:, lo]
        return sums, roots, g_base

    def objectives_with_additions(self) -> np.ndarray:
        """f(S + j) for every location j; -inf at already-selected entries."""
        vals = self._scan(self._T, self._V, self._G)
        vals[self._in] = -np.inf
        return vals

    def objectives_with_swap(self, j_out: int) -> np.ndarray:
        """f(S - j_out + t) for every t outside S; -inf at selected entries."""
        if not self._in[j_out]:
            raise ValueError(f"location {j_out} is not selected")
        vals = self._scan(*self._without(j_out))
        vals[self._in] = -np.inf
        return vals

    def objectives_with_removals(self) -> np.ndarray:
        """f(S - j) for every selected j; +inf at unselected entries."""
        vals = np.full(self.m, np.inf)
        for j in np.flatnonzero(self._in):
            g = self._without(j)[2]
            vals[j] = self.inst.total_demand - (self.q / (1.0 + g)).sum()
        return vals

    # -- local-search coefficients --------------------------------------------

    def coefficients(self, mode: str = "gradient") -> np.ndarray:
        """Linear-model coefficients d_j at the current selection's indicator.

        ``gradient`` is the relaxation gradient evaluated at the binary point:
        for nested models with mu > 1 this assigns 0 to unselected locations
        whose nest already holds a selected one (the true one-sided
        derivative) and 1 to members of empty nests (directional limit).
        ``marginal`` prices j outside S by f(S + j) - f(S) and j inside S by
        f(S) - f(S - j) instead.
        """
        if mode == "marginal":
            f_cur = self.current_objective()
            d = np.empty(self.m)
            adds = self.objectives_with_additions()
            rems = self.objectives_with_removals()
            d[~self._in] = adds[~self._in] - f_cur
            d[self._in] = f_cur - rems[self._in]
            # monotonicity makes these non-negative; clip the last-ulp rounding
            return np.maximum(d, 0.0)
        if mode != "gradient":
            raise ValueError(f"unknown coefficient mode {mode!r}")
        weight = self.q / (1.0 + self._G) ** 2
        in_sorted = self._in[self._order]
        d = np.empty(self.m)
        for l, block in enumerate(self._blocks):
            y = self._Ys[:, block]
            mu_l = self._mu[l]
            if mu_l == 1.0:
                d[block] = weight @ y
                continue
            s = self._T[:, l]
            live = s > 0.0
            outer = np.ones_like(s)
            outer[live] = s[live] ** (1.0 / mu_l - 1.0)
            # selected members: y^(mu-1) * T^(1/mu-1); other members of a
            # live nest: 0; every member of an empty nest: the limit 1
            dg = y ** (mu_l - 1.0) * outer[:, None]
            dg[:, ~in_sorted[block]] = 0.0
            dg[~live, :] = 1.0
            d[block] = weight @ (y * dg)
        vals = np.empty(self.m)
        vals[self._order] = d
        return vals
