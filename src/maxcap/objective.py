"""Captured-demand objective over demand zones, with exact incremental pricing.

An :class:`Instance` holds the demand zones as two stacked arrays: weights
``q`` and competitor-normalized attractions ``Y`` over the ``m`` candidate
locations, one row per zone.  Opening the subset ``S`` captures

    f(S) = sum_i q_i G_i / (1 + G_i),    G_i = G(y_i masked to S)

which is monotone increasing and submodular in ``S`` for every model in the
generating-function family.  Every term is non-negative, so the sum never
cancels.  The binary relaxation ``f(x)`` replaces the mask with an
elementwise product ``x * y`` and is differentiable; its gradient has
non-negative entries

    d_j = sum_i q_i * y_ij * dG_j(x * y_i) / (1 + G_i(x * y_i))^2

The module-level functions recompute everything from scratch and serve as the
reference semantics.  :class:`IncrementalEvaluator` prices moves as exact
gains instead of differences of totals: opening ``j`` raises zone ``i``'s
value by ``dG_ij`` and adds

    f(S + j) - f(S) = sum_i q_i / (1 + G_i) * dG_ij / (1 + G_i + dG_ij)

again a sum of non-negative terms.  It has one code path for every bundled
model: multinomial logit is priced as nested logit with a single nest and
``mu = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choice_models import ChoiceModel, MultinomialLogit, NestedLogit

__all__ = [
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
# avoids oscillation on floating-point ties.  It is relative to max(1, f):
# an absolute 1e-12 is below f's rounding unit (about 2.2e-16 * f) once f
# exceeds about 4500, where it would no longer separate moves from rounding.
IMPROVEMENT_EPS = 1e-12


def improves(f_new: float, f_old: float) -> bool:
    """Whether ``f_new`` beats ``f_old`` by more than the slack."""
    return f_new > f_old + IMPROVEMENT_EPS * max(1.0, f_old)


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


class Instance:
    """Immutable problem data: stacked zone arrays plus a shared choice model.

    ``q`` holds the zone weights, shape ``(n_zones,)``, and ``Y`` the
    attractions, shape ``(n_zones, m)``.  Build one with :meth:`from_arrays`.
    """

    @classmethod
    def from_arrays(cls, q, Y, model: ChoiceModel) -> "Instance":
        """Instance from weights ``q`` and an attraction matrix ``Y`` (both copied).

        Raises ValueError on invalid arrays and on data outside the numeric
        domain: the total weight or some zone's ``q * G`` with every location
        open is not finite.  ``G`` grows with the selection, so every subset's
        ``G``, nest power sum and ``q * G`` is finite too.
        """
        inst = cls.__new__(cls)
        inst.q, inst.Y = _validated(q, Y)
        model.check_dimension(inst.Y.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            captured = inst.q * model.value_rows(inst.Y)
            inst.total_demand = float(inst.q.sum())
        if not (np.all(np.isfinite(captured)) and np.isfinite(inst.total_demand)):
            raise ValueError("weights or attractions too large: q * G overflows")
        inst.model, inst.m = model, inst.Y.shape[1]
        return inst

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


def _captured(q: np.ndarray, g: np.ndarray) -> float:
    """sum_i q_i g_i / (1 + g_i): captured demand at zone values g."""
    return float((q * g / (1.0 + g)).sum())


def objective(inst: Instance, selected) -> float:
    """Captured demand f(S); f(empty set) is exactly 0."""
    return objective_relaxed(inst, _indicator(selected, inst.m))


def objective_relaxed(inst: Instance, x: np.ndarray) -> float:
    """Binary-relaxation objective f(x) for x in [0, 1]^m.

    On indicator vectors this coincides with :func:`objective` (same code
    path, so the agreement is exact).
    """
    g = inst.model.value_rows(inst.Y * _relaxation_point(inst, x))
    return _captured(inst.q, g)


def objective_gradient(inst: Instance, x: np.ndarray) -> np.ndarray:
    """Gradient of the relaxed objective at x; entries are always >= 0."""
    effective = inst.Y * _relaxation_point(inst, x)
    g = inst.model.value_rows(effective)
    dg = inst.model.grad_rows(effective)
    weight = inst.q / (1.0 + g) / (1.0 + g)
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
    """Exact move pricing against one cached selection, for one solver run.

    Attractions are stored location-major: one C-contiguous
    ``(locations in nest, zones)`` block per nest, in ``nest_cols`` order,
    next to the same block raised to the nest's ``mu``.  Multinomial logit is
    one nest with ``mu = 1``, where the power is skipped.  The cached state is
    the selection's per-nest power sums ``T``, their roots
    ``V = T ** (1/mu)``, the zone values ``G = sum_l V_l`` and
    ``f = sum q G / (1 + G)``.  :meth:`_gains` prices every location as an
    exact gain on top of a state, and :meth:`_without` gives the state with
    one selected location closed plus its exact loss.  Additions are
    ``f + gains``, swaps ``(f - loss) + gains`` and removals ``f - loss``.
    Each block is reduced over zones by one matrix-vector product.  State
    belongs to a single run; it is not shared across threads.  ``reset``
    rebuilds the cache from scratch after every accepted move, which keeps
    drift out of the accepted trajectory.
    """

    def __init__(self, inst: Instance):
        self.Y = inst.Y
        self.q = inst.q
        self.m = inst.m
        if isinstance(inst.model, NestedLogit):
            self._nest_of, self._cols = inst.model.nest_of, inst.model.nest_cols
            self._mu = inst.model.mu
        elif isinstance(inst.model, MultinomialLogit):
            self._nest_of = np.zeros(self.m, dtype=np.intp)
            self._cols, self._mu = (np.arange(self.m),), np.ones(1)
        else:
            raise TypeError("incremental evaluation supports the bundled models only")
        self._inv_mu = 1.0 / self._mu
        # row r of block l is location cols_l[r] across all zones
        self._Yb = [self.Y.T[cols] for cols in self._cols]
        self._Ypb = [y if mu == 1.0 else y ** mu for y, mu in zip(self._Yb, self._mu)]
        self._buf = np.empty((max(cols.size for cols in self._cols), self.Y.shape[0]))
        # a nest with mu != 1 computes its dG into a second scratch block
        self._dg = np.empty_like(self._buf) if np.any(self._mu != 1.0) else None
        self.reset(())

    # -- state ---------------------------------------------------------------

    def reset(self, selected) -> None:
        """Rebuild cached sums from scratch for the given selection."""
        idx = _check_indices(selected, self.m)
        self._in = np.zeros(self.m, dtype=bool)
        self._in[idx] = True
        self._T = np.array([yp[self._in[cols]].sum(axis=0)
                            for cols, yp in zip(self._cols, self._Ypb)])
        self._V = np.array([t ** inv for t, inv in zip(self._T, self._inv_mu)])
        self._G = self._V.sum(axis=0)
        self._w = self.q / (1.0 + self._G)
        self._f = _captured(self.q, self._G)

    def current_objective(self) -> float:
        return self._f

    # -- candidate pricing ---------------------------------------------------

    def _gains(self, sums: np.ndarray, roots: np.ndarray, g_base: np.ndarray) -> np.ndarray:
        """f(state + j) - f(state) for every location j of the given state.

        Opening j in nest l raises the zone values by
        ``dG = (sums_l + Yp_j) ** (1/mu_l) - roots_l``, which is ``Yp_j``
        itself at ``mu_l = 1``, and adds ``q / (1 + g) * dG / (1 + g + dG)``.
        """
        opg = 1.0 + g_base
        w = self.q / opg
        gains = np.empty(self.m)
        for l, (cols, yp) in enumerate(zip(self._cols, self._Ypb)):
            buf = self._buf[:cols.size]
            if self._mu[l] == 1.0:
                dg = yp
            else:
                dg = np.add(yp, sums[l], out=self._dg[:cols.size])
                dg **= self._inv_mu[l]
                dg -= roots[l]
            np.add(dg, opg, out=buf)
            np.divide(dg, buf, out=buf)
            gains[cols] = buf @ w
        return gains

    def _without(self, j: int):
        """The selection minus selected j as (sums, roots, g_base), and f(S) - f(S - j)."""
        l = int(self._nest_of[j])
        yp = self._Ypb[l][np.searchsorted(self._cols[l], j)]
        sums, roots = self._T.copy(), self._V.copy()
        sums[l] -= yp  # a float sum minus one of its addends stays >= 0
        roots[l] = sums[l] ** self._inv_mu[l]
        dg = yp if self._mu[l] == 1.0 else self._V[l] - roots[l]
        g_base = self._G - dg
        return sums, roots, g_base, float(self._w @ (dg / (1.0 + g_base)))

    def objectives_with_additions(self) -> np.ndarray:
        """f(S + j) for every location j; -inf at already-selected entries."""
        vals = self._f + self._gains(self._T, self._V, self._G)
        vals[self._in] = -np.inf
        return vals

    def objectives_with_swap(self, j_out: int) -> np.ndarray:
        """f(S - j_out + t) for every t outside S; -inf at selected entries."""
        if not self._in[j_out]:
            raise ValueError(f"location {j_out} is not selected")
        *state, loss = self._without(j_out)
        vals = (self._f - loss) + self._gains(*state)
        vals[self._in] = -np.inf
        return vals

    def objectives_with_removals(self) -> np.ndarray:
        """f(S - j) for every selected j; +inf at unselected entries."""
        vals = np.full(self.m, np.inf)
        for j in np.flatnonzero(self._in):
            vals[j] = self._f - self._without(j)[3]
        return vals

    # -- local-search coefficients --------------------------------------------

    def coefficients(self, mode: str = "gradient") -> np.ndarray:
        """Linear-model coefficients d_j at the current selection's indicator.

        ``gradient`` is the relaxation gradient evaluated at the binary point:
        for nested models with mu > 1 this assigns 0 to unselected locations
        whose nest already holds a selected one (the true one-sided
        derivative) and 1 to members of empty nests (directional limit).
        ``marginal`` prices j outside S by its gain f(S + j) - f(S) and j
        inside S by its loss f(S) - f(S - j) instead.
        """
        if mode == "marginal":
            d = self._gains(self._T, self._V, self._G)
            for j in np.flatnonzero(self._in):
                d[j] = self._without(j)[3]
            return d
        if mode != "gradient":
            raise ValueError(f"unknown coefficient mode {mode!r}")
        weight = self._w / (1.0 + self._G)
        d = np.empty(self.m)
        for l, (cols, y, yp) in enumerate(zip(self._cols, self._Yb, self._Ypb)):
            if self._mu[l] == 1.0:
                d[cols] = y @ weight
                continue
            s = self._T[l]
            live = s > 0.0
            # where the nest is empty every member has the limit slope 1; where
            # it is live only selected members have one, y^(mu-1) T^(1/mu-1)
            d[cols] = y @ np.where(live, 0.0, weight)
            slope = np.zeros_like(s)
            slope[live] = weight[live] * s[live] ** (self._inv_mu[l] - 1.0)
            sel = self._in[cols]
            d[cols[sel]] += yp[sel] @ slope
        return d
