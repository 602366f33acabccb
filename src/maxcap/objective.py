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
reference semantics.  The relaxation and its gradient also take a ``(B, m)``
batch of points, priced in chunks of rows that bound memory, each row bit
for bit as the single point.  :class:`IncrementalEvaluator` prices moves as
exact gains instead of differences of totals: opening ``j`` raises zone
``i``'s value by ``dG_ij`` and adds

    f(S + j) - f(S) = sum_i q_i / (1 + G_i) * dG_ij / (1 + G_i + dG_ij)

again a sum of non-negative terms.  It has one code path for every bundled
model: multinomial logit is priced as nested logit with a single nest and
``mu = 1``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .choice_models import ChoiceModel, MultinomialLogit, NestedLogit

__all__ = [
    "Instance",
    "Solution",
    "objective",
    "objective_relaxed",
    "objective_gradient",
    "IncrementalEvaluator",
]

# Strict-improvement slack used by the solver when comparing objectives;
# avoids oscillation on floating-point ties.  It is relative to max(1, f):
# an absolute 1e-12 is below f's rounding unit (about 2.2e-16 * f) once f
# exceeds about 4500, where it would no longer separate moves from rounding.
IMPROVEMENT_EPS = 1e-12
_INTEGERS = (int, np.integer)  # the types of a location index, bool aside


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
        sel = tuple(_integer(j, "a selected index") for j in self.selected)
        if any(b <= a for a, b in zip(sel, sel[1:])):
            raise ValueError("selected indices must be strictly increasing")
        if sel and sel[0] < 0:
            raise ValueError("selected indices must be non-negative")
        object.__setattr__(self, "selected", sel)


def _is_integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not."""
    return isinstance(x, _INTEGERS) and not isinstance(x, bool)


def _integer(x, what: str, low: int | None = None) -> int:
    """x as an int: TypeError for a non-integer, bool included (``operator.index(True)`` is 1), ValueError below low."""
    if not _is_integer(x):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise ValueError(f"{what} must be >= {low}")
    return int(x)


def _positive_real(x, what: str) -> None:
    """TypeError unless x is a real number (a bool is not), ValueError unless it is positive and finite."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise TypeError(f"{what} must be a real number, got {x!r}")
    if not 0 < x < np.inf:
        raise ValueError(f"{what} must be positive and finite")


def _check_indices(selected, m: int, what: str = "selected") -> np.ndarray:
    """The one check of location indices, returned in the caller's order: TypeError for
    a non-integer (``bool`` included), ValueError for one outside ``[0, m)`` or repeated."""
    idx = selected.tolist() if isinstance(selected, np.ndarray) else list(selected)  # Python scalars compare fastest
    for j in idx:
        if not _is_integer(j):
            raise TypeError(f"{what} indices must be integers, got {j!r}")
        if not 0 <= j < m:
            raise ValueError(f"{what} index {j} lies outside [0, {m})")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} indices must be distinct")
    return np.array(idx, dtype=np.intp)


def _captured(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i q_i g_i / (1 + g_i) over the last axis: captured demand at zone values g."""
    return (q * g / (1.0 + g)).sum(axis=-1)


# A batch of relaxation points is priced in chunks of rows holding at most
# this many zone x location cells, which bounds each temporary at 512 KiB.
_CHUNK_CELLS = 1 << 16

# swap_upper_bounds prices a zone exactly when closing a location can raise
# its swap-scan terms by more than the factor 1 + _RHO_EXACT.
_RHO_EXACT = 1e-3


def _price_rows(dg: np.ndarray, opg: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i * dg_i / (opg_i + dg_i) for each row of dg."""
    t = dg + opg
    np.divide(dg, t, out=t)
    return t @ w


def _per_point(inst: Instance, x, price):
    """``price`` applied to the points in ``x``, in chunks of rows.

    ``x`` is one point of shape ``(m,)`` or a batch of shape ``(B, m)``;
    ``price`` maps a ``(b, m)`` block of rows to one result per row.  A single
    point is the batch of one, and its result is returned without the batch
    axis.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (inst.m,) or x.ndim > 2:
        want = f"({inst.m},)" if x.ndim < 2 else f"(B, {inst.m})"
        raise ValueError(f"x must have shape {want}, got {x.shape}")
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("relaxation point entries must lie in [0, 1]")
    rows = x.reshape(-1, inst.m)
    step = max(1, _CHUNK_CELLS // inst.Y.size)
    if len(rows) <= step:
        out = price(inst, rows)
    else:
        out = np.concatenate([price(inst, rows[k:k + step]) for k in range(0, len(rows), step)])
    return out if x.ndim == 2 else out[0]


def _effective(inst: Instance, rows: np.ndarray) -> np.ndarray:
    """The attractions seen at each point: ``Y * x`` stacked, shape (rows * zones, m)."""
    return (inst.Y * rows[:, None, :]).reshape(-1, inst.m)


def _values(inst: Instance, rows: np.ndarray) -> np.ndarray:
    g = inst.model.value_rows(_effective(inst, rows)).reshape(len(rows), inst.n_zones)
    return _captured(inst.q, g)


def _gradients(inst: Instance, rows: np.ndarray) -> np.ndarray:
    effective = _effective(inst, rows)
    g = inst.model.value_rows(effective).reshape(len(rows), inst.n_zones)
    dg = inst.model.grad_rows(effective).reshape(len(rows), *inst.Y.shape)
    weight = inst.q / (1.0 + g) / (1.0 + g)
    return (inst.Y * dg * weight[..., None]).sum(axis=1)


def objective(inst: Instance, selected) -> float:
    """Captured demand f(S); f(empty set) is exactly 0."""
    x = np.zeros(inst.m)
    x[_check_indices(selected, inst.m)] = 1.0
    return objective_relaxed(inst, x)


def objective_relaxed(inst: Instance, x: np.ndarray) -> float | np.ndarray:
    """Binary-relaxation objective f(x) for x in [0, 1]^m.

    ``x`` may also be a ``(B, m)`` batch of points, which returns the ``B``
    values as an array.  Each row is priced from scratch exactly as the
    single point would be, so batched values equal per-point ones bit for
    bit.  On indicator vectors this coincides with :func:`objective` (same
    code path, so the agreement is exact).
    """
    f = _per_point(inst, x, _values)
    return f if f.ndim else float(f)


def objective_gradient(inst: Instance, x: np.ndarray) -> np.ndarray:
    """Gradient of the relaxed objective at x; entries are always >= 0.

    A ``(B, m)`` batch of points returns one gradient per row, each equal
    bit for bit to the single-point call.
    """
    return _per_point(inst, x, _gradients)


class IncrementalEvaluator:
    """Exact move pricing against one cached selection, for one solver run.

    Attractions raised to the nest's ``mu`` are stored location-major: one
    C-contiguous ``(locations in nest, zones)`` block per nest, its rows in
    ``nest_cols`` order, unpowered where ``mu = 1`` (multinomial logit is one
    such nest).  The cached ``dG`` blocks share this layout, and each
    block's results are scattered to location order through its
    ``nest_cols`` entry.  Phase 2 gathers raw attractions from ``Y``.  The cached state is
    the selection's per-nest power sums ``T``, their roots
    ``V = T ** (1/mu)``, the zone values ``G = sum_l V_l`` and
    ``f = sum q G / (1 + G)``.  Opening location ``t`` of nest ``l`` raises
    the zone values by ``dG = (T_l + Yp_t) ** (1/mu_l) - V_l`` (``Yp_t``
    itself at ``mu_l = 1``), and :meth:`_gains` turns per-nest ``dG``
    blocks into exact gains on top of zone values ``g``.  :meth:`_without`
    gives the state with one selected location closed plus its exact loss.
    Additions are ``f + gains``, swaps ``(f - loss) + gains`` and removals
    ``f - loss``; :meth:`gains` prices a chosen list of locations alone, and
    :meth:`swap_upper_bounds` bounds each selected location's swaps from
    the additions scan.  Each block is reduced over zones by one
    matrix-vector product.

    Closing ``j_out`` changes only its own nest's sums, so every other
    nest's ``dG`` block is the same for all swap scans at one selection:
    the blocks at the current state are computed on first use after a
    ``reset`` and kept until the next one, and a swap scan recomputes nest
    ``lo`` of ``j_out`` alone.  The cache holds one block per nest: a
    ``mu = 1`` nest's ``dG`` is its stored block itself, so only the other
    nests take memory.  These powered blocks and the ``dG`` cache are all
    the evaluator holds besides per-zone vectors: each scan allocates its
    own pricing temporary.  State belongs to a single
    run; it is not shared across threads.  ``reset`` rebuilds the state
    from scratch, and the solver prices every proposal with it, so no drift
    enters the accepted trajectory.
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
        # row r of block l is location cols_l[r] across all zones, raised to mu_l
        self._Ypb = [self.Y.T[cols] for cols in self._cols]
        for yp, mu in zip(self._Ypb, self._mu):
            if mu != 1.0:
                yp **= mu
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
        self._f = float(_captured(self.q, self._G))
        self._dgs = None

    def current_objective(self) -> float:
        return self._f

    # -- candidate pricing ---------------------------------------------------

    def _dg(self, l: int, yp: np.ndarray, sums: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """dG of opening each row of ``yp`` (nest l) on the nest state (sums, roots).

        ``yp`` itself when ``mu_l = 1``, otherwise a new block.
        """
        if self._mu[l] == 1.0:
            return yp
        dg = yp + sums
        dg **= self._inv_mu[l]
        dg -= roots
        return dg

    def _state_dgs(self) -> list:
        """Every nest's dG block at the current state, laid out as ``_Ypb``; computed once per ``reset``.

        A ``mu = 1`` nest's entry is its stored attraction block itself, any
        other nest's a new block, so the cache copies no attractions.
        """
        if self._dgs is None:
            self._dgs = [self._dg(l, yp, t, v) for l, (yp, t, v) in enumerate(zip(self._Ypb, self._T, self._V))]
        return self._dgs

    def _gains(self, dgs, g_base: np.ndarray) -> np.ndarray:
        """f(state + j) - f(state) for every location j, from per-nest dG blocks.

        Opening j raises the zone values ``g_base`` by ``dG_j`` and adds
        ``q / (1 + g) * dG / (1 + g + dG)``.
        """
        opg = 1.0 + g_base
        w = self.q / opg
        gains = np.empty(self.m)
        for cols, dg in zip(self._cols, dgs):
            gains[cols] = _price_rows(dg, opg, w)
        return gains

    def _without(self, j: int):
        """Selected j's nest l, its (sums, roots) and the zone values with j closed, and f(S) - f(S - j)."""
        l = int(self._nest_of[j])
        yp = self._Ypb[l][np.searchsorted(self._cols[l], j)]
        sums = self._T[l] - yp  # a float sum minus one of its addends stays >= 0
        roots = sums ** self._inv_mu[l]
        dg = yp if self._mu[l] == 1.0 else self._V[l] - roots
        g_base = self._G - dg
        return l, sums, roots, g_base, float(self._w @ (dg / (1.0 + g_base)))

    def gains(self, cols) -> np.ndarray:
        """f(S + j) - f(S) for each listed location j outside S.

        The terms are the additions scan's, bit for bit; only the order of
        the sum over zones may differ, so a value can differ from
        ``objectives_with_additions()[j] - f`` by rounding.
        """
        cols = _check_indices(cols, self.m, "location")
        if np.any(self._in[cols]):
            raise ValueError("gains are priced for unselected locations only")
        gains = np.empty(cols.size)
        opg = 1.0 + self._G
        nests = self._nest_of[cols]
        for l in sorted(set(nests.tolist())):
            pick = nests == l
            yp = self._Ypb[l][np.searchsorted(self._cols[l], cols[pick])]
            gains[pick] = _price_rows(self._dg(l, yp, self._T[l], self._V[l]), opg, self._w)
        return gains

    def objectives_with_additions(self) -> np.ndarray:
        """f(S + j) for every location j; -inf at already-selected entries."""
        vals = self._f + self._gains(self._state_dgs(), self._G)
        vals[self._in] = -np.inf
        return vals

    def objectives_with_swap(self, j_out: int) -> np.ndarray:
        """f(S - j_out + t) for every t outside S; -inf at selected entries."""
        (j_out,) = _check_indices((j_out,), self.m, "location")
        if not self._in[j_out]:
            raise ValueError(f"location {j_out} is not selected")
        lo, sums, roots, g_base, loss = self._without(j_out)
        dgs = list(self._state_dgs())
        dgs[lo] = self._dg(lo, self._Ypb[lo], sums, roots)
        vals = (self._f - loss) + self._gains(dgs, g_base)
        vals[self._in] = -np.inf
        return vals

    def swap_upper_bounds(self) -> np.ndarray:
        """For each selected j_out, a bound on every value ``objectives_with_swap(j_out)`` returns.

        Unselected entries are -inf, and so is every entry when S holds
        every location.  A j_out in a nest with ``mu != 1`` gets +inf, which
        leaves it to its swap scan: closing it changes its own nest's
        ``dG``, which the argument below holds fixed.

        Write ``opg = 1 + G`` for the zone values at S, and
        ``a_it = w_i dG_it / (opg_i + dG_it)`` for the additions-scan terms,
        so that ``gains_S[t] = sum_i a_it``.  Closing j lowers the zone
        values to ``g'_i = G_i - delta_ij`` (the ``g_base`` of
        :meth:`_without`), and t's swap-scan term becomes
        ``q_i / opg'_i * dG'_it / (opg'_i + dG'_it)``.  When j's nest has
        ``mu = 1``, ``dG'_it = dG_it`` for every t: other nests' sums do not
        change, and in j's nest ``dG`` is the attraction itself.  So the
        term is at most ``rho_ij * a_it`` with
        ``rho_ij = max(1, opg_i / opg'_i) ** 2``: each of its two factors
        grows by at most ``opg_i / opg'_i`` as the zone value drops (the max
        covers a ``g'_i`` that rounding leaves above ``G_i``).  The zones
        ``Z = {i : rho_ij > 1 + r}``, ``r = _RHO_EXACT``, get their exact
        terms, gathered from the cached ``dG``; the other terms are at most
        ``(1 + r) a_it`` and add up to at most
        ``(1 + r) (gains_S[t] - sum_Z a_it)``.  The bound is ``f - loss_j``
        plus the largest of these over t outside S.  This is lazy greedy's
        submodularity argument, zone by zone.

        Rounding: the bound and the swap scan take the same float ``G``,
        ``g'`` and cached ``dG`` as inputs and share ``f - loss_j``.  Every
        captured demand and gain in sight lies in ``[0, Q]``, ``Q`` the
        total demand, and each sum over at most n zones of non-negative
        terms, each a few units in the last place off, is off by at most
        ``(n + 8) eps`` times its value.  The swap scan's gain, ``gains_S``,
        the sums over Z and the last few operations, ``rho`` included, then
        leave the bound and the scan at most about ``4 (n + 8) eps Q``
        apart; twice that is added to every bound, in the style of greedy's
        lazy slack.
        """
        bounds = np.full(self.m, -np.inf)
        outside = ~self._in
        if not outside.any():
            return bounds  # no swap to bound
        selected = np.flatnonzero(self._in)
        unit = self._mu[self._nest_of[selected]] == 1.0
        bounds[selected[~unit]] = np.inf
        if not unit.any():
            return bounds
        slack = 8.0 * (self.q.size + 8) * np.finfo(float).eps * self.q.sum()
        opg = 1.0 + self._G
        state = self._state_dgs()
        grown = (1.0 + _RHO_EXACT) * self._gains(state, self._G)  # every term at its cap
        for j in selected[unit]:
            *_, g_base, loss = self._without(j)
            opg_j = 1.0 + g_base
            with np.errstate(over="ignore"):  # an overflowing rho marks a zone to price exactly
                rho = np.maximum(opg / opg_j, 1.0) ** 2
            z = np.flatnonzero(rho > 1.0 + _RHO_EXACT)
            ub = grown.copy()
            if z.size:
                opgj_z, wj_z, opg_z, w_z = opg_j[z], self.q[z] / opg_j[z], opg[z], self._w[z]
                for cols, dg in zip(self._cols, state):
                    dz = np.take(dg, z, axis=1, mode="clip")  # z is in range
                    ub[cols] += _price_rows(dz, opgj_z, wj_z)
                    ub[cols] -= (1.0 + _RHO_EXACT) * _price_rows(dz, opg_z, w_z)
            bounds[j] = (self._f - loss) + ub[outside].max() + slack
        return bounds

    def objectives_with_removals(self) -> np.ndarray:
        """f(S - j) for every selected j; +inf at unselected entries."""
        vals = np.full(self.m, np.inf)
        for j in np.flatnonzero(self._in):
            vals[j] = self._f - self._without(j)[4]
        return vals

    # -- local-search coefficients --------------------------------------------

    def coefficients(self) -> np.ndarray:
        """Phase 2's linear model: the relaxation gradient at the current selection's indicator.

        For nested models with mu > 1 this assigns 0 to unselected locations
        whose nest already holds a selected one (the true one-sided
        derivative) and 1 to members of empty nests (directional limit).
        """
        weight = self._w / (1.0 + self._G)
        d = np.empty(self.m)
        for l, (cols, yp) in enumerate(zip(self._cols, self._Ypb)):
            if self._mu[l] == 1.0:
                d[cols] = yp @ weight
                continue
            s = self._T[l]
            live = s > 0.0
            # where the nest is empty every member has the limit slope 1; where
            # it is live only selected members have one, y^(mu-1) T^(1/mu-1), taken
            # as (y^mu / T) V: y^mu / T <= 1, so a subnormal T cannot overflow it
            d[cols] = self.Y.T[cols] @ np.where(live, 0.0, weight)
            sel = self._in[cols]
            share = np.divide(yp[sel], s, out=np.zeros((sel.sum(), s.size)), where=live)
            d[cols[sel]] += share @ (weight * self._V[l])
        return d
