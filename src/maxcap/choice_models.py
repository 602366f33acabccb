"""Logit-family choice models defined through their generating functions.

Each model is fully described by a positive, homogeneous-of-degree-one
generating function ``G`` over a vector of location attractions
``y`` (``y_j = exp(utility_j)``, with ``y_j = 0`` encoding a closed
location).  Choice probabilities against an outside option of total
attraction 1 follow from ``G`` and its gradient:

    P(location j) = y_j * dG_j(y) / (1 + G(y))
    P(outside)    = 1 / (1 + G(y))

Two concrete models are provided: :class:`MultinomialLogit` (``G`` is the
plain sum) and :class:`NestedLogit` (per-nest power sums with dissimilarity
parameters ``mu_l >= 1``).  Other models in the family can be added by
subclassing :class:`ChoiceModel`, which is all that :func:`maxcap.objective`,
its relaxation and gradient, and the oracles use.  The incremental evaluator
(and with it the solver) and the ``.mcp`` writer support only these two
models.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["ChoiceModel", "MultinomialLogit", "NestedLogit"]


def _as_attraction_rows(y: np.ndarray) -> np.ndarray:
    """Validate a batch of attraction vectors (one per row)."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array of attraction rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("attraction values must be finite")
    if np.any(arr < 0.0):
        raise ValueError("attraction values must be non-negative")
    return arr


class ChoiceModel(abc.ABC):
    """Abstract generating function: value, gradient, choice probabilities.

    Implementations must be immutable after construction; all methods are
    pure, so a single model instance is safe to share across threads.
    """

    @abc.abstractmethod
    def value_rows(self, y_rows: np.ndarray) -> np.ndarray:
        """G evaluated on each row of a (n, m) attraction matrix."""

    @abc.abstractmethod
    def grad_rows(self, y_rows: np.ndarray) -> np.ndarray:
        """Gradient of G on each row of a (n, m) attraction matrix."""

    def check_dimension(self, m: int) -> None:
        """Raise ValueError when the model cannot price m locations."""

    def value(self, y: np.ndarray) -> float:
        """G(y) for a single attraction vector."""
        return float(self.value_rows(np.atleast_2d(np.asarray(y, dtype=float)))[0])

    def grad(self, y: np.ndarray) -> np.ndarray:
        """dG/dy_j for a single attraction vector.

        Entries are always non-negative.  At points where a whole nest has
        zero attraction the raw nested-logit formula is indeterminate; the
        implementations return the one-sided directional limit there (see
        :class:`NestedLogit`).
        """
        return self.grad_rows(np.atleast_2d(np.asarray(y, dtype=float)))[0]

    def probabilities(self, y: np.ndarray) -> np.ndarray:
        """Choice probabilities, length m + 1; the last entry is the outside option.

        Uses the Euler identity ``sum_j y_j dG_j = G`` so the returned vector
        sums to one up to rounding.
        """
        return self.probabilities_rows(np.atleast_2d(np.asarray(y, dtype=float)))[0]

    def probabilities_rows(self, y_rows: np.ndarray) -> np.ndarray:
        """:meth:`probabilities` of each row of a (n, m) attraction matrix, shape (n, m + 1)."""
        y_rows = np.asarray(y_rows, dtype=float)
        denom = 1.0 + self.value_rows(y_rows)
        p = np.empty((len(y_rows), y_rows.shape[-1] + 1))
        p[:, :-1] = y_rows * self.grad_rows(y_rows) / denom[:, None]
        p[:, -1] = 1.0 / denom
        return p


class MultinomialLogit(ChoiceModel):
    """Independent-alternatives model: G(y) = sum_j y_j."""

    def value_rows(self, y_rows: np.ndarray) -> np.ndarray:
        return _as_attraction_rows(y_rows).sum(axis=1)

    def grad_rows(self, y_rows: np.ndarray) -> np.ndarray:
        return np.ones_like(_as_attraction_rows(y_rows))

    def __repr__(self) -> str:
        return "MultinomialLogit()"


class NestedLogit(ChoiceModel):
    """Nested model: G(y) = sum_l (sum_{j in nest l} y_j^mu_l)^(1/mu_l).

    Parameters
    ----------
    nest_of:
        Integer array of length m mapping each location to its nest,
        values in [0, L).  Every nest must contain at least one location.
    mu:
        Per-nest dissimilarity parameters, all >= 1.  With mu_l = 1
        everywhere the model degenerates to :class:`MultinomialLogit`.

    Gradient convention at degenerate points: when the power sum of a nest
    with mu_l > 1 is zero, the partial derivative for its members is defined
    as 1, the limit of ``G(t * e_j) / t`` as t -> 0+.  This keeps objective
    coefficients equal to true marginal growth rates at such points.
    """

    def __init__(self, nest_of, mu):
        nest_of = np.asarray(nest_of, dtype=np.intp)
        mu = np.asarray(mu, dtype=float)
        if nest_of.ndim != 1 or nest_of.size == 0:
            raise ValueError("nest_of must be a non-empty 1-d integer array")
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a non-empty 1-d array")
        L = mu.size
        if np.any(nest_of < 0) or np.any(nest_of >= L):
            raise ValueError(f"nest indices must lie in [0, {L})")
        counts = np.bincount(nest_of, minlength=L)
        if np.any(counts == 0):
            empty = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"nest {empty} has no locations")
        if np.any(mu < 1.0):
            raise ValueError("dissimilarity parameters mu must all be >= 1")
        self.nest_of = nest_of
        self.mu = mu
        self.n_nests = L
        self.m = nest_of.size
        # column indices per nest, ascending, fixed once
        self.nest_cols = tuple(np.flatnonzero(nest_of == l) for l in range(L))

    def check_dimension(self, m: int) -> None:
        if m != self.m:
            raise ValueError(f"model prices {self.m} locations, got {m}")

    def _validated(self, y_rows: np.ndarray) -> np.ndarray:
        arr = _as_attraction_rows(y_rows)
        if arr.shape[1] != self.m:
            raise ValueError(f"attraction rows have {arr.shape[1]} entries, model expects {self.m}")
        return arr

    def value_rows(self, y_rows: np.ndarray) -> np.ndarray:
        y_rows = self._validated(y_rows)
        total = np.zeros(y_rows.shape[0])
        for cols, mu_l in zip(self.nest_cols, self.mu):
            s = (y_rows[:, cols] ** mu_l).sum(axis=1)
            total += s ** (1.0 / mu_l)
        return total

    def grad_rows(self, y_rows: np.ndarray) -> np.ndarray:
        y_rows = self._validated(y_rows)
        out = np.empty_like(y_rows)
        for cols, mu_l in zip(self.nest_cols, self.mu):
            block = y_rows[:, cols]
            if mu_l == 1.0:
                out[:, cols] = 1.0
                continue
            s = (block ** mu_l).sum(axis=1)
            positive = s > 0.0
            outer = np.ones_like(s)
            outer[positive] = s[positive] ** (1.0 / mu_l - 1.0)
            grad_block = block ** (mu_l - 1.0) * outer[:, None]
            # directional-limit convention: an all-zero nest contributes slope 1
            grad_block[~positive, :] = 1.0
            out[:, cols] = grad_block
        return out

    def __repr__(self) -> str:
        return f"NestedLogit(L={self.n_nests}, m={self.m})"
