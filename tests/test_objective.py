import importlib
import re
import tracemalloc

import numpy as np
import pytest

from maxcap import (
    GeneratorParams,
    IncrementalEvaluator,
    Instance,
    MmnlParams,
    MultinomialLogit,
    NestedLogit,
    Solution,
    SolverConfig,
    assign_nests,
    brute_force_opt,
    brute_force_subproblem,
    check_cpgf_contracts,
    check_gradient,
    check_monotonicity,
    check_submodularity,
    check_subproblem,
    ggx,
    objective,
    objective_gradient,
    objective_relaxed,
    solve_subproblem,
)
from maxcap.solver import greedy
from conftest import dense_random, planar


@pytest.fixture
def one_zone():
    return Instance.from_arrays([1.0], [[1.0, 1.0]], MultinomialLogit())


class TestMask:
    """A selection masks each zone's attractions: only selected locations add to G."""

    @staticmethod
    def values(selected):
        inst = Instance.from_arrays([1.0], [[1.0, 2.0, 3.0]], MultinomialLogit())
        ev = IncrementalEvaluator(inst)
        ev.reset(selected)
        return objective(inst, selected), ev.current_objective()

    def test_partial(self):
        assert self.values({0, 2}) == (4 / 5, 4 / 5)

    def test_empty(self):
        assert self.values(set()) == (0.0, 0.0)

    def test_identity(self):
        assert self.values({0, 1, 2}) == (6 / 7, 6 / 7)

    def test_out_of_range(self):
        inst = Instance.from_arrays([1.0], [[1.0, 2.0]], MultinomialLogit())
        with pytest.raises(ValueError):
            objective(inst, {2})
        with pytest.raises(ValueError):
            IncrementalEvaluator(inst).reset({2})

    @pytest.mark.parametrize("selected", [[1.5], [0, 1.0], [np.float64(2.0)]])
    def test_non_integer_indices_rejected(self, selected):
        # int() would truncate 1.5 to 1 and price a selection nobody asked for
        inst = Instance.from_arrays([1.0], [[1.0, 2.0, 3.0]], MultinomialLogit())
        with pytest.raises(TypeError):
            objective(inst, selected)
        with pytest.raises(TypeError):
            IncrementalEvaluator(inst).reset(selected)
        assert objective(inst, [np.int64(2)]) == objective(inst, [2])


class TestObjective:
    def test_single_zone(self, one_zone):
        assert objective(one_zone, [0, 1]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_selection_is_zero(self, one_zone):
        assert objective(one_zone, []) == 0.0
        assert objective(planar(seed=5, nested=True), []) == 0.0

    def test_two_weighted_zones(self):
        # masked generating-function values 1 and 3 -> 5 - (2/2 + 3/4)
        inst = Instance.from_arrays([2.0, 3.0], [[1.0, 0.0], [1.0, 2.0]], MultinomialLogit())
        assert objective(inst, [0, 1]) == pytest.approx(3.25, abs=1e-12)

    def test_bounds(self, rng):
        inst = dense_random(rng, zones=8, m=10, nested=True)
        for _ in range(20):
            k = int(rng.integers(0, 11))
            s = rng.choice(10, size=k, replace=False)
            f = objective(inst, s)
            assert 0.0 <= f < inst.total_demand


class TestRelaxed:
    def test_indicator_consistency_is_exact(self, rng):
        inst = dense_random(rng, zones=7, m=9, nested=True)
        for _ in range(20):
            s = rng.choice(9, size=int(rng.integers(0, 10)), replace=False)
            x = np.zeros(9)
            x[s] = 1.0
            assert objective_relaxed(inst, x) == objective(inst, s)

    def test_zero_point(self, one_zone):
        assert objective_relaxed(one_zone, np.zeros(2)) == 0.0

    def test_half_point(self, one_zone):
        assert objective_relaxed(one_zone, np.array([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_out_of_box(self, one_zone):
        with pytest.raises(ValueError):
            objective_relaxed(one_zone, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            objective_relaxed(one_zone, np.array([-0.1, 0.5]))


class TestGradient:
    def test_at_ones(self, one_zone):
        g = objective_gradient(one_zone, np.ones(2))
        assert g == pytest.approx([1 / 9, 1 / 9], abs=1e-12)

    def test_at_zero(self, one_zone):
        g = objective_gradient(one_zone, np.zeros(2))
        assert g == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_nonnegative_everywhere(self, rng):
        inst = dense_random(rng, zones=6, m=8, nested=True)
        for _ in range(50):
            assert np.all(objective_gradient(inst, rng.uniform(0, 1, 8)) >= 0.0)

    @pytest.mark.parametrize("nested", [False, True])
    def test_matches_finite_differences(self, rng, nested):
        inst = planar(zones=12, m=8, seed=11, nested=nested)
        step = 1e-5
        for _ in range(5):
            x = rng.uniform(0.1, 0.9, inst.m)
            grad = objective_gradient(inst, x)
            for j in range(inst.m):
                hi, lo = x.copy(), x.copy()
                hi[j] += step
                lo[j] -= step
                fd = (objective_relaxed(inst, hi) - objective_relaxed(inst, lo)) / (2 * step)
                assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))


# the module itself: the package binds the name maxcap.objective to the function
OBJECTIVE_MODULE = importlib.import_module("maxcap.objective")


def _point_relaxed(inst, x):
    """f(x) at one point, straight from the definition."""
    g = inst.model.value_rows(inst.Y * x)
    return float((inst.q * g / (1.0 + g)).sum())


def _point_gradient(inst, x):
    """The relaxation gradient at one point, straight from the definition."""
    effective = inst.Y * x
    g = inst.model.value_rows(effective)
    dg = inst.model.grad_rows(effective)
    weight = inst.q / (1.0 + g) / (1.0 + g)
    return (inst.Y * dg * weight[:, None]).sum(axis=0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestBatched:
    """A (B, m) batch prices every row bit for bit as the single point would be.

    The zone counts straddle the blocks of numpy's pairwise summation (8 and
    128 elements), where a different reduction order would show.
    """

    ZONES = (1, 7, 8, 9, 127, 128, 129, 1000)

    @staticmethod
    def _points(rng, m, rows=12):
        x = rng.uniform(0.0, 1.0, (rows, m))
        x[::3] = rng.random((len(x[::3]), m)) < 0.5  # indicator rows too
        x[1, 0], x[2, -1] = 0.0, 1.0  # the box's faces
        return x

    @pytest.mark.parametrize("small_chunks", [False, True])
    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("zones", ZONES)
    def test_rows_equal_single_points(self, rng, monkeypatch, zones, nested, small_chunks):
        inst = dense_random(rng, zones=zones, m=9, nested=nested)
        x = self._points(rng, inst.m)
        if small_chunks:  # chunks of 5 rows: two full ones and a partial one
            monkeypatch.setattr(OBJECTIVE_MODULE, "_CHUNK_CELLS", 5 * inst.Y.size)
        values, grads = objective_relaxed(inst, x), objective_gradient(inst, x)
        assert values.shape == (len(x),) and grads.shape == x.shape
        for row, value, grad in zip(x, values, grads):
            assert _bits(value) == _bits(objective_relaxed(inst, row)) == _bits(_point_relaxed(inst, row))
            assert _bits(grad) == _bits(objective_gradient(inst, row)) == _bits(_point_gradient(inst, row))

    def test_batch_longer_than_one_chunk(self, rng):
        inst = dense_random(rng, zones=1000, m=9, nested=True)
        x = self._points(rng, inst.m, rows=2 * OBJECTIVE_MODULE._CHUNK_CELLS // inst.Y.size + 3)
        assert _bits(objective_relaxed(inst, x)) == _bits([_point_relaxed(inst, row) for row in x])
        assert _bits(objective_gradient(inst, x)) == _bits([_point_gradient(inst, row) for row in x])

    @pytest.mark.parametrize("nested", [False, True])
    def test_batch_of_one_is_the_single_point(self, rng, nested):
        inst = dense_random(rng, zones=129, m=9, nested=nested)
        x = rng.uniform(0.0, 1.0, inst.m)
        value = objective_relaxed(inst, x)
        assert type(value) is float
        assert _bits(objective_relaxed(inst, x[None])) == _bits([value])
        assert _bits(objective_gradient(inst, x[None])) == _bits([objective_gradient(inst, x)])
        assert objective_relaxed(inst, np.empty((0, inst.m))).shape == (0,)

    def test_shape_and_range_errors(self, rng):
        inst = dense_random(rng, zones=7, m=9)
        for fn in (objective_relaxed, objective_gradient):
            with pytest.raises(ValueError, match=r"^x must have shape \(9,\), got \(8,\)$"):
                fn(inst, np.zeros(8))
            with pytest.raises(ValueError, match=r"^x must have shape \(B, 9\), got \(2, 8\)$"):
                fn(inst, np.zeros((2, 8)))
            with pytest.raises(ValueError, match=r"^x must have shape \(B, 9\), got \(1, 2, 9\)$"):
                fn(inst, np.zeros((1, 2, 9)))
            for bad in (np.full(9, 1.5), np.full((3, 9), 0.5) - np.eye(3, 9), np.full(9, np.nan)):
                with pytest.raises(ValueError, match=r"^relaxation point entries must lie in \[0, 1\]$"):
                    fn(inst, bad)


class TestMarginalGain:
    """``IncrementalEvaluator.gains`` prices f(S + j) - f(S) for j outside S."""

    @staticmethod
    def gain(inst, selected, j):
        ev = IncrementalEvaluator(inst)
        ev.reset(selected)
        return float(ev.gains([j])[0])

    @staticmethod
    def difference(inst, selected, j):
        return objective(inst, [*selected, j]) - objective(inst, selected)

    def test_from_empty(self, one_zone):
        assert self.gain(one_zone, [], 0) == pytest.approx(0.5, abs=1e-12)
        assert self.gain(one_zone, [], 0) == pytest.approx(self.difference(one_zone, [], 0), abs=1e-12)

    def test_second_addition(self, one_zone):
        assert self.gain(one_zone, [0], 1) == pytest.approx(1 / 6, abs=1e-12)
        assert self.gain(one_zone, [0], 1) == pytest.approx(self.difference(one_zone, [0], 1), abs=1e-12)

    def test_zero_attraction_location(self):
        inst = Instance.from_arrays([1.0, 2.0], [[1.0, 0.0], [3.0, 0.0]], MultinomialLogit())
        assert self.gain(inst, [0], 1) == 0.0
        assert self.difference(inst, [0], 1) == 0.0

    def test_rejects_selected(self, one_zone):
        with pytest.raises(ValueError):
            self.gain(one_zone, [0], 0)

    def test_strictly_positive_with_attraction(self, rng):
        for inst in (planar(zones=10, m=8, seed=2), planar(zones=10, m=8, seed=2, nested=True)):
            for _ in range(30):
                s = rng.choice(8, size=int(rng.integers(0, 8)), replace=False).tolist()
                j = int(rng.choice(np.setdiff1d(np.arange(8), s)))
                assert self.gain(inst, s, j) > 0.0
                assert self.gain(inst, s, j) == pytest.approx(self.difference(inst, s, j), abs=1e-12)


class TestStructuralProperties:
    @pytest.mark.parametrize("nested", [False, True])
    def test_monotone_and_submodular(self, rng, nested):
        inst = dense_random(rng, zones=8, m=10, nested=nested)
        m = inst.m
        for _ in range(300):
            size_b = int(rng.integers(1, m))
            b = np.sort(rng.choice(m, size_b, replace=False))
            a = b[rng.random(size_b) < 0.5]
            j = int(rng.choice(np.setdiff1d(np.arange(m), b)))
            gain_a = objective(inst, np.append(a, j)) - objective(inst, a)
            gain_b = objective(inst, np.append(b, j)) - objective(inst, b)
            assert gain_b >= -1e-10
            assert gain_a >= gain_b - 1e-10


class TestSolution:
    def test_orders_and_freezes(self):
        with pytest.raises(ValueError):
            Solution((2, 1))
        with pytest.raises(ValueError):
            Solution((1, 1))
        assert Solution((0, 4), 1.0).selected == (0, 4)

    @pytest.mark.parametrize("selected", [(1.7, 2.2), (1, 2.0), (np.float64(3.0),)])
    def test_non_integer_indices_rejected(self, selected):
        with pytest.raises(TypeError):
            Solution(selected)
        assert Solution((np.int32(1), np.int64(2))).selected == (1, 2)


def _longdouble_objective(inst, selected):
    """f(S) straight from its definition, in extended precision."""
    y, q = inst.Y.astype(np.longdouble), inst.q.astype(np.longdouble)
    model = inst.model
    if isinstance(model, NestedLogit):
        nests = [(c[np.isin(c, selected)], mu) for c, mu in zip(model.nest_cols, model.mu)]
    else:
        nests = [(np.asarray(selected, dtype=int), 1.0)]
    g = sum((y[:, c] ** np.longdouble(mu)).sum(axis=1) ** (1 / np.longdouble(mu))
            for c, mu in nests)
    return (q * g / (1 + g)).sum()


class TestIncrementalEvaluator:
    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_addition_values_match_scratch(self, rng, nested):
        inst = dense_random(rng, zones=7, m=9, nested=nested)
        ev = IncrementalEvaluator(inst)
        for _ in range(15):
            s = sorted(rng.choice(9, size=int(rng.integers(0, 8)), replace=False).tolist())
            ev.reset(s)
            assert ev.current_objective() == pytest.approx(objective(inst, s), abs=1e-12)
            vals = ev.objectives_with_additions()
            for j in range(9):
                if j in s:
                    assert vals[j] == -np.inf
                else:
                    assert vals[j] == pytest.approx(objective(inst, s + [j]), abs=1e-12)

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_swap_values_match_scratch(self, rng, nested):
        inst = dense_random(rng, zones=7, m=9, nested=nested)
        ev = IncrementalEvaluator(inst)
        for _ in range(10):
            s = sorted(rng.choice(9, size=4, replace=False).tolist())
            ev.reset(s)
            j = int(rng.choice(s))
            vals = ev.objectives_with_swap(j)
            for t in range(9):
                if t in s:
                    assert vals[t] == -np.inf
                else:
                    swapped = sorted(set(s) - {j} | {t})
                    assert vals[t] == pytest.approx(objective(inst, swapped), abs=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_weak_attraction_values_match_long_double(self, rng, nested):
        # values far below the total demand keep full relative precision
        base = dense_random(rng, zones=300, m=30, nested=nested)
        inst = Instance.from_arrays(base.q, base.Y * (1e-4 / 3.0), base.model)
        ev = IncrementalEvaluator(inst)
        errors = []
        for _ in range(4):
            s = sorted(rng.choice(30, size=6, replace=False).tolist())
            outside = sorted(set(range(30)) - set(s))
            ev.reset(s)
            moves = [(ev.objectives_with_additions(), s)]
            moves += [(ev.objectives_with_swap(j), sorted(set(s) - {j})) for j in s]
            for vals, kept in moves:
                for t in outside:
                    exact = _longdouble_objective(inst, kept + [t])
                    errors.append(float(abs(vals[t] - exact) / exact))
        assert max(errors) <= 1e-14

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_swap_values_after_reset_match_fresh_evaluator(self, rng, nested):
        # the per-nest dG blocks cached by the scans at s1 must not leak into s2
        inst = dense_random(rng, zones=40, m=12, nested=nested)
        s1, s2 = [0, 3, 5, 8], [1, 3, 6, 10]
        ev = IncrementalEvaluator(inst)
        ev.reset(s1)
        for j in s1:
            ev.objectives_with_swap(j)
        ev.reset(s2)
        fresh = IncrementalEvaluator(inst)
        fresh.reset(s2)
        for j in s2:
            assert ev.objectives_with_swap(j).tobytes() == fresh.objectives_with_swap(j).tobytes()

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_swap_values_do_not_depend_on_scan_order(self, rng, nested):
        inst = dense_random(rng, zones=40, m=12, nested=nested)
        s = [0, 2, 5, 7, 9, 11]
        forward, backward = IncrementalEvaluator(inst), IncrementalEvaluator(inst)
        forward.reset(s)
        backward.reset(s)
        ahead = {j: forward.objectives_with_swap(j).tobytes() for j in s}
        for j in reversed(s):
            assert backward.objectives_with_swap(j).tobytes() == ahead[j]

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_listed_gains_match_additions_scan(self, rng, nested):
        inst = dense_random(rng, zones=40, m=12, nested=nested)
        ev = IncrementalEvaluator(inst)
        for s in ([], [4], [0, 3, 5, 8]):
            ev.reset(s)
            cols = [j for j in (11, 2, 7, 1, 6) if j not in s]
            expected = ev.objectives_with_additions()[cols] - ev.current_objective()
            assert ev.gains(cols) == pytest.approx(expected, rel=1e-12, abs=1e-14)
        with pytest.raises(ValueError):
            ev.gains([3, 7])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_removal_values_match_scratch(self, rng, nested):
        inst = dense_random(rng, zones=7, m=9, nested=nested)
        ev = IncrementalEvaluator(inst)
        for _ in range(15):
            s = sorted(rng.choice(9, size=int(rng.integers(0, 10)), replace=False).tolist())
            ev.reset(s)
            vals = ev.objectives_with_removals()
            for j in range(9):
                if j in s:
                    assert vals[j] == pytest.approx(objective(inst, sorted(set(s) - {j})), abs=1e-12)
                else:
                    assert vals[j] == np.inf

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_gradient_coefficients_match_relaxed_gradient(self, rng, nested):
        inst = dense_random(rng, zones=7, m=9, nested=nested)
        ev = IncrementalEvaluator(inst)
        for _ in range(10):
            s = sorted(rng.choice(9, size=int(rng.integers(0, 10)), replace=False).tolist())
            ev.reset(s)
            x = np.zeros(9)
            x[s] = 1.0
            d = ev.coefficients()
            assert d == pytest.approx(objective_gradient(inst, x), abs=1e-12)

    @pytest.mark.parametrize("bad", [-1, -11, 12, 40])
    def test_out_of_range_locations_are_rejected(self, rng, bad):
        # numpy would wrap a negative index onto some nest's first row and price it
        inst = dense_random(rng, zones=30, m=12, nested=True)
        ev = IncrementalEvaluator(inst)
        ev.reset([0, 5, 11])
        with pytest.raises(ValueError, match=rf"^location index {bad} lies outside \[0, 12\)$"):
            ev.objectives_with_swap(bad)
        with pytest.raises(ValueError, match=rf"^location index {bad} lies outside \[0, 12\)$"):
            ev.gains([1, bad])
        fresh = IncrementalEvaluator(inst)
        fresh.reset([0, 5, 11])
        assert ev.objectives_with_swap(11).tobytes() == fresh.objectives_with_swap(11).tobytes()
        assert ev.gains([1]).tobytes() == fresh.gains([1]).tobytes()

    @pytest.mark.parametrize("cols", [[2.7], [1, 2.0], np.array([3.0])])
    def test_non_integer_gain_locations_rejected(self, rng, cols):
        ev = IncrementalEvaluator(dense_random(rng, zones=5, m=6, nested=True))
        ev.reset([0])
        bad = repr(np.asarray(cols).tolist()[-1])  # 2.7, 2.0 and 3.0
        with pytest.raises(TypeError, match=f"^location indices must be integers, got {re.escape(bad)}$"):
            ev.gains(cols)
        assert ev.gains([]).shape == (0,)
        assert ev.gains(np.array([2], dtype=np.int32)).tobytes() == ev.gains([2]).tobytes()

    def test_removal_losses_match_objective(self, rng):
        # the loss f(S) - f(S - j) that _without prices for every swap scan
        inst = dense_random(rng, zones=6, m=8, nested=True)
        ev = IncrementalEvaluator(inst)
        s = [1, 4, 6]
        ev.reset(s)
        losses = ev.current_objective() - ev.objectives_with_removals()[s]
        f = objective(inst, s)
        for j, loss in zip(s, losses):
            assert loss == pytest.approx(f - objective(inst, sorted(set(s) - {j})), abs=1e-12)


class TestSwapUpperBounds:
    """``swap_upper_bounds()[j]`` is at least every value ``objectives_with_swap(j)`` returns.

    The bounds carry the rounding slack, so they are compared with the
    dense scan's float values as they are.  A j_out in a nest with
    ``mu != 1`` gets +inf, and every other selected j_out a finite bound.
    """

    @staticmethod
    def assert_sound(inst, selected):
        """Checks every bound at ``selected``; returns the bounds."""
        ev = IncrementalEvaluator(inst)
        ev.reset(selected)
        bounds = ev.swap_upper_bounds()
        model = inst.model
        mu = model.mu[model.nest_of] if isinstance(model, NestedLogit) else np.ones(inst.m)
        for j in range(inst.m):
            if j not in selected:
                assert bounds[j] == -np.inf
            elif mu[j] != 1.0:
                assert bounds[j] == np.inf, j
            else:
                assert ev.objectives_with_swap(j).max() <= bounds[j] < np.inf, j
        return bounds

    def selections(self, rng, inst):
        m = inst.m
        yield list(ggx(inst, SolverConfig(C=min(5, m - 1)))[0].selected)  # a local optimum
        yield sorted(rng.choice(m, size=m // 3, replace=False).tolist())
        yield sorted(rng.choice(m, size=m - 1, replace=False).tolist())  # C = m - 1
        yield [int(np.argmax(inst.Y.sum(axis=0)))]  # C = 1: closing j empties every zone

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    @pytest.mark.parametrize("beta", [1.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.01, 1.0])
    def test_planar(self, rng, nested, beta, alpha):
        for seed in range(2):
            inst = planar(zones=120, m=24, beta=beta, alpha=alpha, seed=seed, nested=nested is True)
            if nested == "interleaved":  # nest j % 3 with mu (1, 1.3, 1.5)
                inst = Instance.from_arrays(inst.q, inst.Y, NestedLogit([j % 3 for j in range(24)], (1.0, 1.3, 1.5)))
            for selected in self.selections(rng, inst):
                self.assert_sound(inst, selected)

    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_dense_random(self, rng, nested):
        for _ in range(5):
            inst = dense_random(rng, zones=40, m=15, nested=nested, zero_frac=0.6)
            for selected in self.selections(rng, inst):
                self.assert_sound(inst, selected)

    @pytest.mark.parametrize("nested", [False, True])
    def test_duplicated_and_zero_columns(self, nested):
        base = planar(zones=200, m=8, beta=5.0, seed=3)
        Y = base.Y[:, [0, 1, 0, 2, 1, 3, 0, 4, 5, 2, 6, 7]]
        Y[:, 7] = 0.0
        model = NestedLogit([j % 3 for j in range(12)], (1.0, 1.3, 1.3)) if nested else MultinomialLogit()
        inst = Instance.from_arrays(base.q, Y, model)
        for selected in ([0, 2, 7], [0, 1, 2, 4, 6], [7], list(range(11)), [1, 3, 5, 7, 9, 11]):
            self.assert_sound(inst, selected)

    def test_singleton_nests(self, rng):
        # one location per nest: the pricing buffer has the fewest rows, and at C = 1 and
        # beta 1 nearly every zone is priced exactly
        inst = planar(zones=60, m=6, beta=1.0, seed=2)
        inst = Instance.from_arrays(inst.q, inst.Y, NestedLogit(range(6), (1.0, 1.3, 1.0, 1.0, 1.5, 1.0)))
        for selected in ([0], [3], [0, 1, 2], [1, 2, 3, 4, 5]):
            self.assert_sound(inst, selected)

    @pytest.mark.parametrize("nested", [False, True])
    def test_rounding_is_covered(self, rng, nested):
        # every location serves the same 20 of 100 zones, which closing j moves far, so the
        # bound prices them exactly: it sums the swap scan's own terms in another order,
        # and without the slack it falls an ulp short of the scan in about 1 case of 20
        model = NestedLogit([j % 2 for j in range(8)], (1.0, 1.4)) if nested else MultinomialLogit()
        for _ in range(100):
            Y = np.zeros((100, 8))
            Y[rng.choice(100, 20, replace=False)] = rng.uniform(0.1, 3.0, (20, 8))
            inst = Instance.from_arrays(rng.uniform(0.5, 3.0, 100), Y, model)
            self.assert_sound(inst, sorted(rng.choice(8, 3, replace=False).tolist()))

    def test_unit_mu_nest_is_bounded(self):
        # nest j % 3 with mu (1, 1.3, 1.5): closing a location of the mu = 1 nest leaves every
        # dG as it was, as under multinomial logit, so its j_outs are bounded; closing one of
        # another nest changes that nest's dG, so those j_outs are left to their swap scans
        base = planar(zones=200, m=12, beta=5.0, seed=1)
        inst = Instance.from_arrays(base.q, base.Y, NestedLogit([j % 3 for j in range(12)], (1.0, 1.3, 1.5)))
        bounds = self.assert_sound(inst, [0, 3, 4, 8])  # nests 0, 0, 1 and 2
        assert np.isfinite(bounds[[0, 3]]).all() and np.isinf(bounds[[4, 8]]).all()

    def test_no_swap_to_bound(self, rng):
        inst = dense_random(rng, zones=10, m=5)
        ev = IncrementalEvaluator(inst)
        for selected in ([], list(range(5))):
            ev.reset(selected)
            assert np.all(ev.swap_upper_bounds() == -np.inf)


class TestEvaluatorMemory:
    """Bytes traced while building an evaluator and during one run, in copies of Y.

    A nested evaluator stores one location-major block per nest (the
    attractions raised to mu) and no raw copy of Y.
    """

    @staticmethod
    def traced(fn, inst):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = fn(inst)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del kept
        return (current - before) / inst.Y.nbytes, (peak - before) / inst.Y.nbytes

    def test_nested_evaluator_holds_under_two_copies(self):
        held, _ = self.traced(IncrementalEvaluator, planar(zones=400, m=60, beta=5.0, seed=1, nested=True))
        assert held <= 2.0

    @pytest.mark.parametrize("nested, bound", [(True, 3.4), (False, 2.7)])
    def test_run_peak(self, nested, bound):
        inst = planar(zones=400, m=60, beta=5.0, seed=1, nested=nested)
        _, peak = self.traced(lambda i: ggx(i, SolverConfig(C=10)), inst)
        assert peak <= bound


class TestInstanceValidation:
    def test_needs_zones(self):
        with pytest.raises(ValueError):
            Instance.from_arrays([], [], MultinomialLogit())

    def test_mismatched_zone_widths(self):
        with pytest.raises(ValueError):
            Instance.from_arrays([1.0, 1.0], [[1.0, 2.0], [1.0]], MultinomialLogit())

    def test_zone_validation(self):
        with pytest.raises(ValueError):
            Instance.from_arrays([0.0], [[1.0]], MultinomialLogit())
        with pytest.raises(ValueError):
            Instance.from_arrays([1.0], [[-1.0]], MultinomialLogit())


class TestNumericDomain:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_attraction_prices_without_overflow(self, rng):
        Y = rng.uniform(0.0, 3.0, (6, 5))
        Y[2, 1] = 1e200
        inst = Instance.from_arrays(np.ones(6), Y, MultinomialLogit())
        x = np.zeros(5)
        x[[1, 3]] = 1.0
        assert objective(inst, [1, 3]) > 1.0
        assert np.all(np.isfinite(objective_gradient(inst, x)))
        ev = IncrementalEvaluator(inst)
        ev.reset([1, 3])
        assert np.all(np.isfinite(ev.coefficients()))
        solution, _ = ggx(inst, SolverConfig(C=2))
        assert 1 in solution.selected

    @pytest.mark.parametrize("q, Y, model", [
        ([1.0], [[1e308, 1e308]], MultinomialLogit()),
        ([1.0], [[1e200, 1.0]], NestedLogit([0, 0], [2.0])),
        ([2.0], [[1e308]], MultinomialLogit()),
        ([1e308, 1e308], [[1.0], [1.0]], MultinomialLogit()),
    ])
    def test_overflowing_value_is_rejected(self, q, Y, model):
        with pytest.raises(ValueError, match="overflow"):
            Instance.from_arrays(q, Y, model)


# Every entry point that reads location indices, called with a list of them;
# objectives_with_swap reads one and gets the list's element.
INDEX_ENTRY_POINTS = {
    "reset": lambda inst, idx: IncrementalEvaluator(inst).reset(idx),
    "gains": lambda inst, idx: IncrementalEvaluator(inst).gains(idx),
    "objectives_with_swap": lambda inst, idx: IncrementalEvaluator(inst).objectives_with_swap(*idx),
    "objective": objective,
    "solve_subproblem": lambda inst, idx: solve_subproblem(np.ones(inst.m), idx, len(idx), 2),
    "brute_force_subproblem": lambda inst, idx: brute_force_subproblem(np.ones(inst.m), idx, len(idx), 2),
}
BAD_INDICES = {  # name: (indices into m = 6 locations, error, pattern ending its message)
    "float": ([1.0], TypeError, r"indices must be integers, got 1\.0$"),
    "np.float64": ([np.float64(1)], TypeError, r"indices must be integers, got np\.float64\(1\.0\)$"),
    "bool": ([True], TypeError, r"indices must be integers, got True$"),
    # an array is read through tolist(), a lone element as it is
    "np.bool-array": (np.array([True]), TypeError, r"indices must be integers, got (True|np\.True_)$"),
    "negative": ([-1], ValueError, r"index -1 lies outside \[0, 6\)$"),
    "m": ([6], ValueError, r"index 6 lies outside \[0, 6\)$"),
    "repeated": ([1, 1], ValueError, r"indices must be distinct$"),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in INDEX_ENTRY_POINTS for case in BAD_INDICES
    if (entry, case) != ("objectives_with_swap", "repeated")  # it reads a single index
])
def test_one_location_index_contract(rng, entry, case):
    # a cast would read 1.0 and True as location 1, and numpy would wrap -1 onto the last one
    idx, error, pattern = BAD_INDICES[case]
    inst = dense_random(rng, zones=5, m=6, nested=True)
    with pytest.raises(error, match=pattern):
        INDEX_ENTRY_POINTS[entry](inst, idx)


# Every count read outside SolverConfig and the subproblem, each called with the value under test
AUDITS = (check_submodularity, check_monotonicity, check_gradient, check_cpgf_contracts)
COUNT_ENTRY_POINTS = {
    "greedy-C": lambda inst, v: greedy(IncrementalEvaluator(inst), v),
    "brute_force_opt-C": brute_force_opt,
    **{f"{audit.__name__}-trials": audit for audit in AUDITS},
    **{f"{audit.__name__}-seed": lambda inst, v, audit=audit: audit(inst, 2, seed=v) for audit in AUDITS},
    "check_subproblem-trials": lambda inst, v: check_subproblem(v),
    "check_subproblem-seed": lambda inst, v: check_subproblem(2, seed=v),
    **{f"GeneratorParams-{name}": lambda inst, v, name=name: GeneratorParams(**{"zones": 3, "locations": 4, name: v})
       for name in ("zones", "locations", "competitors", "seed")},
    "MmnlParams-samples": lambda inst, v: MmnlParams(theta=1.0, samples=v),
    "MmnlParams-seed": lambda inst, v: MmnlParams(theta=1.0, samples=2, seed=v),
    "assign_nests-n_nests": lambda inst, v: assign_nests(5, v, [1.2]),
}
BAD_COUNTS = {  # name: (value, error, pattern ending its message)
    "bool": (True, TypeError, r"must be an integer, got True$"),
    "np.bool": (np.True_, TypeError, r"must be an integer, got (True|np\.True_)$"),
    "float": (1.0, TypeError, r"must be an integer, got 1\.0$"),
    "np.float64": (np.float64(1), TypeError, r"must be an integer, got np\.float64\(1\.0\)$"),
    "negative-seed": (-1, ValueError, r"seed must be >= 0$"),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in COUNT_ENTRY_POINTS for case in BAD_COUNTS
    if case != "negative-seed" or entry.endswith("-seed")
])
def test_one_count_contract(rng, entry, case):
    # operator.index(True) is 1, so a bool would run as a count of 1; a float would fail
    # deep inside, and a negative seed only in numpy, once the first number is drawn
    value, error, pattern = BAD_COUNTS[case]
    inst = dense_random(rng, zones=5, m=6, nested=True)
    with pytest.raises(error, match=pattern):
        COUNT_ENTRY_POINTS[entry](inst, value)


# Every real-valued parameter, each built with the value under test
REAL_ENTRY_POINTS = {
    "SolverConfig-time_budget": lambda v: SolverConfig(C=2, time_budget=v),
    **{f"GeneratorParams-{name}": lambda v, name=name: GeneratorParams(zones=3, locations=3, **{name: v})
       for name in ("alpha", "beta", "plane_side")},
    "MmnlParams-theta": lambda v: MmnlParams(theta=v, samples=2),
}
BAD_REALS = {  # name: (value, error, pattern ending its message)
    "bool": (True, TypeError, r"must be a real number, got True$"),
    "np.bool": (np.True_, TypeError, r"must be a real number, got (True|np\.True_)$"),
    "str": ("5", TypeError, r"must be a real number, got '5'$"),
    "zero": (0, ValueError, r"must be positive and finite$"),
    "negative": (-1.5, ValueError, r"must be positive and finite$"),
    "inf": (np.inf, ValueError, r"must be positive and finite$"),
    "nan": (np.nan, ValueError, r"must be positive and finite$"),
}


@pytest.mark.parametrize("case", BAD_REALS)
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_one_real_contract(entry, case):
    # a bool would run as 1.0, a string fail with a bare comparison error, and an
    # infinite time budget would be a second spelling of None
    value, error, pattern = BAD_REALS[case]
    with pytest.raises(error, match=f"{entry.split('-')[1]} {pattern}"):
        REAL_ENTRY_POINTS[entry](value)
    for good in (2, 0.5, np.float64(2.0), np.int64(3)):
        REAL_ENTRY_POINTS[entry](good)
