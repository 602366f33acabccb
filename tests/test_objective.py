import importlib

import numpy as np
import pytest

from maxcap import (
    IncrementalEvaluator,
    Instance,
    MultinomialLogit,
    NestedLogit,
    Solution,
    SolverConfig,
    ggx,
    marginal_gain,
    mask,
    objective,
    objective_gradient,
    objective_relaxed,
)
from conftest import dense_random, planar


@pytest.fixture
def one_zone():
    return Instance.from_arrays([1.0], [[1.0, 1.0]], MultinomialLogit())


class TestMask:
    def test_partial(self):
        assert mask(np.array([1.0, 2.0, 3.0]), {0, 2}).tolist() == [1.0, 0.0, 3.0]

    def test_empty(self):
        assert mask(np.array([1.0, 2.0, 3.0]), set()).tolist() == [0.0, 0.0, 0.0]

    def test_identity(self):
        assert mask(np.array([1.0, 2.0, 3.0]), {0, 1, 2}).tolist() == [1.0, 2.0, 3.0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mask(np.array([1.0, 2.0]), {2})


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
            for bad in (np.full(9, 1.5), np.full((3, 9), 0.5) - np.eye(3, 9)):
                with pytest.raises(ValueError, match=r"^relaxation point entries must lie in \[0, 1\]$"):
                    fn(inst, bad)


class TestMarginalGain:
    def test_from_empty(self, one_zone):
        assert marginal_gain(one_zone, [], 0) == pytest.approx(0.5, abs=1e-12)

    def test_second_addition(self, one_zone):
        assert marginal_gain(one_zone, [0], 1) == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_attraction_location(self):
        inst = Instance.from_arrays([1.0, 2.0], [[1.0, 0.0], [3.0, 0.0]], MultinomialLogit())
        assert marginal_gain(inst, [0], 1) == 0.0

    def test_rejects_selected(self, one_zone):
        with pytest.raises(ValueError):
            marginal_gain(one_zone, [0], 0)

    def test_strictly_positive_with_attraction(self, rng):
        inst = planar(zones=10, m=8, seed=2)
        for _ in range(30):
            s = rng.choice(8, size=int(rng.integers(0, 8)), replace=False)
            j = int(rng.choice(np.setdiff1d(np.arange(8), s)))
            assert marginal_gain(inst, s, j) > 0.0


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
            d = ev.coefficients("gradient")
            assert d == pytest.approx(objective_gradient(inst, x), abs=1e-12)

    def test_marginal_coefficients(self, rng):
        inst = dense_random(rng, zones=6, m=8, nested=True)
        ev = IncrementalEvaluator(inst)
        s = [1, 4, 6]
        ev.reset(s)
        d = ev.coefficients("marginal")
        f = objective(inst, s)
        for j in range(8):
            if j in s:
                expected = f - objective(inst, sorted(set(s) - {j}))
            else:
                expected = marginal_gain(inst, s, j)
            assert d[j] == pytest.approx(expected, abs=1e-12)


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
