import numpy as np
import pytest

from maxcap import (
    IncrementalEvaluator,
    Instance,
    MultinomialLogit,
    Solution,
    Zone,
    marginal_gain,
    mask,
    objective,
    objective_gradient,
    objective_relaxed,
)
from conftest import dense_random, planar


@pytest.fixture
def one_zone():
    return Instance([Zone(1.0, [1.0, 1.0])], MultinomialLogit())


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
        inst = Instance([Zone(2.0, [1.0, 0.0]), Zone(3.0, [1.0, 2.0])], MultinomialLogit())
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


class TestMarginalGain:
    def test_from_empty(self, one_zone):
        assert marginal_gain(one_zone, [], 0) == pytest.approx(0.5, abs=1e-12)

    def test_second_addition(self, one_zone):
        assert marginal_gain(one_zone, [0], 1) == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_attraction_location(self):
        inst = Instance([Zone(1.0, [1.0, 0.0]), Zone(2.0, [3.0, 0.0])], MultinomialLogit())
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
            Instance([], MultinomialLogit())

    def test_mismatched_zone_widths(self):
        with pytest.raises(ValueError):
            Instance([Zone(1.0, [1.0, 2.0]), Zone(1.0, [1.0])], MultinomialLogit())

    def test_zone_validation(self):
        with pytest.raises(ValueError):
            Zone(0.0, [1.0])
        with pytest.raises(ValueError):
            Zone(1.0, [-1.0])
