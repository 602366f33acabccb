import numpy as np
import pytest

from maxcap import (
    Instance,
    MultinomialLogit,
    NestedLogit,
    PropertyReport,
    brute_force_opt,
    brute_force_subproblem,
    check_cpgf_contracts,
    check_gradient,
    check_monotonicity,
    check_submodularity,
    check_subproblem,
)
from conftest import dense_random, planar


def corrupted_nested_model(m=9, mu_value=0.5):
    """A nested model violating the mu >= 1 invariant, built behind the constructor."""
    model = NestedLogit.__new__(NestedLogit)
    nest_of = np.arange(m) % 3
    model.nest_of = nest_of
    model.mu = np.full(3, mu_value)
    model.n_nests = 3
    model.m = m
    model.nest_cols = tuple(np.flatnonzero(nest_of == l) for l in range(3))
    return model


class TestBruteForceOpt:
    def test_single_location(self):
        inst = Instance.from_arrays([1.0], [[3.0, 2.0, 1.0]], MultinomialLogit())
        sol = brute_force_opt(inst, 1)
        assert sol.selected == (0,)
        assert sol.objective == pytest.approx(0.75, abs=1e-12)

    def test_full_set(self):
        inst = planar(zones=5, m=4, seed=0)
        assert brute_force_opt(inst, 4).selected == (0, 1, 2, 3)

    def test_symmetric_tie_break(self):
        inst = Instance.from_arrays([1.0], [[2.0, 2.0, 2.0, 2.0]], MultinomialLogit())
        assert brute_force_opt(inst, 2).selected == (0, 1)

    def test_enumeration_guard(self):
        inst = Instance.from_arrays([1.0], [np.ones(40)], MultinomialLogit())
        with pytest.raises(ValueError, match=r"137846528820"):
            brute_force_opt(inst, 20)


class TestBruteForceSubproblem:
    def test_hand_example(self):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        assert brute_force_subproblem(d, {0, 1}, 2, 2) == frozenset({0, 2})

    def test_no_outside_locations(self):
        with pytest.raises(ValueError):
            brute_force_subproblem(np.array([1.0, 2.0]), {0, 1}, 2, 2)

    def test_fast_solver_agreement(self):
        report = check_subproblem(300, seed=11)
        assert report.passed
        assert report.trials == 300


class TestChecks:
    @pytest.mark.parametrize("nested", [False, True])
    def test_submodularity_clean(self, nested):
        report = check_submodularity(planar(seed=8, nested=nested), 400, seed=1)
        assert report.passed
        assert report.name == "submodularity"

    @pytest.mark.parametrize("nested", [False, True])
    def test_monotonicity_clean(self, nested):
        assert check_monotonicity(planar(seed=8, nested=nested), 400, seed=1).passed

    def test_monotonicity_zero_attraction_location_is_not_a_violation(self):
        y = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 1.0]])
        inst = Instance.from_arrays([1.0, 1.0], y, MultinomialLogit())
        assert check_monotonicity(inst, 200, seed=0).passed

    @pytest.mark.parametrize("nested", [False, True])
    def test_gradient_clean(self, nested):
        assert check_gradient(planar(zones=10, m=8, seed=8, nested=nested), 30, seed=1).passed

    def test_gradient_step_validation(self):
        inst = planar(zones=5, m=4, seed=0)
        with pytest.raises(ValueError):
            check_gradient(inst, 10, step=0.5)

    def test_gradient_with_all_zero_attraction_column(self, rng):
        y = rng.uniform(0.5, 2.0, (6, 5))
        y[:, 2] = 0.0  # closed everywhere: coefficient and difference are both 0
        inst = Instance.from_arrays(np.ones(len(y)), y, MultinomialLogit())
        assert check_gradient(inst, 20, seed=4).passed

    @pytest.mark.parametrize("nested", [False, True])
    def test_cpgf_contracts_clean(self, nested):
        assert check_cpgf_contracts(planar(seed=8, nested=nested), 400, seed=1).passed

    def test_corrupted_model_reports_without_crash(self, rng):
        inst = Instance.from_arrays(np.ones(6), [rng.uniform(0, 2, 9) for _ in range(6)],
                                    corrupted_nested_model())
        report = check_submodularity(inst, 500, seed=7)
        assert report.trials == 500
        assert report.violations > 0  # informational: mu < 1 breaks diminishing returns

    def test_determinism(self, rng):
        inst = dense_random(rng, zones=6, m=8, nested=True)
        a = check_submodularity(inst, 150, seed=42)
        b = check_submodularity(inst, 150, seed=42)
        assert a == b
        c = check_monotonicity(inst, 150, seed=42)
        d = check_monotonicity(inst, 150, seed=42)
        assert c == d

    def test_trial_count_validation(self):
        inst = planar(zones=5, m=4, seed=0)
        with pytest.raises(ValueError):
            check_submodularity(inst, 0)
        with pytest.raises(ValueError):
            check_subproblem(0)


class TestPropertyReport:
    def test_invariant(self):
        with pytest.raises(ValueError):
            PropertyReport("x", trials=5, violations=6, worst_violation=0.0, seed=0)

    def test_str_shows_status(self):
        good = PropertyReport("x", 10, 0, 0.0, 3)
        bad = PropertyReport("x", 10, 2, 0.5, 3)
        assert "[PASS]" in str(good)
        assert "[FAIL]" in str(bad)
