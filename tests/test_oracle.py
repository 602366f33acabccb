import importlib
import itertools
from fractions import Fraction

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
    objective,
)
from conftest import dense_random, planar

# the module itself: the package binds maxcap.oracle's functions by name
ORACLE_MODULE = importlib.import_module("maxcap.oracle")


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


class NaNLogit(MultinomialLogit):
    """A broken model whose G is NaN everywhere."""

    def value_rows(self, y_rows):
        return np.full(len(y_rows), np.nan)


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

    @pytest.mark.parametrize("per_call", [3, 4096])
    def test_duplicated_columns_keep_the_first_optimum(self, rng, monkeypatch, per_call):
        # column 0 dominates everywhere and repeats as columns 2 and 5, so the
        # pairs {0, 2}, {0, 5} and {2, 5} tie exactly for the optimum; with 3
        # subsets per call the ties also straddle chunks
        base = rng.uniform(0.5, 2.0, (6, 3)) * [10.0, 3.0, 0.1]
        y = base[:, [0, 1, 0, 1, 2, 0, 1]]
        inst = Instance.from_arrays(rng.uniform(0.5, 2.0, 6), y, MultinomialLogit())
        monkeypatch.setattr(ORACLE_MODULE, "_SUBSETS_PER_CALL", per_call)
        sol = brute_force_opt(inst, 2)
        assert sol.selected == (0, 2)
        assert objective(inst, (0, 5)) == objective(inst, (2, 5)) == sol.objective

    @pytest.mark.parametrize("nested", [False, True])
    def test_matches_subset_by_subset_enumeration(self, rng, monkeypatch, nested):
        monkeypatch.setattr(ORACLE_MODULE, "_SUBSETS_PER_CALL", 7)
        for _ in range(5):
            inst = dense_random(rng, zones=5, m=8, nested=nested)
            for C in (1, 3, 8):
                best = max(itertools.combinations(range(8), C), key=lambda s: objective(inst, s))
                sol = brute_force_opt(inst, C)
                assert sol.selected == best and sol.objective == objective(inst, best)


def _rational_subproblem(d, incumbent, C, delta):
    """The coefficient subproblem by enumeration with Fraction scores.

    Same objective and tie rule as brute_force_subproblem: fewest swaps, then
    removals of the smallest coefficients, then additions of the largest.
    """
    inside = sorted(incumbent)
    outside = [j for j in range(len(d)) if j not in incumbent]
    exact = [Fraction(float(v)) for v in d]
    best = None
    for t in range(1, delta // 2 + 1):
        for removed in itertools.combinations(inside, t):
            for added in itertools.combinations(outside, t):
                score = sum(exact[a] for a in added) - sum(exact[r] for r in removed)
                key = (-score, t, sorted((d[r], r) for r in removed), sorted((-d[a], a) for a in added))
                if best is None or key < best[0]:
                    best = (key, frozenset(incumbent).difference(removed).union(added))
    return best[1]


class TestBruteForceSubproblem:
    def test_hand_example(self):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        assert brute_force_subproblem(d, {0, 1}, 2, 2) == frozenset({0, 2})

    @pytest.mark.parametrize("incumbent, C, delta", [([0.5, 1], 2, 2), ([0, 1], 2.0, 2), ([0, 1], 2, 2.0)])
    def test_non_integer_arguments_rejected(self, incumbent, C, delta):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        with pytest.raises(TypeError):
            brute_force_subproblem(d, incumbent, C, delta)
        assert brute_force_subproblem(d, np.array([0, 1]), np.int64(2), 2) == frozenset({0, 2})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("delta", [2, 4])
    def test_non_finite_coefficients_rejected(self, bad, delta):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            brute_force_subproblem(np.array([bad, 1.0, 2.0, 3.0]), {0, 1}, 2, delta)

    @pytest.mark.parametrize("incumbent, C", [([0, 0], 2), ([3, 1, 3], 3)])
    def test_duplicate_incumbent_rejected(self, incumbent, C):
        d = np.array([0.1, 0.2, 0.3, 0.9, 0.8])
        with pytest.raises(ValueError, match="^incumbent indices must be distinct$"):
            brute_force_subproblem(d, incumbent, C, 2)

    def test_no_outside_locations(self):
        with pytest.raises(ValueError):
            brute_force_subproblem(np.array([1.0, 2.0]), {0, 1}, 2, 2)

    def test_fast_solver_agreement(self):
        report = check_subproblem(300, seed=11)
        assert report.passed
        assert report.trials == 300

    @pytest.mark.parametrize("kind", ["tenths", "zeros", "subnormal", "large"])
    def test_matches_rational_enumeration_on_ties(self, rng, kind):
        for _ in range(60):
            m = int(rng.integers(4, 11))
            C = int(rng.integers(1, m))
            half = int(rng.integers(1, min(C, m - C) + 1))
            d = np.round(rng.uniform(0.0, 1.0, m), 1)
            if kind == "zeros":
                d[rng.random(m) < 0.5] = 0.0
            elif kind == "subnormal":
                d[rng.random(m) < 0.5] = 5e-324
            elif kind == "large":
                d = d * 10.0 + rng.choice([1.0, 2.5, 1e6], m)
            incumbent = frozenset(rng.choice(m, C, replace=False).tolist())
            assert brute_force_subproblem(d, incumbent, C, 2 * half) == \
                _rational_subproblem(d, incumbent, C, 2 * half)


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

    def test_instance_audits_take_seed_third(self):
        inst = planar(zones=10, m=8, seed=8)
        for audit in (check_submodularity, check_monotonicity, check_gradient, check_cpgf_contracts):
            report = audit(inst, 20, 3)
            assert report == audit(inst, 20, seed=3) and report.seed == 3

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

    def test_cpgf_contracts_fail_on_corrupted_model(self, rng):
        # mu < 1 makes dG infinite at a closed location, so y * dG is NaN there
        inst = Instance.from_arrays(np.ones(6), [rng.uniform(0, 2, 9) for _ in range(6)],
                                    corrupted_nested_model())
        with np.errstate(divide="ignore", invalid="ignore"):
            report = check_cpgf_contracts(inst, 200, seed=3)
        assert not report.passed
        assert np.isnan(report.worst_violation)

    @pytest.mark.parametrize("check", [check_submodularity, check_monotonicity,
                                       check_gradient, check_cpgf_contracts])
    def test_nan_is_a_violation(self, rng, check):
        # a NaN excess compares False with the tolerance; it must still fail
        inst = Instance.from_arrays(np.ones(4), rng.uniform(0.5, 2.0, (4, 6)), MultinomialLogit())
        inst.model = NaNLogit()  # behind the constructor, which rejects a NaN G
        report = check(inst, 25, seed=0)
        assert report.violations == 25
        assert np.isnan(report.worst_violation)
        assert "FAIL" in str(report)

    def test_flat_objective_reports_a_positive_zero(self):
        # every gain is 0.0, so every excess -(f(S + j) - f(S)) is -0.0
        inst = Instance.from_arrays(np.ones(3), np.zeros((3, 5)), MultinomialLogit())
        report = check_monotonicity(inst, 10, seed=0)
        assert report.passed
        assert "worst=0.000e+00" in str(report)

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
        for check in (check_submodularity, check_monotonicity, check_gradient, check_cpgf_contracts):
            with pytest.raises(ValueError, match="^trials must be >= 1$"):
                check(inst, 0)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
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
