import sys
import time

import numpy as np
import pytest

import maxcap.solver
from maxcap import (
    IncrementalEvaluator,
    Instance,
    MultinomialLogit,
    NestedLogit,
    Phase,
    RunReport,
    Solution,
    SolverConfig,
    brute_force_opt,
    brute_force_subproblem,
    ggx,
    greedy,
    objective,
    solve_subproblem,
)
from conftest import dense_random, planar
from maxcap.solver import _best_swap, _climb, _Deadline, _linear_model_move


def single_zone(y):
    return Instance.from_arrays([1.0], [y], MultinomialLogit())


def climb(inst, start, cfg, propose):
    """One local-search phase from ``start`` on a fresh evaluator: (solution, iterations)."""
    return _climb(IncrementalEvaluator(inst), start, cfg, _Deadline(cfg.time_budget), propose)


def eager_greedy(inst, C):
    """The warm-up without lazy bounds: one full additions scan per step."""
    ev = IncrementalEvaluator(inst)
    chosen = []
    for _ in range(C):
        chosen.append(int(np.argmax(ev.objectives_with_additions())))
        ev.reset(chosen)
    return tuple(sorted(chosen))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(C=0)
        with pytest.raises(ValueError):
            SolverConfig(C=2, delta=3)
        with pytest.raises(ValueError):
            SolverConfig(C=2, delta=0)
        with pytest.raises(ValueError):
            SolverConfig(C=2, coef_mode="newton")
        with pytest.raises(ValueError):
            SolverConfig(C=2, time_budget=0.0)

    def test_effective_delta_clamps(self):
        assert SolverConfig(C=3, delta=10).effective_delta(m=20) == 6
        assert SolverConfig(C=18, delta=10).effective_delta(m=20) == 4
        assert SolverConfig(C=5, delta=4).effective_delta(m=20) == 4
        assert SolverConfig(C=20, delta=4).effective_delta(m=20) == 0

    def test_report_rejects_decreasing_trajectory(self):
        with pytest.raises(ValueError):
            RunReport(tuple(Phase(name, f, 0, 0.0) for name, f in zip("abc", (2.0, 1.0, 1.0))))


class TestGreedy:
    def test_picks_best_pair(self):
        inst = single_zone([3.0, 2.0, 1.0])
        sol = greedy(inst, 2)
        assert sol.selected == (0, 1)
        # brute force over all pairs agrees
        assert sol.selected == brute_force_opt(inst, 2).selected
        assert sol.objective == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_full_cardinality(self):
        inst = planar(zones=8, m=6, seed=1)
        assert greedy(inst, 6).selected == tuple(range(6))

    def test_tie_break_smallest_index(self):
        inst = single_zone([1.0, 1.0, 1.0, 1.0])
        assert greedy(inst, 2).selected == (0, 1)

    def test_invalid_cardinality(self):
        inst = single_zone([1.0, 2.0])
        with pytest.raises(ValueError):
            greedy(inst, 0)
        with pytest.raises(ValueError):
            greedy(inst, 3)

    def test_matches_marginal_argmax_trajectory(self, rng):
        # each step must add the argmax marginal gain over the remaining locations
        inst = dense_random(rng, zones=7, m=9, nested=True)
        sol = greedy(inst, 4)
        s = []
        for _ in range(4):
            gains = [
                (objective(inst, sorted(s + [j])), j)
                for j in range(9)
                if j not in s
            ]
            best = max(gains, key=lambda g: (g[0], -g[1]))
            s.append(best[1])
        assert sol.selected == tuple(sorted(s))


class TestLazyGreedy:
    @pytest.mark.parametrize("nested", [False, True, "interleaved"])
    def test_matches_eager_greedy(self, rng, nested):
        for _ in range(10):
            inst = dense_random(rng, zones=40, m=24, nested=nested, zero_frac=0.6)
            for C in (1, 5, 12, 24):
                assert greedy(inst, C).selected == eager_greedy(inst, C)

    @pytest.mark.parametrize("nested", [False, True])
    def test_duplicated_columns_tie_to_smallest_index(self, rng, nested):
        base = dense_random(rng, zones=30, m=8, nested=False)
        Y = base.Y[:, [0, 1, 0, 2, 1, 3, 0, 4, 5, 2, 6, 7]]
        model = NestedLogit([j % 3 for j in range(12)], (1.0, 1.3, 1.3)) if nested else MultinomialLogit()
        inst = Instance.from_arrays(base.q, Y, model)
        for C in range(1, 13):
            assert greedy(inst, C).selected == eager_greedy(inst, C)
        assert greedy(single_zone([2.0, 1.0, 2.0, 1.0, 2.0]), 4).selected == (0, 1, 2, 4)

    @pytest.mark.parametrize("nested", [False, True])
    def test_all_zero_column(self, rng, nested):
        base = dense_random(rng, zones=20, m=10, nested=nested)
        Y = base.Y.copy()
        Y[:, 4] = 0.0
        inst = Instance.from_arrays(base.q, Y, base.model)
        for C in (3, 9, 10):
            assert greedy(inst, C).selected == eager_greedy(inst, C)
        assert 4 not in greedy(inst, 9).selected

    @pytest.mark.parametrize("nested", [False, True])
    def test_clamp_floor_instance(self, nested):
        # beta 5 clamps most utilities to the floor, so most gains are tiny but nonzero
        inst = planar(zones=300, m=60, beta=5.0, seed=4, nested=nested)
        for C in (10, 30, 60):
            assert greedy(inst, C).selected == eager_greedy(inst, C)

    def test_prices_few_columns(self, monkeypatch):
        priced = []

        class Counting(maxcap.solver.IncrementalEvaluator):
            def gains(self, cols):
                priced.append(len(cols))
                return super().gains(cols)

            def objectives_with_additions(self):
                priced.append(self.m)
                return super().objectives_with_additions()

        monkeypatch.setattr(maxcap.solver, "IncrementalEvaluator", Counting)
        inst = planar(zones=300, m=60, beta=5.0, seed=2)
        C = 10
        assert greedy(inst, C).selected == eager_greedy(inst, C)
        assert sum(priced) < C * inst.m / 2


class TestSubproblem:
    def test_single_swap_region(self):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        assert solve_subproblem(d, {0, 1}, 2, 2) == frozenset({0, 2})

    def test_wider_region_prefers_better_prefix(self):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        # gamma(1) = 3 beats gamma(2) = 0, so only one swap happens
        assert solve_subproblem(d, {0, 1}, 2, 4) == frozenset({0, 2})

    def test_all_tied_coefficients(self):
        # gamma(1) = 0: a swap is still proposed, picking the smallest outside index
        assert solve_subproblem(np.array([1.0, 1.0, 1.0]), {0}, 1, 2) == frozenset({1})

    def test_always_moves(self, rng):
        for _ in range(50):
            m = int(rng.integers(4, 12))
            C = int(rng.integers(1, m))
            incumbent = frozenset(int(j) for j in rng.choice(m, C, replace=False))
            out = solve_subproblem(rng.uniform(0, 1, m), incumbent, C, 2)
            assert len(out) == C
            assert len(out.symmetric_difference(incumbent)) == 2

    def test_validation(self):
        d = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            solve_subproblem(d, {0}, 1, 3)  # odd delta
        with pytest.raises(ValueError):
            solve_subproblem(d, {0, 1}, 2, 4)  # delta/2 exceeds m - C
        with pytest.raises(ValueError):
            solve_subproblem(d, {0}, 2, 2)  # wrong incumbent size
        with pytest.raises(ValueError):
            solve_subproblem(np.array([1.0, -0.5, 3.0]), {0}, 1, 2)

    def test_matches_enumeration(self, rng):
        for _ in range(300):
            m = int(rng.integers(4, 13))
            C = int(rng.integers(1, m))
            half = int(rng.integers(1, min(C, m - C) + 1))
            d = rng.uniform(0, 1, m)
            if rng.random() < 0.3:
                d = np.round(d, 1)
            incumbent = frozenset(int(j) for j in rng.choice(m, C, replace=False))
            assert solve_subproblem(d, incumbent, C, 2 * half) == brute_force_subproblem(
                d, incumbent, C, 2 * half
            )

    def test_matches_enumeration_on_every_feasible_region(self, rng):
        # systematic sweep: every (C, delta) combination for small m
        for m in range(4, 9):
            for C in range(1, m):
                for half in range(1, min(C, m - C) + 1):
                    for _ in range(3):
                        d = rng.uniform(0, 1, m)
                        incumbent = frozenset(int(j) for j in rng.choice(m, C, replace=False))
                        fast = solve_subproblem(d, incumbent, C, 2 * half)
                        assert fast == brute_force_subproblem(d, incumbent, C, 2 * half)

    def test_runtime_scales_linearly_in_m(self):
        # O(m * delta / 2): 10x the locations should cost far less than 100x
        def best_of(m):
            d = np.random.default_rng(1).uniform(0, 1, m)
            incumbent = frozenset(range(50))
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                solve_subproblem(d, incumbent, 50, 4)
                times.append(time.perf_counter() - t0)
            return min(times)

        small, large = best_of(50_000), best_of(500_000)
        assert large <= 60 * small + 0.02


class TestGradientLocalSearch:
    def test_fixed_point_at_optimum(self, rng):
        inst = dense_random(rng, zones=6, m=8)
        opt = brute_force_opt(inst, 3)
        out = climb(inst, opt, SolverConfig(C=3), _linear_model_move)[0]
        assert out.selected == opt.selected

    def test_improves_suboptimal_greedy(self):
        # seeds where the warm start is provably not optimal
        inst = dense_random(np.random.default_rng(4), zones=6, m=9)
        warm = greedy(inst, 3)
        opt = brute_force_opt(inst, 3)
        assert warm.objective < opt.objective - 1e-9
        out = climb(inst, warm, SolverConfig(C=3), _linear_model_move)[0]
        assert out.objective >= warm.objective

    def test_single_swap_steps_with_delta_two(self, rng):
        inst = dense_random(rng, zones=6, m=9, nested=True)
        warm = greedy(inst, 3)
        out = climb(inst, warm, SolverConfig(C=3, delta=2), _linear_model_move)[0]
        assert len(out.selected) == 3
        assert out.objective >= warm.objective

    def test_rejects_wrong_start_size(self):
        inst = single_zone([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            climb(inst, Solution((0,)), SolverConfig(C=2), _linear_model_move)

    @pytest.mark.parametrize("mode", ["gradient", "marginal"])
    def test_coefficient_modes_never_hurt(self, rng, mode):
        inst = dense_random(rng, zones=7, m=10, nested=True)
        warm = greedy(inst, 3)
        out = climb(inst, warm, SolverConfig(C=3, coef_mode=mode), _linear_model_move)[0]
        assert out.objective >= warm.objective - 1e-12


class TestExchange:
    def test_fixed_point_at_optimum(self, rng):
        inst = dense_random(rng, zones=6, m=8, nested=True)
        opt = brute_force_opt(inst, 3)
        out = climb(inst, opt, SolverConfig(C=3), _best_swap)[0]
        assert out.selected == opt.selected

    def test_hand_example(self):
        inst = single_zone([3.0, 2.0, 1.0])
        out = climb(inst, Solution((1, 2)), SolverConfig(C=2), _best_swap)[0]
        assert out.selected == (0, 1)
        assert out.objective == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_result_is_one_swap_local_optimum(self, rng):
        for trial in range(10):
            inst = dense_random(rng, zones=6, m=10, nested=trial % 2 == 1)
            out = climb(inst, greedy(inst, 3), SolverConfig(C=3), _best_swap)[0]
            f = out.objective
            selected = set(out.selected)
            for j in selected:
                for t in set(range(10)) - selected:
                    swapped = sorted(selected - {j} | {t})
                    assert objective(inst, swapped) <= f + 1e-12


class TestGgx:
    def test_never_below_greedy_and_often_optimal(self, rng):
        n_opt = 0
        for trial in range(30):
            inst = dense_random(rng, zones=6, m=9, nested=trial % 2 == 1)
            warm = greedy(inst, 3)
            sol, report = ggx(inst, SolverConfig(C=3))
            assert sol.objective >= warm.objective - 1e-12
            f1, f2, f3 = report.phase_objectives
            assert f1 <= f2 <= f3
            if abs(sol.objective - brute_force_opt(inst, 3).objective) <= 1e-9:
                n_opt += 1
        assert n_opt >= 24

    def test_recovers_optimum_lost_by_greedy(self):
        inst = dense_random(np.random.default_rng(4), zones=6, m=9)
        assert greedy(inst, 3).objective == pytest.approx(8.160094007703, abs=1e-9)
        sol, _ = ggx(inst, SolverConfig(C=3))
        assert sol.objective == pytest.approx(8.184312653731, abs=1e-9)
        assert sol.selected == (3, 4, 5)

    def test_recovers_optimum_nested(self):
        inst = dense_random(np.random.default_rng(5), zones=6, m=9, nested=True)
        sol, _ = ggx(inst, SolverConfig(C=3))
        assert sol.selected == (0, 1, 6)
        assert sol.objective == pytest.approx(5.852105707580, abs=1e-9)

    def test_gh_runs_the_warm_up_alone(self, rng):
        inst = dense_random(rng, zones=8, m=10, nested=True)
        sol, report = ggx(inst, SolverConfig(C=4, algo="gh"))
        assert sol == greedy(inst, 4)
        assert [(p.name, p.objective, p.iterations) for p in report.phases] == [
            ("greedy", sol.objective, 4)]
        with pytest.raises(ValueError):
            SolverConfig(C=4, algo="bf")

    def test_full_cardinality_phases_are_noops(self):
        inst = planar(zones=10, m=6, seed=2)
        sol, report = ggx(inst, SolverConfig(C=6))
        assert sol.selected == tuple(range(6))
        assert report.phases[1].iterations == 0
        assert report.phases[2].iterations == 0
        f1, f2, f3 = report.phase_objectives
        assert f1 == f2 == f3

    def test_unit_mu_nested_matches_mnl(self):
        params = dict(zones=12, m=10, seed=9)
        mnl_inst = planar(**params)
        nested_inst = Instance.from_arrays(mnl_inst.q, mnl_inst.Y,
                                           NestedLogit([i % 2 for i in range(10)], [1.0, 1.0]))
        cfg = SolverConfig(C=4)
        a, _ = ggx(mnl_inst, cfg)
        b, _ = ggx(nested_inst, cfg)
        assert a.selected == b.selected
        assert a.objective == pytest.approx(b.objective, abs=1e-12)

    def test_deterministic(self, rng):
        inst = dense_random(rng, zones=8, m=10, nested=True)
        runs = [ggx(inst, SolverConfig(C=4)) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].phase_objectives == runs[1][1].phase_objectives

    def test_cached_objective_matches_canonical_evaluation(self, rng):
        inst = dense_random(rng, zones=7, m=10, nested=True)
        for sol in (greedy(inst, 3), ggx(inst, SolverConfig(C=3))[0]):
            assert sol.objective == objective(inst, sol.selected)

    def test_tiny_time_budget_still_returns_valid_solution(self):
        inst = planar(zones=20, m=12, seed=6, nested=True)
        sol, report = ggx(inst, SolverConfig(C=4, time_budget=1e-9))
        assert len(sol.selected) == 4
        assert report.phases[1].iterations == report.phases[2].iterations == 0
        f1, f2, f3 = report.phase_objectives
        assert f1 <= f2 <= f3

    def test_local_search_phases_share_one_evaluator(self, rng, monkeypatch):
        built = []

        class Counting(maxcap.solver.IncrementalEvaluator):
            def __init__(self, inst):
                built.append(inst)
                super().__init__(inst)

        monkeypatch.setattr(maxcap.solver, "IncrementalEvaluator", Counting)
        inst = dense_random(rng, zones=8, m=10, nested=True)
        _, report = ggx(inst, SolverConfig(C=4))
        assert [p.name for p in report.phases] == ["greedy", "gradient", "exchange"]
        assert len(built) == 2  # greedy's own, then one shared by gradient and exchange

    def test_greedy_and_ggx_never_reach_the_oracle_kernel(self, rng, monkeypatch):
        def refuse(inst, rows):
            raise AssertionError("the solver priced through the oracle")

        # sys.modules: the package attribute maxcap.objective is the function
        monkeypatch.setattr(sys.modules["maxcap.objective"], "_values", refuse)
        with pytest.raises(AssertionError):
            objective(planar(zones=5, m=4), (0,))
        for nested in (False, True):
            inst = dense_random(rng, zones=12, m=10, nested=nested)
            warm = greedy(inst, 4)
            sol, report = ggx(inst, SolverConfig(C=4))
            assert report.phases[0].objective == warm.objective
            assert sol.objective >= warm.objective

    def test_each_proposal_costs_one_reset(self, rng, monkeypatch):
        resets = []

        class Counting(IncrementalEvaluator):
            def reset(self, selected):
                resets.append(self)
                super().reset(selected)

        monkeypatch.setattr(maxcap.solver, "IncrementalEvaluator", Counting)
        for nested in (False, True):
            inst = dense_random(rng, zones=12, m=10, nested=nested)
            start = Solution((0, 1, 2, 3))  # a poor start, so exchange takes several steps
            for propose in (_linear_model_move, _best_swap):
                ev = Counting(inst)
                resets.clear()
                _, iterations = _climb(ev, start, SolverConfig(C=4), _Deadline(None), propose)
                assert len(resets) == 1 + iterations  # the start, then one per proposal
            assert iterations >= 2
            resets.clear()
            _, report = ggx(inst, SolverConfig(C=4))
            shared = resets[-1]
            # construction, each phase's start, then one per proposal
            assert resets.count(shared) == 3 + report.phases[1].iterations + report.phases[2].iterations

    def test_reported_objectives_are_the_evaluators_values_mnl(self, rng):
        for trial in range(4):
            inst = dense_random(rng, zones=40, m=30, zero_frac=0.1)
            cfg = SolverConfig(C=6)
            sol, report = ggx(inst, cfg)
            warm = greedy(inst, cfg.C)
            mid, _ = climb(inst, warm, cfg, _linear_model_move)
            assert mid.objective == report.phases[1].objective
            for s, f in zip((warm, mid, sol), report.phase_objectives):
                ev = IncrementalEvaluator(inst)
                ev.reset(s.selected)
                assert f == ev.current_objective()
                assert f == pytest.approx(objective(inst, s.selected), rel=1e-15, abs=0)
            assert sol.objective == report.phases[2].objective

    def test_rejects_oversized_cardinality(self):
        inst = single_zone([1.0, 2.0])
        with pytest.raises(ValueError):
            ggx(inst, SolverConfig(C=3))
