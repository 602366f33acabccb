import re
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
    objective,
    solve_subproblem,
)
from maxcap.objective import improves
from conftest import dense_random, planar
from maxcap.solver import _best_swap, _climb, _Deadline, _linear_model_move, greedy


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


def dense_best_swap(ev, current, _cfg):
    """Phase 3's proposal without bounds: one swap scan per selected location."""
    best_val, best_pair = -np.inf, None
    for j in sorted(current):  # ascending: the first strict maximum is the smallest (j, t) pair
        vals = ev.objectives_with_swap(j)
        t = int(np.argmax(vals))
        if vals[t] > best_val:
            best_val, best_pair = float(vals[t]), (j, t)
    j, t = best_pair
    return current - {j} | {t}


@pytest.mark.parametrize("call", [
    lambda: SolverConfig(C=True),
    lambda: SolverConfig(C=3, delta=True),
    lambda: SolverConfig(C=np.True_),
    lambda: Solution((False, True)),
    lambda: solve_subproblem(np.ones(4), [0], True, 2),
    lambda: brute_force_subproblem(np.ones(4), [0], True, 2),
    lambda: brute_force_subproblem(np.ones(4), [0], 1, True),
], ids=["config-C", "config-delta", "config-np.bool", "solution", "subproblem-C",
        "brute-force-C", "brute-force-delta"])
def test_bools_are_not_counts(call):
    # operator.index(True) is 1, so each of these once ran with a count or an index of 1
    with pytest.raises(TypeError, match="must be an integer, got (np\\.)?(True|False|True_)$"):
        call()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(C=0)
        with pytest.raises(ValueError):
            SolverConfig(C=2, delta=3)
        with pytest.raises(ValueError):
            SolverConfig(C=2, delta=0)
        with pytest.raises(ValueError):
            SolverConfig(C=2, time_budget=0.0)

    @pytest.mark.parametrize("kwargs", [{"C": 2.5}, {"C": 2.0}, {"C": 2, "delta": 4.0}])
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(TypeError):
            SolverConfig(**kwargs)
        assert SolverConfig(C=np.int64(2), delta=np.int64(4)).effective_delta(m=10) == 4

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
        sol = greedy(IncrementalEvaluator(inst), 2)
        assert sol.selected == (0, 1)
        # brute force over all pairs agrees
        assert sol.selected == brute_force_opt(inst, 2).selected
        assert sol.objective == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_full_cardinality(self):
        inst = planar(zones=8, m=6, seed=1)
        assert greedy(IncrementalEvaluator(inst), 6).selected == tuple(range(6))

    def test_tie_break_smallest_index(self):
        inst = single_zone([1.0, 1.0, 1.0, 1.0])
        assert greedy(IncrementalEvaluator(inst), 2).selected == (0, 1)

    def test_invalid_cardinality(self):
        inst = single_zone([1.0, 2.0])
        with pytest.raises(ValueError):
            greedy(IncrementalEvaluator(inst), 0)
        with pytest.raises(ValueError):
            greedy(IncrementalEvaluator(inst), 3)

    def test_matches_marginal_argmax_trajectory(self, rng):
        # each step must add the argmax marginal gain over the remaining locations
        inst = dense_random(rng, zones=7, m=9, nested=True)
        sol = greedy(IncrementalEvaluator(inst), 4)
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
                assert greedy(IncrementalEvaluator(inst), C).selected == eager_greedy(inst, C)

    @pytest.mark.parametrize("nested", [False, True])
    def test_duplicated_columns_tie_to_smallest_index(self, rng, nested):
        base = dense_random(rng, zones=30, m=8, nested=False)
        Y = base.Y[:, [0, 1, 0, 2, 1, 3, 0, 4, 5, 2, 6, 7]]
        model = NestedLogit([j % 3 for j in range(12)], (1.0, 1.3, 1.3)) if nested else MultinomialLogit()
        inst = Instance.from_arrays(base.q, Y, model)
        for C in range(1, 13):
            assert greedy(IncrementalEvaluator(inst), C).selected == eager_greedy(inst, C)
        assert greedy(IncrementalEvaluator(single_zone([2.0, 1.0, 2.0, 1.0, 2.0])), 4).selected == (0, 1, 2, 4)

    @pytest.mark.parametrize("nested", [False, True])
    def test_all_zero_column(self, rng, nested):
        base = dense_random(rng, zones=20, m=10, nested=nested)
        Y = base.Y.copy()
        Y[:, 4] = 0.0
        inst = Instance.from_arrays(base.q, Y, base.model)
        for C in (3, 9, 10):
            assert greedy(IncrementalEvaluator(inst), C).selected == eager_greedy(inst, C)
        assert 4 not in greedy(IncrementalEvaluator(inst), 9).selected

    @pytest.mark.parametrize("nested", [False, True])
    def test_clamp_floor_instance(self, nested):
        # beta 5 clamps most utilities to the floor, so most gains are tiny but nonzero
        inst = planar(zones=300, m=60, beta=5.0, seed=4, nested=nested)
        for C in (10, 30, 60):
            assert greedy(IncrementalEvaluator(inst), C).selected == eager_greedy(inst, C)

    def test_prices_few_columns(self):
        priced = []

        class Counting(IncrementalEvaluator):
            def gains(self, cols):
                priced.append(len(cols))
                return super().gains(cols)

            def objectives_with_additions(self):
                priced.append(self.m)
                return super().objectives_with_additions()

        inst = planar(zones=300, m=60, beta=5.0, seed=2)
        C = 10
        assert greedy(Counting(inst), C).selected == eager_greedy(inst, C)
        assert sum(priced) < C * inst.m / 2


class TestSubproblem:
    def test_single_swap_region(self):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        assert solve_subproblem(d, {0, 1}, 2, 2) == frozenset({0, 2})

    @pytest.mark.parametrize("incumbent, C, delta", [([0.5, 1], 2, 2), ([0, 1], 2.0, 2), ([0, 1], 2, 2.0)])
    def test_non_integer_arguments_rejected(self, incumbent, C, delta):
        d = np.array([5.0, 1.0, 4.0, 2.0])
        with pytest.raises(TypeError):
            solve_subproblem(d, incumbent, C, delta)
        assert solve_subproblem(d, np.array([0, 1]), np.int64(2), 2) == frozenset({0, 2})

    def test_wider_region_prefers_better_prefix(self):
        for d, expected in [
            # gamma(1) = 3 beats gamma(2) = 0, so only one swap happens
            ([5.0, 1.0, 4.0, 2.0], {0, 2}),
            # the second pair gains 1, which a float prefix sum loses (1e16 + 1 == 1e16)
            ([0.0, 1.0, 1e16, 2.0], {2, 3}),
            # a zero increment after a positive one: the tie goes to fewer swaps
            ([0.0, 1.0, 3.0, 1.0], {1, 2}),
        ]:
            assert solve_subproblem(np.array(d), {0, 1}, 2, 4) == frozenset(expected)
            assert brute_force_subproblem(np.array(d), {0, 1}, 2, 4) == frozenset(expected)

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

    @pytest.mark.parametrize("incumbent, C", [([0, 0], 2), ([3, 1, 3], 3)])
    def test_duplicate_incumbent_rejected(self, incumbent, C):
        # unchecked, [0, 0] passes the size check and returns one location for C = 2
        d = np.array([0.1, 0.2, 0.3, 0.9, 0.8])
        with pytest.raises(ValueError, match="^incumbent indices must be distinct$"):
            solve_subproblem(d, incumbent, C, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("delta", [2, 4])
    def test_non_finite_coefficients_rejected(self, bad, delta):
        # unchecked, most return an arbitrary selection; nan at delta 4 a bare numpy broadcast error
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            solve_subproblem(np.array([bad, 1.0, 2.0, 3.0]), {0, 1}, 2, delta)

    @pytest.mark.parametrize("solver", [solve_subproblem, brute_force_subproblem])
    @pytest.mark.parametrize("d, incumbent, C, delta, message", [
        ([1.0, -0.5, 3.0], {0}, 1, 2, "coefficients must be non-negative"),
        (np.ones((2, 3)), {0}, 1, 2, "coefficient vector must be 1-d"),
        ([1.0, 2.0, 3.0], {0}, 1, 3, "delta must be a positive even integer, got 3"),
        ([1.0, 2.0, 3.0], {0}, 2, 2, "incumbent has 1 locations, expected C=2"),
        ([1.0, 2.0, 3.0], {5}, 1, 2, "incumbent index 5 lies outside [0, 3)"),
        ([1.0, 2.0, 3.0], {0, 1}, 2, 4, "delta/2 = 2 exceeds min(C, m - C) = 1"),
    ], ids=["negative", "2-d", "odd-delta", "wrong-size", "out-of-range", "region-too-wide"])
    def test_one_argument_contract(self, solver, d, incumbent, C, delta, message):
        # the fast solver and its enumerative reference reject the same inputs alike
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solver(d, incumbent, C, delta)

    @staticmethod
    def draw(rng, kind):
        """A random subproblem; every kind but "mixed" forces coefficient ties."""
        m = int(rng.integers(4, 13))
        C = int(rng.integers(1, m))
        half = int(rng.integers(1, min(C, m - C) + 1))
        d = rng.uniform(0, 1, m)
        if kind != "mixed" or rng.random() < 0.3:
            d = np.round(d, 1)
        if kind == "zeros":
            d[rng.random(m) < 0.5] = 0.0
        elif kind == "subnormal":
            d[rng.random(m) < 0.5] = 5e-324
        elif kind == "large":
            d = d * 10.0 + rng.choice([1.0, 2.5, 1e6], m)
        elif kind == "negative-zero":
            d[rng.random(m) < 0.5] = -0.0
        incumbent = frozenset(int(j) for j in rng.choice(m, C, replace=False))
        if kind == "zero-outside":
            d[[j for j in range(m) if j not in incumbent]] = 0.0
        return d, incumbent, C, 2 * half

    def test_matches_enumeration(self, rng):
        kinds = ["mixed"] * 300
        kinds += [k for k in ("zeros", "subnormal", "large", "zero-outside", "negative-zero") for _ in range(60)]
        for kind in kinds:
            d, incumbent, C, delta = self.draw(rng, kind)
            assert solve_subproblem(d, incumbent, C, delta) == brute_force_subproblem(d, incumbent, C, delta)

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
        warm = ggx(inst, SolverConfig(C=3, algo="gh"))[0]
        opt = brute_force_opt(inst, 3)
        assert warm.objective < opt.objective - 1e-9
        out = climb(inst, warm, SolverConfig(C=3), _linear_model_move)[0]
        assert out.objective >= warm.objective

    def test_single_swap_steps_with_delta_two(self, rng):
        inst = dense_random(rng, zones=6, m=9, nested=True)
        warm = ggx(inst, SolverConfig(C=3, algo="gh"))[0]
        out = climb(inst, warm, SolverConfig(C=3, delta=2), _linear_model_move)[0]
        assert len(out.selected) == 3
        assert out.objective >= warm.objective

    def test_rejects_wrong_start_size(self):
        inst = single_zone([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            climb(inst, Solution((0,)), SolverConfig(C=2), _linear_model_move)

    def test_linear_model_never_hurts(self, rng):
        inst = dense_random(rng, zones=7, m=10, nested=True)
        warm = ggx(inst, SolverConfig(C=3, algo="gh"))[0]
        out = climb(inst, warm, SolverConfig(C=3), _linear_model_move)[0]
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
            out = climb(inst, ggx(inst, SolverConfig(C=3, algo="gh"))[0], SolverConfig(C=3), _best_swap)[0]
            f = out.objective
            selected = set(out.selected)
            for j in selected:
                for t in set(range(10)) - selected:
                    swapped = sorted(selected - {j} | {t})
                    assert objective(inst, swapped) <= f + 1e-12


class TestCertifiedExchange:
    """The bounded ``_best_swap`` against ``dense_best_swap``, the scan of every j_out."""

    @staticmethod
    def instances(rng):
        yield dense_random(rng, zones=40, m=15)
        yield dense_random(rng, zones=40, m=15, nested=True)
        yield dense_random(rng, zones=40, m=15, nested="interleaved")
        for nested in (False, True):
            for beta in (1.0, 5.0):
                yield planar(zones=200, m=30, beta=beta, seed=4, nested=nested)
        # ties: duplicated columns, and attractions rounded to a few values
        base = planar(zones=200, m=10, beta=5.0, seed=5)
        yield Instance.from_arrays(base.q, base.Y[:, [0, 1, 0, 2, 1, 3, 0, 4, 5, 2, 6, 7, 8, 9]],
                                   MultinomialLogit())
        Y = np.round(rng.uniform(0.0, 2.0, (30, 12)) * (rng.random((30, 12)) < 0.3))
        yield Instance.from_arrays(np.ones(30), Y, NestedLogit([j % 2 for j in range(12)], (1.0, 1.4)))
        yield single_zone([1.0, 1.0, 2.0, 1.0, 2.0])

    @staticmethod
    def poor_start(inst, C):
        """The C locations of least total attraction: exchange needs several moves."""
        return Solution(tuple(sorted(np.argsort(inst.Y.sum(axis=0), kind="stable")[:C].tolist())))

    def test_proposals_match_dense_scan(self, rng):
        moves = 0
        for inst in self.instances(rng):
            probe = IncrementalEvaluator(inst)

            def checked(ev, current, cfg):
                nonlocal moves
                reference, proposal = dense_best_swap(ev, current, cfg), _best_swap(ev, current, cfg)
                probe.reset(reference)
                if improves(probe.current_objective(), ev.current_objective()):
                    assert proposal == reference
                    moves += 1
                else:
                    probe.reset(proposal)
                    assert not improves(probe.current_objective(), ev.current_objective())
                return proposal

            for C in (1, 3, inst.m // 2, inst.m - 1):
                cfg = SolverConfig(C=C)
                start = self.poor_start(inst, C)
                assert climb(inst, start, cfg, checked) == climb(inst, start, cfg, dense_best_swap)
        assert moves >= 20

    def test_scans_few_j_outs_at_a_local_optimum(self):
        scanned = []

        class Counting(IncrementalEvaluator):
            def objectives_with_swap(self, j_out):
                scanned.append(j_out)
                return super().objectives_with_swap(j_out)

        inst = planar(zones=300, m=60, beta=5.0, seed=2)
        cfg = SolverConfig(C=10)
        optimum, _ = ggx(inst, cfg)
        ev = Counting(inst)
        ev.reset(optimum.selected)
        assert _best_swap(ev, frozenset(optimum.selected), cfg) == frozenset(optimum.selected)
        assert len(scanned) < cfg.C
        out, iterations = _climb(ev, optimum, cfg, _Deadline(None), _best_swap)
        assert (out.selected, iterations) == (optimum.selected, 1)


class TestGgx:
    def test_never_below_greedy_and_often_optimal(self, rng):
        n_opt = 0
        for trial in range(30):
            inst = dense_random(rng, zones=6, m=9, nested=trial % 2 == 1)
            warm = ggx(inst, SolverConfig(C=3, algo="gh"))[0]
            sol, report = ggx(inst, SolverConfig(C=3))
            assert sol.objective >= warm.objective - 1e-12
            f1, f2, f3 = report.phase_objectives
            assert f1 <= f2 <= f3
            if abs(sol.objective - brute_force_opt(inst, 3).objective) <= 1e-9:
                n_opt += 1
        assert n_opt >= 24

    def test_recovers_optimum_lost_by_greedy(self):
        inst = dense_random(np.random.default_rng(4), zones=6, m=9)
        assert ggx(inst, SolverConfig(C=3, algo="gh"))[0].objective == pytest.approx(8.160094007703, abs=1e-9)
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
        assert sol == greedy(IncrementalEvaluator(inst), 4)
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
        for sol in (ggx(inst, SolverConfig(C=3, algo="gh"))[0], ggx(inst, SolverConfig(C=3))[0]):
            assert sol.objective == objective(inst, sol.selected)

    def test_tiny_time_budget_still_returns_valid_solution(self):
        inst = planar(zones=20, m=12, seed=6, nested=True)
        sol, report = ggx(inst, SolverConfig(C=4, time_budget=1e-9))
        assert len(sol.selected) == 4
        assert report.phases[1].iterations == report.phases[2].iterations == 0
        f1, f2, f3 = report.phase_objectives
        assert f1 <= f2 <= f3

    def test_one_evaluator_per_run(self, rng, monkeypatch):
        built = []

        class Counting(maxcap.solver.IncrementalEvaluator):
            def __init__(self, inst):
                built.append(inst)
                super().__init__(inst)

        monkeypatch.setattr(maxcap.solver, "IncrementalEvaluator", Counting)
        inst = dense_random(rng, zones=8, m=10, nested=True)
        for algo, names in (("ggx", ["greedy", "gradient", "exchange"]), ("gh", ["greedy"])):
            built.clear()
            _, report = ggx(inst, SolverConfig(C=4, algo=algo))
            assert [p.name for p in report.phases] == names
            assert len(built) == 1  # one evaluator, shared by every phase

    def test_greedy_and_ggx_never_reach_the_oracle_kernel(self, rng, monkeypatch):
        def refuse(inst, rows):
            raise AssertionError("the solver priced through the oracle")

        # sys.modules: the package attribute maxcap.objective is the function
        monkeypatch.setattr(sys.modules["maxcap.objective"], "_values", refuse)
        with pytest.raises(AssertionError):
            objective(planar(zones=5, m=4), (0,))
        for nested in (False, True):
            inst = dense_random(rng, zones=12, m=10, nested=nested)
            warm = ggx(inst, SolverConfig(C=4, algo="gh"))[0]
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
            # construction, greedy's start and its C = 4 picks, each local-search phase's
            # start, then one per proposal, all on the one evaluator
            assert resets == [shared] * (2 + 4 + 2 + report.phases[1].iterations + report.phases[2].iterations)

    def test_reported_objectives_are_the_evaluators_values_mnl(self, rng):
        for trial in range(4):
            inst = dense_random(rng, zones=40, m=30, zero_frac=0.1)
            cfg = SolverConfig(C=6)
            sol, report = ggx(inst, cfg)
            warm = ggx(inst, SolverConfig(C=cfg.C, algo="gh"))[0]
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
