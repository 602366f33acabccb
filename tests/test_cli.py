import json
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

import maxcap.cli
from maxcap import (
    GeneratorParams,
    MmnlParams,
    MultinomialLogit,
    PropertyReport,
    SolverConfig,
    assign_nests,
    generate_euclidean,
    ggx,
    mmnl_expand,
    write_instance,
)
from maxcap.cli import DEFAULT_MU, main

# name -> the generate argv and each solve's argv and stdout, the instance path written {instance}
SOLVE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "solve.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_args(path, **overrides):
    flags = {
        "--zones": "20", "--locations": "10", "--competitors": "5",
        "--alpha": "0.1", "--beta": "1", "--model": "mnl", "--seed": "1",
        "--out": str(path),
    }
    flags.update(overrides)
    argv = ["generate"]
    for k, v in flags.items():
        argv += [k, v]
    return argv


class TestGenerate:
    def test_writes_file_and_summary(self, capsys, tmp_path):
        out = tmp_path / "a.mcp"
        code, stdout, _ = run(capsys, *gen_args(out))
        assert code == 0
        assert out.exists()
        assert "zones=20" in stdout and "m=10" in stdout

    def test_same_flags_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.mcp", tmp_path / "b.mcp"
        assert run(capsys, *gen_args(a))[0] == 0
        assert run(capsys, *gen_args(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nested_and_mmnl_variants(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, *gen_args(tmp_path / "n.mcp", **{"--model": "nested", "--mu": "1.1,1.2,1.3,1.4,1.5"})
        )
        assert code == 0 and "model=nested" in stdout
        code, stdout, _ = run(
            capsys, *gen_args(tmp_path / "x.mcp", **{"--model": "mmnl", "--mmnl-K": "10"})
        )
        assert code == 0 and "zones=200" in stdout

    def test_beta_is_mmnl_theta(self, capsys, tmp_path):
        out, ref = tmp_path / "x.mcp", tmp_path / "ref.mcp"
        argv = gen_args(out, **{"--model": "mmnl", "--mmnl-K": "10", "--beta": "3"})
        assert run(capsys, *argv)[0] == 0
        params = GeneratorParams(zones=20, locations=10, competitors=5, alpha=0.1, beta=3.0, seed=1)
        write_instance(mmnl_expand(params, MmnlParams(theta=3.0, samples=10, seed=1)), ref)
        assert out.read_bytes() == ref.read_bytes()
        code, _, err = run(capsys, *argv, "--mmnl-theta", "3")
        assert code == 1 and "unrecognized arguments: --mmnl-theta" in err

    def test_mu_without_nested_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, *gen_args(tmp_path / "a.mcp", **{"--mu": "1.1,1.2"}))
        assert code == 1
        assert "error" in err

    def test_nest_count_is_mu_length(self, capsys, tmp_path):
        out = tmp_path / "a.mcp"
        assert run(capsys, *gen_args(out, **{"--model": "nested", "--mu": "1.1,1.2,1.3"}))[0] == 0
        assert out.read_text().splitlines()[1] == "model nested 3"

    @pytest.mark.parametrize("overrides, message", [
        ({"--mu": "0.5"}, "--mu values must be >= 1, got 0.5"),
        ({"--locations": "4"}, "--mu gives 5 nests, more than the 4 locations"),
    ], ids=["mu-below-one", "more-nests-than-locations"])
    def test_nest_flag_problem_is_usage_error_before_generating(self, capsys, tmp_path, monkeypatch,
                                                                overrides, message):
        def no_instance(*args, **kwargs):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(maxcap.cli, "_make_instance", no_instance)
        out = tmp_path / "a.mcp"
        code, _, err = run(capsys, *gen_args(out, **{"--model": "nested", **overrides}))
        assert code == 1 and message in err
        assert not out.exists()

    def test_bad_flag_value(self, capsys, tmp_path):
        code, _, _ = run(capsys, *gen_args(tmp_path / "a.mcp", **{"--zones": "0"}))
        assert code == 1


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.mcp"
    assert main(gen_args(path, **{"--zones": "30", "--locations": "12"})) == 0
    capsys.readouterr()
    return path


class TestSolve:
    def test_ggx_at_least_greedy(self, capsys, instance_file):
        code, gh_out, _ = run(capsys, "solve", str(instance_file), "--C", "4", "--algo", "gh")
        assert code == 0
        code, ggx_out, _ = run(capsys, "solve", str(instance_file), "--C", "4", "--algo", "ggx")
        assert code == 0
        gh_f = float(gh_out.split("objective: ")[1].split()[0])
        ggx_f = float(ggx_out.split("objective: ")[1].split()[0])
        assert ggx_f >= gh_f
        assert "phase exchange" in ggx_out

    def test_selected_printed_one_based_ascending(self, capsys, instance_file):
        _, stdout, _ = run(capsys, "solve", str(instance_file), "--C", "3")
        picked = [int(t) for t in stdout.split("selected: ")[1].splitlines()[0].split()]
        assert picked == sorted(picked)
        assert min(picked) >= 1 and max(picked) <= 12

    def test_json_matches_text(self, capsys, instance_file):
        _, text, _ = run(capsys, "solve", str(instance_file), "--C", "3")
        _, raw, _ = run(capsys, "solve", str(instance_file), "--C", "3", "--json")
        payload = json.loads(raw)
        assert f"{payload['objective']:.12f}" in text
        assert payload["selected"] == [int(t) for t in text.split("selected: ")[1].splitlines()[0].split()]
        assert [p["name"] for p in payload["phases"]] == ["greedy", "gradient", "exchange"]

    @pytest.mark.parametrize("algo, names", [("gh", ["greedy"]),
                                             ("ggx", ["greedy", "gradient", "exchange"])])
    def test_phase_records(self, capsys, instance_file, algo, names):
        argv = ["solve", str(instance_file), "--C", "4", "--algo", algo]
        _, text, _ = run(capsys, *argv)
        _, raw, _ = run(capsys, *argv, "--json")
        _, stamped, _ = run(capsys, *argv, "--json", "--stamp")
        phases = json.loads(raw)["phases"]
        assert [p["name"] for p in phases] == names
        assert phases[0]["iterations"] == 4
        assert all(p["wall_ms"] == 0.0 for p in phases)
        assert "wall_ms_total" not in json.loads(raw)
        lines = [line for line in text.splitlines() if line.startswith("phase ")]
        assert lines == [f"phase {p['name']:<8} objective={p['objective']:.12f} "
                         f"iterations={p['iterations']}" for p in phases]
        payload = json.loads(stamped)
        assert [p["name"] for p in payload["phases"]] == names
        assert payload["wall_ms_total"] > 0
        assert all(p["wall_ms"] > 0 for p in payload["phases"])

    def test_zero_cardinality_is_usage_error(self, capsys, instance_file):
        assert run(capsys, "solve", str(instance_file), "--C", "0")[0] == 1

    def test_oversized_cardinality_is_runtime_error(self, capsys, instance_file):
        code, _, err = run(capsys, "solve", str(instance_file), "--C", "13")
        assert code == 2 and "exceeds" in err

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        assert run(capsys, "solve", str(tmp_path / "nope.mcp"), "--C", "2")[0] == 2

    def test_odd_delta_is_usage_error(self, capsys, instance_file):
        assert run(capsys, "solve", str(instance_file), "--C", "3", "--delta", "3")[0] == 1

    def test_benchmark_argv(self, capsys, instance_file):
        # the solve command line bench/run.py issues; --coef-mode is accepted and sets nothing
        argv = ["solve", str(instance_file), "--C", "5", "--algo", "ggx", "--delta", "4"]
        code, raw, _ = run(capsys, *argv, "--coef-mode", "gradient", "--json")
        assert code == 0
        assert '"coef_mode": "gradient"' in raw
        assert raw == run(capsys, *argv, "--json")[1]
        code, _, err = run(capsys, *argv, "--coef-mode", "marginal", "--json")
        assert code == 1 and "invalid choice" in err

    def test_readme_json_example(self, capsys, tmp_path, monkeypatch):
        # README's own generate and solve commands print its JSON report block
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                    for line in block.replace("\\\n", " ").splitlines()]
        generate = next(c for c in commands if c.startswith("maxcap generate --") and c.endswith(" a.mcp"))
        solve = next(c for c in commands if c == "maxcap solve a.mcp --C 5 --json")
        expected = json.loads(re.search(r"## JSON report schema.*?```json\n(.*?)```", readme, re.S)[1])
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *shlex.split(generate)[1:])[0] == 0
        code, raw, _ = run(capsys, *shlex.split(solve)[1:])
        assert code == 0
        # selected, objective and every phase record, wall_ms 0.0 included
        assert json.loads(raw) == expected

    @pytest.mark.parametrize("name", SOLVE_GOLDEN)
    def test_json_matches_golden(self, capsys, tmp_path, name):
        # n1-s0 and m5-s0 each make an exchange move, so every phase's output is pinned
        case = SOLVE_GOLDEN[name]
        path = str(tmp_path / f"{name}.mcp")
        assert run(capsys, *case["generate"].replace("{instance}", path).split())[0] == 0
        for solve in case["runs"]:
            code, stdout, _ = run(capsys, *solve["argv"].replace("{instance}", path).split())
            assert (code, stdout.replace(path, "{instance}")) == (0, solve["stdout"])


class TestCheck:
    def test_all_suites_pass_on_defaults(self, capsys):
        code, stdout, _ = run(capsys, "check", "--suite", "all", "--trials", "40", "--seed", "3")
        assert code == 0
        for name in ("submodularity", "monotonicity", "gradient", "subproblem", "cpgf"):
            assert name in stdout
        assert "[FAIL]" not in stdout

    def test_single_suite_on_instance_file(self, capsys, instance_file):
        code, stdout, _ = run(capsys, "check", "--suite", "monotonicity", "--trials", "50",
                              "--instance", str(instance_file))
        assert code == 0
        assert str(instance_file) in stdout

    def test_reports_match_golden(self, capsys, tmp_path):
        # stdout and exit codes recorded with subset-by-subset audits; the
        # batched audits must reproduce them byte for byte
        golden = json.loads((Path(__file__).parent / "golden" / "check.json").read_text())
        path = str(tmp_path / "nested.mcp")
        assert run(capsys, *golden["generate"].replace("{instance}", path).split())[0] == 0
        for case in golden["runs"]:
            code, stdout, _ = run(capsys, *case["argv"].replace("{instance}", path).split())
            assert (code, stdout.replace(path, "{instance}")) == (case["code"], case["stdout"])

    def test_instance_with_subproblem_suite_is_usage_error(self, capsys, tmp_path):
        # the subproblem suite builds its own cases, so the file is not read
        code, _, err = run(capsys, "check", "--suite", "subproblem", "--trials", "2",
                           "--instance", str(tmp_path / "missing.mcp"))
        assert code == 1 and "--instance does not apply to suite subproblem" in err

    def test_zero_trials_is_usage_error(self, capsys):
        assert run(capsys, "check", "--suite", "all", "--trials", "0")[0] == 1

    def test_violations_exit_three(self, capsys, monkeypatch):
        import maxcap.cli as cli

        def failing(inst, trials, seed=0):
            return PropertyReport("submodularity", trials, 3, 0.5, seed)

        monkeypatch.setattr(cli.oracle, "check_submodularity", failing)
        code, stdout, _ = run(capsys, "check", "--suite", "submodularity", "--trials", "10")
        assert code == 3
        assert "[FAIL]" in stdout


class TestBench:
    def bench_args(self, out, extra=()):
        return ["bench", "--grid", "12x8", "--alphas", "0.1,1", "--betas", "1",
                "--C", "2:3", "--models", "mnl,nested", "--out", str(out), *extra]

    def test_csv_shape_and_match_best(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, stdout, _ = run(capsys, *self.bench_args(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,I,m,C,alpha,beta,model,algo,objective,wall_ms,match_best"
        # 2 alphas x 1 beta x 2 C x 2 models x 2 algos
        assert len(lines) == 1 + 16
        assert all(line.endswith(("true", "false")) for line in lines[1:])
        assert "mean_ms" in stdout

    def test_csv_bytes_stable_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *self.bench_args(a))[0] == 0
        assert run(capsys, *self.bench_args(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_adds_timings(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        assert run(capsys, *self.bench_args(out, ("--stamp",)))[0] == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated_at=")
        wall = [line.split(",")[9] for line in lines[2:]]
        assert any(v != "0" for v in wall)

    def test_bf_rows_match_best(self, capsys, tmp_path):
        out = tmp_path / "bf.csv"
        code, _, _ = run(capsys, *self.bench_args(out, ("--bf-max", "100000")))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        bf_rows = [r for r in rows if r[7] == "bf"]
        assert bf_rows and all(r[10] == "true" for r in bf_rows)
        ggx_rows = [r for r in rows if r[7] == "ggx"]
        assert all(r[10] == "true" for r in ggx_rows)

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *self.bench_args(a))[0] == 0
        assert run(capsys, *self.bench_args(b, ("--jobs", "4")))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_ggx_run_per_cell_and_cardinality(self, capsys, tmp_path, monkeypatch):
        real_ggx, algos_run = maxcap.cli.ggx, []

        def counting_ggx(inst, cfg):
            algos_run.append(cfg.algo)
            return real_ggx(inst, cfg)

        monkeypatch.setattr(maxcap.cli, "ggx", counting_ggx)
        out = tmp_path / "once.csv"
        assert run(capsys, *self.bench_args(out, ("--bf-max", "30")))[0] == 0
        # 2 models x 2 alphas x 1 beta cells, 2 values of C each; the gh row is ggx's greedy phase
        assert algos_run == ["ggx"] * 8
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        algos = {}
        for r in rows:
            algos.setdefault((r[0], r[3]), []).append(r[7])
        # comb(8, 2) = 28 admits bf rows at C = 2; comb(8, 3) = 56 does not
        assert len(algos) == 8
        assert all(a == (["gh", "ggx", "bf"] if C == "2" else ["gh", "ggx"]) for (_, C), a in algos.items())
        for r in rows:
            if r[7] != "gh":
                continue
            m, model = int(r[2]), r[6]
            params = GeneratorParams(zones=int(r[1]), locations=m, alpha=float(r[4]), beta=float(r[5]))
            built = generate_euclidean(params, MultinomialLogit() if model == "mnl" else
                                       assign_nests(m, 5, DEFAULT_MU))
            assert r[8] == f"{ggx(built, SolverConfig(C=int(r[3]), algo='gh'))[0].objective:.12f}"

    @pytest.mark.parametrize("C", ["0:2", "-1", "0"])
    def test_nonpositive_cardinality_is_usage_error(self, capsys, tmp_path, C):
        code, _, _ = run(capsys, "bench", "--grid", "10x6", "--C", C, "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "10x6", "--C", "7"], "--C 7 exceeds the smallest grid m=6"),
        (["--grid", "10x6", "--C", "1:1000000"], "--C 1000000 exceeds the smallest grid m=6"),
        (["--grid", "0x5"], "grid sizes must be >= 1, got '0x5'"),
        (["--grid", "10x6", "--alphas", "0"], "must be positive"),
        (["--grid", "10x6", "--betas", "-1"], "must be positive"),
        (["--grid", "10x6", "--models", "nested", "--mu", "1,1,1,1,1,1,1,1,1", "--C", "2"],
         "--mu gives 9 nests, more than the 6 locations"),
        (["--grid", "10x6", "--models", "nested", "--mu", "0.5,1,1,1,1", "--C", "2"],
         "--mu values must be >= 1, got 0.5"),
        (["--grid", "10x6", "--models", "mnl", "--mu", "1.1", "--C", "2"], "--mu applies to model nested only"),
        (["--grid", "10x6", "--mmnl-K", "5", "--C", "2"], "--mmnl-K applies to model mmnl only"),
        (["--grid", "10x6", "--alphas", "inf"], "must be positive and finite, got inf"),
        (["--grid", "10x6", "--bf-max", "-1"], "argument --bf-max: must be >= 0, got -1"),
    ], ids=["C-above-m", "C-range-above-m", "zero-grid-size", "zero-alpha", "negative-beta",
            "more-nests-than-m", "mu-below-one", "mu-without-nested", "mmnl-K-without-mmnl", "infinite-alpha", "negative-bf-max"])
    def test_flag_conflict_is_usage_error_before_any_cell(self, capsys, tmp_path, monkeypatch, flags, message):
        def no_cell(*args, **kwargs):
            raise AssertionError("a grid cell was generated")

        monkeypatch.setattr(maxcap.cli, "_make_instance", no_cell)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "bench", *flags, "--out", str(tmp_path / "x.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and message in err
        assert not (tmp_path / "x.csv").exists()
        assert peak < 1 << 20  # a range flag is checked by its ends, never expanded

    def test_empty_grid_is_usage_error(self, capsys, tmp_path):
        assert run(capsys, "bench", "--grid", ",", "--out", str(tmp_path / "x.csv"))[0] == 1

    def test_unknown_model_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bench", "--grid", "10x6", "--models", "probit",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        def failing_cell(*args, **kwargs):
            raise ValueError("a grid cell was generated")

        monkeypatch.setattr(maxcap.cli, "_make_instance", failing_cell)
        argv = ["bench", "--grid", "10x6", "--betas", "1", "--alphas", "0.1", "--C", "2", "--out"]
        code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and "a grid cell was generated" not in err  # found before any cell
        code, _, err = run(capsys, *argv, str(tmp_path))  # an existing directory
        assert code == 2 and "a grid cell was generated" not in err
        # a cell that fails leaves no file behind
        code, _, err = run(capsys, *argv, str(tmp_path / "x.csv"))
        assert code == 2 and "a grid cell was generated" in err
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--zones", "abc", "--locations", "5", "--out", "x.mcp"], "invalid integer 'abc'"),
    (["generate", "--zones", "5", "--locations", "5", "--beta", "steep", "--out", "x.mcp"],
     "invalid number 'steep'"),
    (["bench", "--grid", "10x6", "--alphas", "0.1,low", "--out", "x.csv"],
     "invalid number list '0.1,low'"),
    (["bench", "--grid", "10x6", "--C", "0:2", "--out", "x.csv"], "values must be >= 1, got '0:2'"),
    (["bench", "--grid", "10by6", "--out", "x.csv"], "grid cell '10by6' must look like '50x25'"),
    (["generate", "--zones", "5", "--locations", "5", "--seed", "-1", "--out", "x.mcp"],
     "argument --seed: must be >= 0, got -1"),
    (["check", "--suite", "monotonicity", "--trials", "2", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["generate", "--zones", "5", "--locations", "5", "--plane-side", "inf", "--out", "x.mcp"],
     "argument --plane-side: must be positive and finite, got inf"),
])
def test_converter_message_reaches_stderr(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert message in err
    assert "invalid _" not in err
