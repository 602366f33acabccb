import numpy as np
import pytest

from maxcap import (
    FormatError,
    GeneratorParams,
    MmnlParams,
    MultinomialLogit,
    NestedLogit,
    Instance,
    assign_nests,
    generate_euclidean,
    mmnl_expand,
    objective,
    read_instance,
    write_instance,
)
from maxcap.instances import _mmnl_with_noise
from conftest import MU_GRID


class TestParams:
    def test_generator_validation(self):
        with pytest.raises(ValueError):
            GeneratorParams(zones=0, locations=5)
        with pytest.raises(ValueError):
            GeneratorParams(zones=5, locations=5, alpha=0.0)
        with pytest.raises(ValueError):
            GeneratorParams(zones=5, locations=5, beta=-1.0)

    def test_mmnl_validation(self):
        with pytest.raises(ValueError):
            MmnlParams(theta=0.0, samples=10)
        with pytest.raises(ValueError):
            MmnlParams(theta=1.0, samples=0)


class TestGenerate:
    def test_shape_and_positivity(self):
        p = GeneratorParams(zones=50, locations=25, competitors=5, alpha=0.1, beta=1.0, seed=7)
        inst = generate_euclidean(p, MultinomialLogit())
        assert inst.n_zones == 50 and inst.m == 25
        assert np.all(inst.Y > 0.0)
        assert np.all(inst.q == 1.0)

    def test_seed_determinism(self):
        p = GeneratorParams(zones=20, locations=10, seed=3)
        a = generate_euclidean(p, MultinomialLogit())
        b = generate_euclidean(p, MultinomialLogit())
        assert np.array_equal(a.Y, b.Y)

    def test_stronger_alpha_weakens_competitors(self):
        # every competitor term decays in alpha, so every attraction grows
        lo = generate_euclidean(GeneratorParams(zones=15, locations=8, alpha=0.5, seed=4),
                                MultinomialLogit())
        hi = generate_euclidean(GeneratorParams(zones=15, locations=8, alpha=1.0, seed=4),
                                MultinomialLogit())
        assert np.all(hi.Y > lo.Y)

    def test_clamping_warns(self):
        p = GeneratorParams(zones=10, locations=8, beta=10.0, seed=1)
        with pytest.warns(RuntimeWarning, match="clamped"):
            inst = generate_euclidean(p, MultinomialLogit())
        assert np.all(np.isfinite(inst.Y))

    def test_nested_model_dimension_checked(self):
        p = GeneratorParams(zones=5, locations=8, seed=0)
        with pytest.raises(ValueError):
            generate_euclidean(p, assign_nests(7, 2, [1.1, 1.2]))


class TestScalingInvariance:
    @pytest.mark.parametrize("nested", [False, True])
    def test_normalized_probabilities_match_explicit_competitor(self, rng, nested):
        # P(j) computed from y / U equals y_j dG_j(y) / (U + G(y))
        m = 10
        model = assign_nests(m, 4, (1.0, 1.2, 1.4, 1.5)) if nested else MultinomialLogit()
        for _ in range(50):
            y = rng.uniform(0.0, 4.0, m)
            u = float(rng.uniform(0.2, 8.0))
            p = model.probabilities(y / u)
            direct = y * model.grad(y) / (u + model.value(y))
            assert np.all(np.abs(p[:-1] - direct) <= 1e-12)


class TestMmnl:
    def test_shape_and_weights(self):
        p = GeneratorParams(zones=10, locations=6, seed=2)
        inst = mmnl_expand(p, MmnlParams(theta=1.0, samples=100, seed=2))
        assert inst.n_zones == 1000
        assert np.all(inst.q == pytest.approx(0.01))
        assert isinstance(inst.model, MultinomialLogit)

    def test_zero_noise_collapses_to_planar(self):
        p = GeneratorParams(zones=12, locations=7, beta=9.99, seed=6)  # beta is unused here
        collapsed = _mmnl_with_noise(p, theta=2.0, tau=np.zeros((12, 1, 7)))
        direct = generate_euclidean(
            GeneratorParams(zones=12, locations=7, beta=2.0, seed=6), MultinomialLogit()
        )
        assert np.array_equal(collapsed.Y, direct.Y)
        assert np.array_equal(collapsed.q, direct.q)

    def test_expansion_equals_mean_of_per_draw_objectives(self, rng):
        p = GeneratorParams(zones=8, locations=9, seed=13)
        k = 25
        inst = mmnl_expand(p, MmnlParams(theta=1.0, samples=k, seed=13))
        for _ in range(5):
            s = sorted(rng.choice(9, size=3, replace=False).tolist())
            expanded = objective(inst, s)
            per_draw = []
            for draw in range(k):
                rows = [inst.Y[i * k + draw] for i in range(p.zones)]
                sub = Instance.from_arrays(np.ones(p.zones), rows, MultinomialLogit())
                per_draw.append(objective(sub, s))
            assert abs(expanded - float(np.mean(per_draw))) <= 1e-12

    def test_seed_determinism(self):
        p = GeneratorParams(zones=6, locations=5, seed=1)
        mp = MmnlParams(theta=1.5, samples=10, seed=9)
        assert np.array_equal(mmnl_expand(p, mp).Y, mmnl_expand(p, mp).Y)

    def test_clamping_warns_once_per_expansion(self):
        # theta = 10 on the default plane clamps location utilities in many zones
        p = GeneratorParams(zones=10, locations=8, seed=1)
        with pytest.warns(RuntimeWarning, match="clamped") as record:
            inst = mmnl_expand(p, MmnlParams(theta=10.0, samples=5, seed=1))
        assert sum("clamped" in str(w.message) for w in record) == 1
        assert np.all(np.isfinite(inst.Y))


class TestAssignNests:
    def test_uneven_split(self):
        model = assign_nests(59, 5, np.ones(5))
        assert [len(c) for c in model.nest_cols] == [12, 12, 12, 12, 11]

    def test_even_split_with_grid(self):
        model = assign_nests(25, 5, MU_GRID)
        assert [len(c) for c in model.nest_cols] == [5, 5, 5, 5, 5]
        assert model.mu.tolist() == list(MU_GRID)

    def test_single_nest_unit_mu_is_mnl_equivalent(self, rng):
        model = assign_nests(6, 1, [1.0])
        mnl = MultinomialLogit()
        y = rng.uniform(0, 3, 6)
        assert model.value(y) == pytest.approx(mnl.value(y), abs=1e-15)
        assert np.allclose(model.grad(y), mnl.grad(y), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_nests(5, 6, np.ones(6))
        with pytest.raises(ValueError):
            assign_nests(6, 2, [1.1])
        with pytest.raises(ValueError):
            assign_nests(6, 2, [0.9, 1.1])


class TestFileFormat:
    def roundtrip(self, inst, tmp_path):
        path = tmp_path / "round.mcp"
        write_instance(inst, path)
        back = read_instance(path)
        assert np.array_equal(back.Y, inst.Y)
        assert np.array_equal(back.q, inst.q)
        return back

    def test_mnl_roundtrip(self, tmp_path):
        p = GeneratorParams(zones=9, locations=7, seed=5)
        back = self.roundtrip(generate_euclidean(p, MultinomialLogit()), tmp_path)
        assert isinstance(back.model, MultinomialLogit)

    def test_nested_roundtrip(self, tmp_path):
        p = GeneratorParams(zones=9, locations=7, seed=5)
        inst = generate_euclidean(p, assign_nests(7, 3, (1.1, 1.25, 1.5)))
        back = self.roundtrip(inst, tmp_path)
        assert isinstance(back.model, NestedLogit)
        assert np.array_equal(back.model.nest_of, inst.model.nest_of)
        assert np.array_equal(back.model.mu, inst.model.mu)

    def test_write_is_deterministic(self, tmp_path):
        p = GeneratorParams(zones=6, locations=5, seed=8)
        inst = generate_euclidean(p, MultinomialLogit())
        a, b = tmp_path / "a.mcp", tmp_path / "b.mcp"
        write_instance(inst, a)
        write_instance(inst, b)
        assert a.read_bytes() == b.read_bytes()

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.mcp"
        path.write_text(
            "# demo instance\nMCP 1\n\nmodel mnl\nm 2\nzones 1\nq 1\nY\n0.5 0.25\n",
            encoding="utf-8",
        )
        inst = read_instance(path)
        assert inst.Y.tolist() == [[0.5, 0.25]]

    def test_truncated_file_names_missing_section(self, tmp_path):
        path = tmp_path / "t.mcp"
        path.write_text("MCP 1\nmodel mnl\nm 2\nzones 2\nq 1 1\nY\n0.5 0.25\n", encoding="utf-8")
        with pytest.raises(FormatError, match="Y row 2"):
            read_instance(path)

    def test_unknown_model_tag(self, tmp_path):
        path = tmp_path / "u.mcp"
        path.write_text("MCP 1\nmodel probit\nm 1\nzones 1\nq 1\nY\n1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="unsupported model"):
            read_instance(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.mcp"
        path.write_text("MCP 2\nmodel mnl\n", encoding="utf-8")
        with pytest.raises(FormatError, match="version"):
            read_instance(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mcp"
        path.write_text("MCP 1\nmodel mnl\nm 2\nzones 1\nq 1\nY\n0.5 oops\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":7:"):
            read_instance(path)

    @pytest.mark.parametrize("q, row, reason", [
        ("1", "0.5 -0.25", "non-negative"), ("1", "nan 0.25", "finite"), ("0", "0.5 0.25", "positive"),
    ])
    def test_bad_values_rejected(self, tmp_path, q, row, reason):
        path = tmp_path / "b.mcp"
        path.write_text(f"MCP 1\nmodel mnl\nm 2\nzones 1\nq {q}\nY\n{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=reason):
            read_instance(path)

    def test_nest_length_mismatch(self, tmp_path):
        path = tmp_path / "n.mcp"
        path.write_text(
            "MCP 1\nmodel nested 2\nmu 1.1 1.2\nnest 1 2 1\nm 2\nzones 1\nq 1\nY\n1 1\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="nest"):
            read_instance(path)
