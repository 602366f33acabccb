import warnings

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
from maxcap import instances
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

    @pytest.mark.parametrize("build", ["generate_euclidean", "mmnl_expand"])
    def test_clamp_warnings_point_at_caller(self, build):
        # beta = theta = 10 with alpha = 1 clamps both location and competitor utilities
        p = GeneratorParams(zones=10, locations=8, alpha=1.0, beta=10.0, seed=1)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            if build == "generate_euclidean":
                generate_euclidean(p, MultinomialLogit())
            else:
                mmnl_expand(p, MmnlParams(theta=10.0, samples=3, seed=1))
        clamps = [w for w in record if "clamped" in str(w.message)]
        assert {str(w.message).split()[2] for w in clamps} == {"location", "competitor"}
        assert all(w.filename == __file__ for w in clamps)

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

    def test_comment_inside_y_block_is_skipped(self, tmp_path):
        path = tmp_path / "c.mcp"
        path.write_text(
            "MCP 1\nmodel mnl\nm 2\nzones 2\nq 1 1\nY\n0.5 0.25\n# between rows\n\n0.125 1\n",
            encoding="utf-8",
        )
        assert read_instance(path).Y.tolist() == [[0.5, 0.25], [0.125, 1.0]]

    def test_single_location_roundtrip(self, tmp_path):
        p = GeneratorParams(zones=6, locations=1, seed=3)
        back = self.roundtrip(generate_euclidean(p, MultinomialLogit()), tmp_path)
        assert back.Y.shape == (6, 1)

    @staticmethod
    def write_y(tmp_path, rows):
        # m = 3; Y row k sits on line 6 + k
        path = tmp_path / "y.mcp"
        q = " ".join(["1"] * len(rows))
        path.write_text(f"MCP 1\nmodel mnl\nm 3\nzones {len(rows)}\nq {q}\nY\n"
                        + "".join(row + "\n" for row in rows), encoding="utf-8")
        return path

    @pytest.mark.parametrize("row3", ["0.5 0.25", "0.5 0.25 1 2"])
    def test_later_row_with_wrong_width(self, tmp_path, row3):
        path = self.write_y(tmp_path, ["1 2 3", "4 5 6", row3, "7 8 9"])
        with pytest.raises(FormatError, match=r":9: .*Y row 3"):
            read_instance(path)

    def test_non_numeric_token_on_last_row(self, tmp_path):
        path = self.write_y(tmp_path, ["1 2 3", "4 5 6", "7 oops 9"])
        with pytest.raises(FormatError, match=r":9: non-numeric value in Y row 3"):
            read_instance(path)

    def test_digit_separators_rejected_in_y(self, tmp_path):
        path = self.write_y(tmp_path, ["1 2 3", "4 1_0 6"])
        with pytest.raises(FormatError, match="Y block"):
            read_instance(path)

    @pytest.mark.parametrize("m, zones", [("²", "1"), ("1", "²")])
    def test_superscript_count_rejected_with_line(self, tmp_path, m, zones):
        path = tmp_path / "s.mcp"
        path.write_text(f"MCP 1\nmodel mnl\nm {m}\nzones {zones}\nq 1\nY\n1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":[34]: invalid"):
            read_instance(path)

    def test_zero_zones_rejected_without_numpy_warning(self, tmp_path):
        path = self.write_y(tmp_path, [])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match="zone count"):
                read_instance(path)
        assert not record

    def test_y_rows_are_not_parsed_one_by_one(self, tmp_path, monkeypatch):
        # the per-row helper may run for the q line only, not once per Y row
        path = tmp_path / "big.mcp"
        write_instance(generate_euclidean(GeneratorParams(zones=200, locations=50, seed=2),
                                          MultinomialLogit()), path)
        calls = []
        parse_floats = instances._parse_floats

        def counted(*args):
            calls.append(args[-1])
            return parse_floats(*args)

        monkeypatch.setattr(instances, "_parse_floats", counted)
        assert read_instance(path).Y.shape == (200, 50)
        assert calls == ["q"]

    @pytest.mark.parametrize("kind", ["mnl", "nested", "extremes"])
    def test_write_matches_per_value_format(self, tmp_path, kind):
        p = GeneratorParams(zones=9, locations=5, seed=5)
        if kind == "extremes":
            inst = Instance.from_arrays(np.ones(2), [[5e-324, 1e-300, 0.1, 1 / 3, 1e300],
                                                     [0.0, -0.0, 2.5, 1e-5, 123456789.0]],
                                        MultinomialLogit())
        else:
            model = assign_nests(5, 2, (1.1, 1 / 0.7)) if kind == "nested" else MultinomialLogit()
            inst = generate_euclidean(p, model)
        path = tmp_path / "w.mcp"
        write_instance(inst, path)
        assert path.read_bytes() == _per_value_text(inst).encode("utf-8")

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


def _per_value_text(inst):
    """Reference ``.mcp`` text with every float formatted on its own by ``format(x, ".17g")``."""
    def fmt(values):
        return " ".join(format(float(v), ".17g") for v in values)

    lines = ["MCP 1"]
    if isinstance(inst.model, NestedLogit):
        lines += [f"model nested {inst.model.n_nests}", "mu " + fmt(inst.model.mu),
                  "nest " + " ".join(str(int(l) + 1) for l in inst.model.nest_of)]
    else:
        lines.append("model mnl")
    lines += [f"m {inst.m}", f"zones {inst.n_zones}", "q " + fmt(inst.q), "Y"]
    lines += [fmt(row) for row in inst.Y]
    return "\n".join(lines) + "\n"
