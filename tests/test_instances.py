import re
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        for field in ("alpha", "beta", "plane_side"):
            with pytest.raises(ValueError, match="must be positive and finite"):
                GeneratorParams(zones=5, locations=5, **{field: np.inf})

    def test_mmnl_validation(self):
        with pytest.raises(ValueError):
            MmnlParams(theta=0.0, samples=10)
        with pytest.raises(ValueError):
            MmnlParams(theta=1.0, samples=0)
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            MmnlParams(theta=np.inf, samples=10)


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
            p = model.probabilities_rows([y / u])[0]
            direct = y * model.grad_rows([y])[0] / (u + model.value_rows([y])[0])
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
        assert model.value_rows([y])[0] == pytest.approx(mnl.value_rows([y])[0], abs=1e-15)
        assert np.allclose(model.grad_rows([y])[0], mnl.grad_rows([y])[0], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_nests(5, 6, np.ones(6))
        with pytest.raises(ValueError):
            assign_nests(6, 2, [1.1])
        with pytest.raises(ValueError):
            assign_nests(6, 2, [0.9, 1.1])
        with pytest.raises(ValueError):
            assign_nests(4, 2, [np.inf, 1.2])


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
        found = len(row3.split())
        with pytest.raises(FormatError,
                           match=rf"y\.mcp:9: expected 3 values for Y row 3 of the Y block, found {found}$"):
            read_instance(path)

    def test_non_numeric_token_on_last_row(self, tmp_path):
        path = self.write_y(tmp_path, ["1 2 3", "4 5 6", "7 oops 9"])
        with pytest.raises(FormatError, match=r"y\.mcp:9: non-numeric value in Y row 3 of the Y block$"):
            read_instance(path)

    def test_digit_separators_rejected_in_y(self, tmp_path):
        path = self.write_y(tmp_path, ["1 2 3", "4 1_0 6"])
        with pytest.raises(FormatError, match=r"y\.mcp:8: non-numeric value in Y row 2 of the Y block$"):
            read_instance(path)

    @pytest.mark.parametrize("header, q, message", [
        ("model nested 2\nmu 1.1 1.2\nnest 1 2\n", "10", None),
        ("model mnl\n", "1_0", ":5: non-numeric value in q"),
        ("model nested 0_2\nmu 1.1 1.2\nnest 1 2\n", "10", ":2: invalid nest count '0_2'"),
        ("model nested 2\nmu 1_1 1.2\nnest 1 2\n", "10", ":3: non-numeric value in mu"),
        ("model nested 2\nmu 1.1 1.2\nnest 1 0_2\n", "10", ":4: invalid nest index '0_2'"),
    ], ids=["valid", "q", "nest-count", "mu", "nest-index"])
    def test_digit_separators_rejected_in_header(self, tmp_path, header, q, message):
        # the q, mu and nest lines follow the Y block's grammar; the first case is the valid file
        path = tmp_path / "h.mcp"
        path.write_text(f"MCP 1\n{header}m 2\nzones 1\nq {q}\nY\n1 1\n", encoding="utf-8")
        if message is None:
            assert read_instance(path).q.tolist() == [10.0]
            return
        with pytest.raises(FormatError, match=r"h\.mcp" + re.escape(message) + "$"):
            read_instance(path)

    @pytest.mark.parametrize("m, zones", [("²", "1"), ("1", "²")])
    def test_superscript_count_rejected_with_line(self, tmp_path, m, zones):
        path = tmp_path / "s.mcp"
        path.write_text(f"MCP 1\nmodel mnl\nm {m}\nzones {zones}\nq 1\nY\n1\n", encoding="utf-8")
        message = ":3: invalid location count '²'" if m == "²" else ":4: invalid zone count '²'"
        with pytest.raises(FormatError, match=r"s\.mcp" + message + "$"):
            read_instance(path)

    def test_zero_zones_rejected_without_numpy_warning(self, tmp_path):
        path = self.write_y(tmp_path, [])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match=r"y\.mcp:4: invalid zone count '0'$"):
                read_instance(path)
        assert not record

    def test_y_rows_are_not_parsed_one_by_one(self, tmp_path, monkeypatch):
        # neither decoder walks a valid block: the per-row helper runs for the q line
        # only, and version 2 does not even cut the block into lines
        inst = generate_euclidean(GeneratorParams(zones=200, locations=50, seed=2),
                                  MultinomialLogit())
        v1, v2 = tmp_path / "v1.mcp", tmp_path / "v2.mcp"
        v1.write_text(_per_value_text(inst), encoding="utf-8")
        write_instance(inst, v2)
        floats, sections = [], []
        parse_floats, next_line = instances._parse_floats, instances._Reader.next_line

        def counted(*args):
            floats.append(args[-1])
            return parse_floats(*args)

        def counted_line(reader, section):
            sections.append(section)
            return next_line(reader, section)

        monkeypatch.setattr(instances, "_parse_floats", counted)
        monkeypatch.setattr(instances._Reader, "next_line", counted_line)
        for path in (v1, v2):
            floats.clear()
            sections.clear()
            assert read_instance(path).Y.shape == (200, 50)
            assert floats == ["q"]
        assert sections == ["header", "model", "m", "zones", "q", "Y"]

    @pytest.mark.parametrize("kind", ["mnl", "nested", "extremes"])
    def test_write_matches_per_value_format(self, tmp_path, kind):
        inst = _format_case(kind)
        path = tmp_path / "w.mcp"
        write_instance(inst, path)
        assert path.read_bytes() == _per_value_hex_text(inst).encode("utf-8")

    @pytest.mark.parametrize("kind", ["mnl", "nested", "extremes"])
    def test_version_1_text_reads_back_bit_identically(self, tmp_path, kind):
        inst = _format_case(kind)
        v1, v2 = tmp_path / "v1.mcp", tmp_path / "v2.mcp"
        v1.write_text(_per_value_text(inst), encoding="utf-8")
        write_instance(inst, v2)
        for back in (read_instance(v1), read_instance(v2)):
            assert back.Y.tobytes() == inst.Y.tobytes()
            assert back.q.tobytes() == inst.q.tobytes()

    @staticmethod
    def write_hex(tmp_path, rows, zones=None):
        # version 2 with m = 2; Y row k sits on line 6 + k
        path = tmp_path / "x.mcp"
        zones = len(rows) if zones is None else zones
        q = " ".join(["1"] * zones)
        path.write_text(f"MCP 2\nmodel mnl\nm 2\nzones {zones}\nq {q}\nY\n"
                        + "".join(row + "\n" for row in rows), encoding="utf-8")
        return path

    def test_comment_between_hex_rows_is_skipped(self, tmp_path):
        path = self.write_hex(tmp_path, ["3fe0000000000000 3fd0000000000000", "# between rows", "",
                                         "3fc0000000000000 3ff0000000000000"], zones=2)
        assert read_instance(path).Y.tolist() == [[0.5, 0.25], [0.125, 1.0]]

    def test_upper_case_hex_digits_read(self, tmp_path):
        path = self.write_hex(tmp_path, ["3FB999999999999A 3fb999999999999a"])
        assert read_instance(path).Y.tolist() == [[0.1, 0.1]]

    @pytest.mark.parametrize("row2, message", [
        ("3ff0000000000000", "expected 2 values for Y row 2 of the Y block, found 1"),
        ("3ff0000000000000 4000000000000000 0000000000000000",
         "expected 2 values for Y row 2 of the Y block, found 3"),
        ("3ff0000000000000 400000000000000", "value '400000000000000' in Y row 2 is not 16 hex digits"),
        ("3ff0000000000000 40000000000000000",
         "value '40000000000000000' in Y row 2 is not 16 hex digits"),
        ("3ff0000000000000 400000000000000g", "value '400000000000000g' in Y row 2 is not 16 hex digits"),
        # the separator moved by one byte: the same 16 bytes decode, so only the separator check sees it
        ("3ff000000000000040 00000000000000",
         "value '3ff000000000000040' in Y row 2 is not 16 hex digits"),
        # fromhex skips whitespace inside a value: only the decoded length sees it
        ("3ff0000000000000 4000000000 00 00", "expected 2 values for Y row 2 of the Y block, found 4"),
        ("3ff0000000000000\t4000000000000000", "values in Y row 2 must be separated by single spaces"),
        ("3ff0000000000000  4000000000000000", "values in Y row 2 must be separated by single spaces"),
        (" 3ff0000000000000 4000000000000000", "values in Y row 2 must be separated by single spaces"),
        ("3ff0000000000000 7ff0000000000000",
         "Y row 2: attraction entries must be finite and non-negative"),
        ("3ff0000000000000 7ff8000000000000",
         "Y row 2: attraction entries must be finite and non-negative"),
        ("bff0000000000000 4000000000000000",
         "Y row 2: attraction entries must be finite and non-negative"),
    ], ids=["one-value", "three-values", "short-value", "long-value", "non-hex", "misplaced-separator",
            "blank-in-value", "tab", "double-space", "indent", "inf", "nan", "sign-bit"])
    def test_bad_hex_row_names_its_line(self, tmp_path, row2, message):
        rows = ["0000000000000000 3ff0000000000000", row2, "3ff0000000000000 3ff0000000000000"]
        path = self.write_hex(tmp_path, rows)
        with pytest.raises(FormatError, match=r"x\.mcp:8: " + re.escape(message) + "$"):
            read_instance(path)

    def test_short_hex_block_names_the_missing_row(self, tmp_path):
        path = self.write_hex(tmp_path, ["3ff0000000000000 3ff0000000000000"], zones=2)
        with pytest.raises(FormatError, match=r"x\.mcp:8: unexpected end of file, missing section 'Y row 2'$"):
            read_instance(path)

    def test_short_hex_block_allocates_nothing_sized_by_the_header(self, tmp_path):
        # the header claims 1e7 values but the block holds one: it must fail on
        # the row, without first building a separator pattern of m * zones bytes
        path = tmp_path / "h.mcp"
        path.write_text("MCP 2\nmodel mnl\nm 10000000\nzones 1\nq 1\nY\n3ff0000000000000\n",
                        encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match=r"h\.mcp:7: expected 10000000 values for Y row 1 of the Y block, found 1$"):
                read_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_file_names_missing_section(self, tmp_path):
        path = tmp_path / "t.mcp"
        path.write_text("MCP 1\nmodel mnl\nm 2\nzones 2\nq 1 1\nY\n0.5 0.25\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"t\.mcp:8: unexpected end of file, missing section 'Y row 2'$"):
            read_instance(path)

    @pytest.mark.parametrize("extra", ["garbage here", "0.125 1"], ids=["garbage", "extra-row"])
    def test_text_after_version_1_y_block_rejected(self, tmp_path, extra):
        # zones 1 but a second Y row too: a wrong zone count must not truncate Y quietly
        path = tmp_path / "e.mcp"
        path.write_text(f"MCP 1\nmodel mnl\nm 2\nzones 1\nq 1\nY\n0.5 0.25\n\n# end\n{extra}\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match=r"e\.mcp:10: unexpected text after the last of 1 Y rows$"):
            read_instance(path)

    def test_text_after_version_2_y_block_rejected(self, tmp_path):
        path = tmp_path / "e.mcp"
        write_instance(generate_euclidean(GeneratorParams(zones=4, locations=3, seed=2),
                                          MultinomialLogit()), path)
        n_lines = path.read_text(encoding="utf-8").count("\n")
        with path.open("a", encoding="utf-8") as fh:
            fh.write("# trailing comment\n\n3ff0000000000000 3ff0000000000000 3ff0000000000000\n")
        with pytest.raises(FormatError,
                           match=rf"e\.mcp:{n_lines + 3}: unexpected text after the last of 4 Y rows$"):
            read_instance(path)

    @pytest.mark.parametrize("version, row", [("1", "0.5 0.25"), ("2", "3fe0000000000000 3fd0000000000000")])
    def test_comments_and_blank_lines_may_follow_y_block(self, tmp_path, version, row):
        path = tmp_path / "t.mcp"
        path.write_text(f"MCP {version}\nmodel mnl\nm 2\nzones 1\nq 1\nY\n{row}\n\n# end\n  \n",
                        encoding="utf-8")
        assert read_instance(path).Y.tolist() == [[0.5, 0.25]]

    def test_unknown_model_tag(self, tmp_path):
        path = tmp_path / "u.mcp"
        path.write_text("MCP 1\nmodel probit\nm 1\nzones 1\nq 1\nY\n1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"u\.mcp:2: unsupported model 'probit'$"):
            read_instance(path)

    @pytest.mark.parametrize("model_line", ["model mnl nested 3", "model mnl 7"])
    def test_extra_tokens_after_model_mnl_rejected(self, tmp_path, model_line):
        path = tmp_path / "x.mcp"
        path.write_text(f"MCP 2\n{model_line}\nm 1\nzones 1\nq 1\nY\n3ff0000000000000\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"x\.mcp:2: expected 'model mnl'$"):
            read_instance(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.mcp"
        path.write_text("MCP 9\nmodel mnl\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"v\.mcp:1: unsupported format version '9'$"):
            read_instance(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mcp"
        path.write_text("MCP 1\nmodel mnl\nm 2\nzones 1\nq 1\nY\n0.5 oops\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"bad\.mcp:7: non-numeric value in Y row 1 of the Y block$"):
            read_instance(path)

    @pytest.mark.parametrize("q, row, reason", [
        ("1", "0.5 -0.25", "non-negative"), ("1", "nan 0.25", "finite"), ("0", "0.5 0.25", "positive"),
    ])
    def test_bad_values_rejected(self, tmp_path, q, row, reason):
        path = tmp_path / "b.mcp"
        path.write_text(f"MCP 1\nmodel mnl\nm 2\nzones 1\nq {q}\nY\n{row}\n", encoding="utf-8")
        message = ("b.mcp: zone weights must be positive" if reason == "positive" else
                   "b.mcp:7: Y row 1: attraction entries must be finite and non-negative")
        with pytest.raises(FormatError, match=re.escape(message) + "$"):
            read_instance(path)

    def test_non_finite_mu_rejected(self, tmp_path):
        path = tmp_path / "n.mcp"
        path.write_text("MCP 1\nmodel nested 2\nmu nan 1.2\nnest 1 2\nm 2\nzones 1\nq 1\nY\n1 1\n",
                        encoding="utf-8")
        message = "n.mcp: dissimilarity parameters mu must all be finite and >= 1"
        with pytest.raises(FormatError, match=re.escape(message) + "$"):
            read_instance(path)

    def test_nest_length_mismatch(self, tmp_path):
        path = tmp_path / "n.mcp"
        path.write_text(
            "MCP 1\nmodel nested 2\nmu 1.1 1.2\nnest 1 2 1\nm 2\nzones 1\nq 1\nY\n1 1\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=r"n\.mcp: nest assignment has 3 entries, expected 2$"):
            read_instance(path)


# every finite non-negative bit pattern up to about 5e303, where q * G cannot
# overflow for m <= 4, plus negative zero
_BIT_PATTERNS = st.one_of(st.integers(0, 0x7F00_0000_0000_0000), st.just(0x8000_0000_0000_0000))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hex_round_trip_is_bit_exact(zones, m, data):
    bits = data.draw(st.lists(_BIT_PATTERNS, min_size=zones * m, max_size=zones * m))
    y = np.array(bits, dtype=np.uint64).view(float).reshape(zones, m)
    inst = Instance.from_arrays(np.ones(zones), y, MultinomialLogit())
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/r.mcp"
        write_instance(inst, path)
        assert read_instance(path).Y.view(np.uint64).ravel().tolist() == bits


def _format_case(kind):
    """The writer's reference instances: planar mnl, planar nested, and hand-picked extremes."""
    if kind == "extremes":
        return Instance.from_arrays(np.ones(2), [[5e-324, 1e-300, 0.1, 1 / 3, 1e300],
                                                 [0.0, -0.0, 2.5, 1e-5, 123456789.0]],
                                    MultinomialLogit())
    model = assign_nests(5, 2, (1.1, 1 / 0.7)) if kind == "nested" else MultinomialLogit()
    return generate_euclidean(GeneratorParams(zones=9, locations=5, seed=5), model)


def _per_value_hex_text(inst):
    """Reference version 2 text: every Y value packed on its own by ``struct.pack(">d", v)``."""
    lines = _per_value_text(inst).split("\n")
    header = ["MCP 2"] + lines[1:lines.index("Y") + 1]
    rows = [" ".join(struct.pack(">d", v).hex() for v in row) for row in inst.Y.tolist()]
    return "\n".join(header + rows) + "\n"


def _per_value_text(inst):
    """Version 1 ``.mcp`` text with every float formatted on its own by ``format(x, ".17g")``."""
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
