"""Command-line interface: subcommands, formats, precedence, exit codes."""

import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import predictorlab as pl
from predictorlab import cli, explicit
from predictorlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_config_line(err):
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("predictorlab: error=config: ")


def csv_rows(text):
    lines = text.split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestCoeffs:
    def test_ar1_table(self, capsys):
        code, out, err = run(capsys, "coeffs", "--model", "ar1", "--r", "0.5",
                             "--N", "3")
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["n", "c", "a", "gamma", "phi"]
        assert len(rows) == 4
        c = [float(r[1]) for r in rows]
        a = [float(r[2]) for r in rows]
        phi = [float(r[4]) for r in rows]
        assert c == [1.0, 0.5, 0.25, 0.125]
        assert a == [-1.0, 0.5, 0.0, 0.0]
        assert phi == [0.0, 0.5, 0.0, 0.0]

    def test_white_noise_boundary(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--model", "farima", "--d", "0",
                           "--N", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert [float(r[1]) for r in rows] == [1.0, 0.0, 0.0]
        assert [float(r[2]) for r in rows] == [-1.0, 0.0, 0.0]

    def test_fractional_expansion(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--model", "farima", "--d", "0.3",
                           "--N", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert [float(r[1]) for r in rows] == pytest.approx([1.0, 0.3, 0.195])
        assert [float(r[2]) for r in rows] == pytest.approx([-1.0, 0.3, 0.105])

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--model", "ar1", "--r", "0.5",
                           "--N", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "columns", "rows"}
        assert doc["columns"] == ["n", "c", "a", "gamma", "phi"]
        assert doc["meta"]["command"] == "coeffs"
        assert doc["meta"]["model"] == "ar1"
        assert doc["meta"]["r"] == 0.5
        assert doc["meta"]["N"] == 3
        assert len(doc["rows"]) == 4
        assert doc["rows"][1][1] == 0.5


class TestPredict:
    def test_ar1_both_routes(self, capsys):
        code, out, _ = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "10")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["j", "phi_levinson", "phi_explicit", "abs_diff"]
        assert len(rows) == 10
        assert float(rows[0][2]) == 0.5
        assert all(float(r[2]) == 0.0 for r in rows[1:])
        assert all(float(r[3]) < 1e-12 for r in rows)

    def test_ar1_two_step(self, capsys):
        code, out, _ = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "4", "--m", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == 0.125
        assert all(float(r[2]) == 0.0 for r in rows[1:])

    def test_fractional_routes_agree(self, capsys):
        code, out, _ = run(capsys, "predict", "--model", "farima", "--d", "0.3",
                           "--n", "16", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["max_abs_diff"] < 1e-6
        assert doc["meta"]["sigma2"] > 1.0
        diffs = [row[3] for row in doc["rows"]]
        assert max(diffs) == doc["meta"]["max_abs_diff"]

    @pytest.mark.parametrize("n", [1, 8, 64, 512])
    def test_strong_memory_routes_agree(self, capsys, n):
        # pure fractional noise this close to d = 1/2 meets the default
        # tol_tail on the moment form's quadrature
        code, out, err = run(capsys, "predict", "--model", "farima", "--d", "0.45",
                             "--n", str(n), "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["meta"]["max_abs_diff"] < 1e-6

    def test_single_source_columns(self, capsys):
        code, out, _ = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "4", "--source", "levinson")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["j", "phi_levinson"]
        code, out, _ = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "4", "--source", "explicit")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["j", "phi_explicit"]

    def test_terms_columns(self, capsys):
        code, out, _ = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "4", "--terms", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        gcols = [c for c in doc["columns"] if c.startswith("g")]
        assert gcols and gcols[0] == "g1"
        assert len(doc["rows"][0]) == len(doc["columns"])
        # for the finite-support model the first term is the whole sum
        assert doc["rows"][0][doc["columns"].index("g1")] == 0.5

    def test_terms_needs_explicit_source(self, capsys):
        code, _, err = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "4", "--terms", "--source", "levinson")
        assert code == 2
        assert "error=config" in err

    def test_multiple_n_rejected(self, capsys):
        code, _, err = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--n", "8,16")
        assert code == 2
        assert "error=config" in err

    def test_explicit_model_variant(self, capsys):
        # a truncated pair is consistent only on the common index range, so
        # route comparison does not apply; the explicit route alone sees the
        # finite-support correlation and gives the one-step weight exactly
        code, out, _ = run(capsys, "predict", "--model", "explicit",
                           "--mapoly", "1,0.5,0.25,0.125",
                           "--arpoly=-1,0.5", "--n", "3",
                           "--source", "explicit")
        assert code == 0
        _, rows = csv_rows(out)
        assert [float(r[1]) for r in rows] == [0.5, 0.0, 0.0]

    def test_explicit_white_noise_both_routes(self, capsys):
        code, out, _ = run(capsys, "predict", "--model", "explicit",
                           "--mapoly", "2", "--arpoly=-0.5", "--n", "3")
        assert code == 0
        _, rows = csv_rows(out)
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


class TestExperimentCommands:
    def test_rate(self, capsys):
        code, out, _ = run(capsys, "rate", "--model", "farima", "--d", "0.3",
                           "--n", "64..128", "--j", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "phi_nj", "rate", "limit"]
        assert doc["meta"]["n"] == [64, 128]
        assert doc["meta"]["limit"] == pytest.approx(0.09, abs=1e-6)
        for row in doc["rows"]:
            assert row[3] == doc["meta"]["limit"]
            assert abs(row[2] - 0.09) < 0.01

    def test_rate_repeated_n(self, capsys):
        code, out, _ = run(capsys, "rate", "--model", "farima", "--d", "0.3",
                           "--n", "64,128,128", "--j", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["n"] == [64, 128]
        assert [row[0] for row in doc["rows"]] == [64, 128]
        assert doc["meta"]["extrapolated"] == pytest.approx(0.09, abs=1e-3)

    def test_baxter(self, capsys):
        code, out, _ = run(capsys, "baxter", "--model", "farima", "--d", "0.3",
                           "--n", "16..64", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "lhs", "rhs", "ratio"]
        assert [row[0] for row in doc["rows"]] == [16, 32, 64]
        assert 0.1 < doc["meta"]["sup_ratio"] < 0.5

    def test_dkscale(self, capsys):
        code, out, _ = run(capsys, "dkscale", "--model", "farima", "--d", "0.3",
                           "--n", "256", "--k", "1", "--u", "0",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["k", "n", "n_dk", "target"]
        (k, n, n_dk, target), = doc["rows"]
        assert (k, n) == (1, 256)
        assert abs(n_dk - target) / target < 0.02

    def test_baxter_repeated_n(self, capsys):
        code, out, _ = run(capsys, "baxter", "--model", "farima", "--d", "0.3",
                           "--n", "16,16", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["n"] == [16]
        assert [row[0] for row in doc["rows"]] == [16]

    def test_dkscale_repeated_n_and_k(self, capsys):
        code, out, _ = run(capsys, "dkscale", "--model", "farima", "--d", "0.3",
                           "--n", "64,64,32", "--k", "2,1,2", "--u", "0",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["meta"]["n"], doc["meta"]["k"]) == ([32, 64], [1, 2])
        assert [row[:2] for row in doc["rows"]] == [[1, 32], [1, 64], [2, 32], [2, 64]]

    def test_range_and_list_mix(self, capsys):
        code, out, _ = run(capsys, "baxter", "--model", "farima", "--d", "0.3",
                           "--n", "8,16..32", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["n"] == [8, 16, 32]


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample configuration\n"
                       "model = ar1\n"
                       "r = 0.25\n"
                       "format = json\n")
        code, out, _ = run(capsys, "predict", "--config", str(cfg), "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["r"] == 0.25
        assert doc["rows"][0][2] == 0.25

        code, out, _ = run(capsys, "predict", "--config", str(cfg), "--n", "2",
                           "--r", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["r"] == 0.5
        assert doc["rows"][0][2] == 0.5

    def test_config_text_values(self, capsys, tmp_path):
        # a boolean is read from its text; a bad boolean and a line with no
        # "=" are one config line each
        cfg = tmp_path / "run.cfg"
        base = ("predict", "--config", str(cfg), "--model", "farima", "--d", "0.3",
                "--n", "2", "--source", "explicit", "--format", "json")
        cfg.write_text("terms = yes\n")
        code, out, _ = run(capsys, *base)
        assert code == 0
        assert any(c.startswith("g") for c in json.loads(out)["columns"])
        for text in ("terms = maybe\n", "terms\n"):
            cfg.write_text(text)
            code, out, err = run(capsys, *base)
            assert code == 2 and out == ""
            assert_one_config_line(err)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "coeffs", "--config", str(cfg))
        assert code == 2
        assert "error=config" in err and "bogus" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "coeffs", "--config",
                           str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "error=config" in err


class TestOutputDiscipline:
    def test_csv_line_endings(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--model", "ar1", "--r", "0.5",
                        "--N", "2")
        assert "\r" not in out
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_byte_determinism_across_destinations(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ("predict", "--model", "farima", "--d", "0.3", "--n", "8",
                "--format", "json")
        assert run(capsys, *args, "--out", str(f1))[0] == 0
        assert run(capsys, *args, "--out", str(f2))[0] == 0
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert f1.read_bytes() == f2.read_bytes() == out.encode()

    def test_out_file_silences_stdout(self, capsys, tmp_path):
        dest = tmp_path / "t.csv"
        code, out, _ = run(capsys, "coeffs", "--model", "ar1", "--r", "0.5",
                           "--N", "2", "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("n,c,a,gamma,phi\n")

    def test_float_rendering_round_trips(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--model", "farima", "--d", "0.3",
                        "--N", "8")
        _, rows = csv_rows(out)
        gamma = pl.autocov(pl.Farima(0.3), 8).values
        for row, want in zip(rows, gamma):
            assert float(row[3]) == want
        assert not any(cell.startswith("-0,") or cell == "-0"
                       for row in rows for cell in row)

    def test_column_renderer_formats_every_cell(self):
        cols = {
            "i": range(3),
            "k": [np.int64(-7), np.int32(2 ** 31 - 1), np.int16(0)],
            "big": np.array([2 ** 62, -(2 ** 53) - 1, 1], dtype=np.int64),
            "x": [0.1, -0.0, 5e-324],
            "y": np.array([np.nan, 0.12345678901234568, -1.0000000000000002]),
            "z": np.array([-np.inf, 2.0 ** -1074 * 3, 1e308]),
        }
        expected = [
            [str(int(v)) for v in col] if name in ("i", "k", "big")
            else [format(float(v) + 0.0, ".17g") for v in col]
            for name, col in cols.items()
        ]
        rows = [",".join(row) for row in zip(*expected)]
        assert cli._render_csv(cols) == "\n".join([",".join(cols), *rows]) + "\n"
        # JSON has no nan or inf: a non-finite cell is null, in rows and in meta
        text = cli._render_json({"command": "t", "x": np.nan, "y": (1.0, -np.inf)}, cols)
        json_rows = [",".join("null" if cell in ("nan", "inf", "-inf") else cell
                              for cell in row) for row in zip(*expected)]
        assert text.endswith('"rows":[' + ",".join(f"[{r}]" for r in json_rows) + "]}\n")
        assert "-0," not in text and "nan" not in text and "inf" not in text
        doc = json.loads(text)
        assert doc["meta"] == {"command": "t", "x": None, "y": [1, None]}
        assert doc["rows"][0][4] is None and doc["rows"][0][5] is None


class TestParserReuse:
    """The parser is built once per process; reusing it changes nothing."""

    @staticmethod
    def fresh(capsys, argv):
        cli._build_parser.cache_clear()
        return run(capsys, *argv)

    @pytest.mark.parametrize("first, first_code, second", [
        (["coeffs", "--bogus", "1"], 2,
         ["coeffs", "--model", "ar1", "--r", "0.5", "--N", "3"]),
        (["predict", "--model"], 2, ["predict", "--model", "ar1", "--r", "0.5", "--n", "4"]),
        (["predict", "--help"], 0,
         ["predict", "--model", "ar1", "--r", "0.5", "--n", "4", "--m", "2", "--format", "json"]),
    ], ids=["parse-error", "missing-value", "help"])
    def test_sequence_matches_fresh_calls(self, capsys, first, first_code, second):
        expected = [self.fresh(capsys, argv) for argv in (first, second)]
        cli._build_parser.cache_clear()
        got = [run(capsys, *argv) for argv in (first, second)]
        assert cli._build_parser() is cli._build_parser()
        assert got == expected
        assert [code for code, _, _ in got] == [first_code, 0]


class TestExitCodes:
    def test_regime_mismatch(self, capsys):
        code, _, err = run(capsys, "rate", "--model", "ar1", "--r", "0.5",
                           "--n", "16..32")
        assert code == 2
        assert "error=config" in err

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "coeffs", "--bogus", "1")
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert "--bogus" in err

    def test_unknown_model(self, capsys):
        code, out, err = run(capsys, "coeffs", "--model", "bogus")
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert "'bogus'" in err

    def test_bad_format_same_from_flag_and_config(self, capsys, tmp_path):
        cfg = tmp_path / "xml.cfg"
        cfg.write_text("format = xml\n")
        base = ("coeffs", "--model", "ar1", "--r", "0.5")
        flag = run(capsys, *base, "--format", "xml")
        from_file = run(capsys, *base, "--config", str(cfg))
        assert flag == from_file
        assert flag[0] == 2
        assert_one_config_line(flag[2])

    def test_negative_tol_rejected_by_coeffs(self, capsys):
        code, out, err = run(capsys, "coeffs", "--model", "ar1", "--r", "0.5",
                             "--tol", "-1")
        assert code == 2 and out == ""
        assert_one_config_line(err)

    def test_negative_tol_rejected_by_predict(self, capsys):
        code, out, err = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                             "--n", "4", "--tol", "-1")
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert "tol must be positive" in err

    @pytest.mark.parametrize("command, key", [
        ("coeffs", "vmax"), ("coeffs", "kmax"), ("coeffs", "tol"),
        ("predict", "vmax"), ("rate", "vmax"), ("rate", "kmax"),
        ("baxter", "vmax"), ("baxter", "kmax"), ("dkscale", "vmax"), ("dkscale", "kmax")])
    def test_policy_keys_refused(self, capsys, tmp_path, command, key):
        # a subcommand takes only the policy keys that reach its output:
        # V reaches none, and K only predict's --terms columns
        argv = (command, "--model", "farima", "--d", "0.3")
        code, out, err = run(capsys, *argv, f"--{key}", "4")
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert f"--{key}" in err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}=4\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize("command, keys", [
        ("coeffs", []), ("predict", ["kmax", "tol"]), ("rate", ["tol"]),
        ("baxter", ["tol"]), ("dkscale", ["tol"])])
    def test_policy_keys_in_meta(self, capsys, command, keys):
        # meta carries each policy key the subcommand takes, null when unset;
        # coeffs runs no explicit series, so it has none
        argv = {"coeffs": ("--N", "2"), "predict": ("--n", "4"),
                "rate": ("--n", "16"), "baxter": ("--n", "16"),
                "dkscale": ("--n", "16", "--k", "1")}[command]
        code, out, _ = run(capsys, command, "--model", "farima", "--d", "0.3",
                           *argv, "--format", "json")
        assert code == 0
        meta = json.loads(out)["meta"]
        assert [key for key in ("vmax", "kmax", "tol") if key in meta] == keys

    @pytest.mark.parametrize("model", [("farima", "--d", "0.3", "--arpoly", "abc"),
                                       ("explicit", "--arpoly=-1", "--mapoly", "abc")])
    def test_unparseable_coefficients_are_config_errors(self, capsys, model):
        code, out, err = run(capsys, "coeffs", "--model", *model)
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert "'abc'" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "predictorlab" in capsys.readouterr().out

    def test_unwritable_out(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "coeffs", "--model", "ar1", "--r", "0.5",
                             "--out", str(dest))
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert str(dest) in err
        assert not dest.exists()

    def test_foreign_model_parameter(self, capsys):
        code, _, err = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                           "--d", "0.3", "--n", "4")
        assert code == 2
        assert "does not apply" in err

    def test_model_validation(self, capsys):
        code, _, err = run(capsys, "coeffs", "--model", "ar1", "--r", "1.5")
        assert code == 3
        assert "error=model" in err

    def test_levels_is_unknown(self, capsys, tmp_path):
        # no policy control sets a ladder of cutoffs: the flag and the key are unknown
        code, out, err = run(capsys, "predict", "--model", "farima", "--d", "0.3",
                             "--n", "8", "--levels", "1")
        assert code == 2 and out == ""
        assert_one_config_line(err)
        assert "--levels" in err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("levels=1\n")
        code, out, err = run(capsys, "predict", "--model", "farima", "--d", "0.3",
                             "--n", "8", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "unknown config key 'levels'" in err

    def test_kmax_leaves_long_memory_values(self, capsys):
        # on the quadrature K only caps the per-term record: the weights of
        # an MA-factored model are the default's, byte for byte
        argv = ("predict", "--model", "farima", "--d", "0.3", "--mapoly=1,0.5",
                "--n", "4", "--source", "explicit")
        code, want, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run(capsys, *argv, "--kmax", "2")
        assert code == 0 and err == ""
        assert out == want

    @pytest.mark.parametrize("model", [("--d", "0.2", "--mapoly=1,0.95"),
                                       ("--d", "0", "--mapoly=1,0.99")])
    def test_slowly_contracting_series_solved(self, capsys, model):
        # an MA root near the unit circle makes the series contract slowly;
        # the solve still agrees with Levinson
        code, out, err = run(capsys, "predict", "--model", "farima", *model,
                             "--n", "2", "--source", "both")
        assert code == 0
        assert "error" not in err
        _, rows = csv_rows(out)
        assert max(float(r[3]) for r in rows) < 1e-8

    def test_warning_is_one_line(self, capsys, monkeypatch):
        # a slowly contracting short-memory series is solved without a word
        argv = ("predict", "--model", "farima", "--d", "0", "--mapoly=1,0.9", "--n", "16")
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        # a warning the library does raise is one line, with no source location
        real = cli.finite_predictor_multistep

        def warned(*args, **kwargs):
            warnings.warn("first line\n  second line", stacklevel=2)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "finite_predictor_multistep", warned)
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == "predictorlab: warning: first line second line\n"

    def test_depth_budget_past_exact_zeros(self, capsys):
        # every AR(1) term after g_1 is an exact zero, so K = 2 leaves nothing
        code, out, err = run(capsys, "predict", "--model", "ar1", "--r", "0.5",
                             "--n", "4", "--kmax", "2")
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        assert [float(r[2]) for r in rows] == [0.5, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--N", "4", "--arpoly=1,-0.999999"),
        ("predict", "--n", "4", "--arpoly=1,-0.999999", "--source", "levinson"),
        ("predict", "--n", "4", "--mapoly=1,0.9999999", "--source", "explicit"),
    ], ids=["autocov", "levinson", "beta"])
    def test_undecayed_factor(self, capsys, argv):
        # a factor still of order one at 2^20 terms is one truncation line
        code, out, err = run(capsys, *argv[:1], "--model", "farima", "--d", "0.3",
                             *argv[1:])
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "error=truncation" in err

    def test_short_memory_rounding_refused(self, capsys):
        # at d = 0 no factor is expanded, so an MA root at 1/0.9999999 is no
        # undecayed factor; the closed form's rounding bound refuses it
        code, out, err = run(capsys, "predict", "--model", "farima", "--d", "0",
                             "--mapoly=1,0.9999999", "--n", "4", "--source", "explicit")
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "error=truncation" in err and "rounding" in err

    def test_kmax_leaves_short_memory_output(self, capsys):
        # no short-memory output depends on K: --kmax 2 prints the default's
        # bytes, weights, route check and per-term record alike
        argv = ("predict", "--model", "farima", "--d", "0", "--mapoly=1,0.5,0.3", "--n", "4")
        for extra in ((), ("--source", "explicit", "--terms")):
            code, want, err = run(capsys, *argv, *extra)
            assert code == 0 and err == ""
            code, out, err = run(capsys, *argv, *extra, "--kmax", "2")
            assert code == 0 and err == "" and out == want

    def test_dkscale_strong_memory(self, capsys):
        # the quadrature's d_k have no cutoff whose error d = 0.45 outruns
        code, out, err = run(capsys, "dkscale", "--model", "farima", "--d", "0.45",
                             "--n", "512..2048", "--k", "1,2,3", "--u", "0")
        assert code == 0 and err == ""
        _, rows = csv_rows(out)
        assert len(rows) == 9

    def test_dkscale_tail_over_tol(self, capsys):
        # the quadrature's residual at n = 512 is about 3e-10
        code, out, err = run(capsys, "dkscale", "--model", "farima", "--d", "0.3",
                             "--n", "512", "--k", "1,2,3", "--u", "0", "--tol", "1e-12")
        assert code == 4 and out == ""
        assert "error=truncation" in err and "quadrature" in err

    def test_route_disagreement(self, capsys, monkeypatch):
        real = pl.multistep_normal_solve

        def corrupted(gamma, n, m):
            table = real(gamma, n, m)
            return dataclasses.replace(table, coefficients=table.coefficients + 0.01)

        monkeypatch.setattr("predictorlab.cli.multistep_normal_solve", corrupted)
        code, _, err = run(capsys, "predict", "--model", "farima", "--d", "0.3",
                           "--n", "8")
        assert code == 5
        assert "error=disagreement" in err

    def test_nan_route_is_a_disagreement(self, capsys, monkeypatch):
        # a NaN passes no comparison: one NaN Levinson weight is a
        # disagreement, not a JSON document with a bare nan in it
        real = pl.multistep_normal_solve

        def one_nan(gamma, n, m):
            table = real(gamma, n, m)
            coefficients = table.coefficients.copy()
            coefficients[2] = np.nan
            return dataclasses.replace(table, coefficients=coefficients)

        monkeypatch.setattr("predictorlab.cli.multistep_normal_solve", one_nan)
        code, out, err = run(capsys, "predict", "--model", "farima", "--d", "0.3",
                             "--n", "8", "--format", "json")
        assert code == 5 and out == ""
        assert err.count("\n") == 1 and "error=disagreement" in err

    def test_nan_residual_is_a_truncation(self, capsys, monkeypatch):
        # a weight that is NaN on both grids leaves a NaN residual, which
        # passes no tol_tail
        real = explicit._moment_run

        def one_nan(*args):
            phi = real(*args).copy()
            phi[2] = np.nan
            return phi

        monkeypatch.setattr(explicit, "_moment_run", one_nan)
        code, out, err = run(capsys, "predict", "--model", "farima", "--d", "0.3",
                             "--n", "8", "--source", "explicit", "--format", "json")
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "error=truncation" in err

    def test_missing_required_n(self, capsys):
        code, _, err = run(capsys, "predict", "--model", "ar1", "--r", "0.5")
        assert code == 2
        assert "error=config" in err


#: edge requests of the exit-code contract, each with the code it returns
_EDGE_REQUESTS = [
    ("predict --model ar1 --r 0.5 --n 1 --source explicit --terms", 0),
    ("predict --model farima --d 0.3 --n 1 --terms", 0),
    ("predict --model farima --d 0.3 --n 4 --m 8", 0),
    ("predict --model farima --d 0.3 --n 8 --kmax 1 --source explicit --terms", 0),
    ("predict --model farima --d 1e-9 --n 8", 0),
    ("predict --model farima --d 0.3 --n 8 --tol 1e-300", 4),
    ("predict --model ar1 --r 1.5 --n 4", 3),
    # an explicit a sequence cut short is another process than its c: the
    # routes disagree
    ("predict --model explicit --mapoly=1,0.5 --arpoly=-1,0.5,-0.25 --n 4", 5),
    ("predict --model explicit --mapoly=1,0.5 --arpoly=-1,0.5,-0.25 --n 4 "
     "--source explicit --terms", 0),
    ("rate --model farima --d 0.3 --n 8 --j 8", 0),
    ("rate --model farima --d 0.3 --n 8 --j 9", 2),
    ("rate --model farima --d 1e-9 --n 8,16", 0),
    # the default d_k window at d < 1/3, n = 512 is 16384
    ("dkscale --model farima --d 0.3 --n 512 --k 1 --u 16383", 0),
    ("dkscale --model farima --d 0.3 --n 512 --k 1 --u 16384", 2),
    # d_4 and d_5 are below the series' stopping tolerance; d_70 underflows
    ("dkscale --model farima --d 0.001 --n 512 --k 5 --u 0", 0),
    ("dkscale --model farima --d 0.001 --n 512,1024 --k 1,2,3,4,5 --u 0", 0),
    ("dkscale --model farima --d 1e-6 --n 512 --k 70 --u 0", 2),
    # malformed values and models: one config line each
    ("rate --model farima --d 0.3 --n 8,,16", 2),
    ("rate --model farima --d 0.3 --n 64..8", 2),
    ("coeffs --model ar1 --r 0.5 --N x", 2),
    ("coeffs --model ar1 --r 0.5 --N -1", 2),
    ("coeffs --N 4", 2),
    ("coeffs --model ar1", 2),
    ("coeffs --model farima", 2),
    ("coeffs --model explicit --mapoly=1,0.5", 2),
]


@pytest.mark.parametrize("argv, want", _EDGE_REQUESTS, ids=[a for a, _ in _EDGE_REQUESTS])
def test_exit_code_contract(capsys, argv, want):
    # every request ends in a documented exit code, with at most one stderr
    # line and no exception; a dkscale that succeeds has a row for every
    # (k, n) it was asked for
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert code == want
    assert err.count("\n") <= 1
    assert (out == "") == (code != 0)
    doc = json.loads(out) if code == 0 else None
    if doc and argv.startswith("dkscale"):
        meta = doc["meta"]
        assert [row[:2] for row in doc["rows"]] == [[k, n] for k in meta["k"] for n in meta["n"]]


def test_import_leaves_slow_scipy_modules_out():
    # scipy.signal, scipy.integrate, scipy.special (which scipy.fft pulls in)
    # and scipy.linalg take most of a cold start; neither the CLI import nor
    # a one- or multistep Levinson request for fractional noise or an AR(1),
    # nor both routes for fractional noise, needs them
    code = ("import sys; from predictorlab.cli import main; "
            "main(['predict', '--model', 'ar1', '--r', '0.5', '--n', '8', "
            "'--source', 'levinson']); "
            "main(['predict', '--model', 'farima', '--d', '0.3', '--n', '8', "
            "'--source', 'levinson']); "
            "main(['predict', '--model', 'farima', '--d', '0.3', '--n', '8', "
            "'--m', '2', '--source', 'levinson']); "
            "main(['predict', '--model', 'farima', '--d', '0.3', '--n', '8', "
            "'--source', 'both']); "
            "print(sorted(m for m in ('scipy.signal', 'scipy.integrate', 'scipy.special', "
            "'scipy.linalg') if m in sys.modules), file=sys.stderr)")
    err = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stderr
    assert err == "[]\n"


def test_factored_levinson_request_leaves_scipy_signal_out():
    # the ARMA factors' expansion filters with numpy and a banded solve
    code = ("import sys; from predictorlab.cli import main; "
            "main(['predict', '--model', 'farima', '--d', '0.3', '--arpoly=1,-0.5', "
            "'--mapoly=1,0.4', '--n', '8', '--source', 'levinson']); "
            "print('scipy.signal' in sys.modules, file=sys.stderr)")
    err = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stderr
    assert err == "False\n"
