import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import extgauss
from extgauss.cli import DEMOS, main
from extgauss.dsl import PosteriorReport, interpret
from extgauss.extended import ExtendedGaussian

EXACT = "x ~ normal(0,1)\ny ~ normal(0,1)\nobserve x == y\nreturn x\n"
INFEASIBLE = "x = 0\nobserve x == 1\nreturn x\n"
BROKEN = "x ~ normal(0 1)\nreturn x\n"


@pytest.fixture
def exact_file(tmp_path):
    path = tmp_path / "exact.gx"
    path.write_text(EXACT)
    return str(path)


class TestRun:
    def test_json_output(self, exact_file, capsys):
        assert main(["run", exact_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["variables"] == ["x"]
        np.testing.assert_allclose(data["mean"], [0.0], atol=1e-10)
        np.testing.assert_allclose(data["cov"], [[0.5]], atol=1e-10)
        assert data["nondet_basis"] == []
        assert data["tolerance"] == 1e-8

    def test_pretty_output_default(self, exact_file, capsys):
        assert main(["run", exact_file]) == 0
        out = capsys.readouterr().out
        assert "variables: x" in out
        assert "nondeterministic directions: (none)" in out

    def test_text_output_lists_the_nondeterministic_directions(self, tmp_path, capsys):
        path = tmp_path / "flat.gx"
        path.write_text("x ~ uniform()\ny = 2*x\nreturn x, y\n")
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        prefix = "nondeterministic directions: "
        [basis] = [json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)]
        np.testing.assert_allclose(basis, [[1 / np.sqrt(5), 2 / np.sqrt(5)]], atol=1e-12)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.gx"
        path.write_text(BROKEN)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "bad.gx:1:" in err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unclosed_deep_nest_exit_code(self, tmp_path, capsys, command):
        # 2,000 open parentheses and one fewer closed: a parse error with
        # its position, not a RecursionError traceback
        path = tmp_path / "deep.gx"
        path.write_text("x = " + "(" * 2000 + "1" + ")" * 1999 + "\nreturn x\n")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "deep.gx:2:1: expected ')', found 'return'" in captured.err

    def test_check_subcommand(self, tmp_path, exact_file, capsys):
        assert main(["check", exact_file]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "bad.gx"
        bad.write_text(BROKEN)
        assert main(["check", str(bad)]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_type_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "scope.gx"
        path.write_text("observe x == 0\nreturn x\n")
        assert main(["run", str(path)]) == 1
        assert "undefined variable" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "impossible.gx"
        path.write_text(INFEASIBLE)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "impossible.gx:2:1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "f.gx", "--tol", "abc"],
            ["demo", "nosuch"],
            ["run", "f.gx", "--bogus"],
            ["run", "f.gx", "--pretty"],
        ],
        ids=["bad-tol-value", "unknown-demo", "unknown-option", "removed-pretty"],
    )
    def test_usage_error_exit_code(self, argv, capsys):
        # exit code 2 is reserved for infeasible observations
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.gx")]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_non_utf8_file_exit_code(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.gx"
        path.write_bytes(b"\xff x ~ normal(0,1)\nreturn x\n")
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "utf-8" in captured.err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, command):
        path = tmp_path / "bom.gx"
        path.write_bytes(b"\xef\xbb\xbf" + EXACT.encode())
        assert main([command, str(path)]) == 0
        expected = f"ok: {path}\n" if command == "check" else "variables: x\n"
        assert expected in capsys.readouterr().out

    def test_large_variance_is_returned(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows, so symmetrizing as (c + c.T) / 2 made it inf
        path = tmp_path / "large.gx"
        path.write_text("x ~ normal(0, 1e308)\nreturn x\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cov"] == [[1e308]]

    def test_observed_large_variance_is_answered(self, tmp_path, capsys):
        # the rank cut is anchored at the largest variance, 1e308, which is
        # finite although the joint of (x, x) has norm 2e308
        path = tmp_path / "large.gx"
        path.write_text("x ~ normal(0, 1e308); observe x == 1; return x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mean"] == [1.0] and data["cov"] == [[0.0]]

    def test_large_observation_coefficient_keeps_the_nondeterminism(self, tmp_path, capsys):
        # a rank cut relative to the norm of [obs; I] dropped x2's direction
        path = tmp_path / "steep.gx"
        path.write_text("x1 ~ uniform()\nx2 ~ uniform()\nobserve 1e11*x1 == 1\nreturn x1, x2\n")
        assert main(["run", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nondet_basis"] == [[0.0, 1.0]]
        np.testing.assert_allclose(data["mean"], [1e-11, 0.0], rtol=1e-12, atol=0.0)

    def test_tol_flag(self, exact_file, capsys):
        assert main(["run", exact_file, "--json", "--tol", "1e-6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tolerance"] == 1e-6

    def test_env_tolerance(self, exact_file, capsys, monkeypatch):
        monkeypatch.setenv("GX_TOL", "1e-5")
        assert main(["run", exact_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-5

    def test_flag_beats_env(self, exact_file, capsys, monkeypatch):
        monkeypatch.setenv("GX_TOL", "1e-5")
        assert main(["run", exact_file, "--json", "--tol", "1e-7"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-7

    def test_invalid_env_tolerance(self, exact_file, capsys, monkeypatch):
        monkeypatch.setenv("GX_TOL", "not-a-number")
        assert main(["run", exact_file]) == 1
        assert "invalid tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_out_of_range_env_tolerance(self, exact_file, capsys, monkeypatch, value):
        monkeypatch.setenv("GX_TOL", value)
        assert main(["run", exact_file, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid tolerance" in captured.err

    def test_infinite_tol_flag_rejected(self, exact_file, capsys):
        assert main(["run", exact_file, "--json", "--tol", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid tolerance" in captured.err

    @pytest.mark.parametrize("as_json", [True, False])
    def test_overflowing_posterior_is_an_error(self, tmp_path, capsys, as_json):
        path = tmp_path / "overflow.gx"
        path.write_text("x ~ normal(0, 1); y = 1e308*x + 1e308*x; return y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second line
            code = main(["run", str(path)] + (["--json"] if as_json else []))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}:1:19: expression for 'y' has a non-finite coefficient of 'x'\n"
        )

    def test_an_overflowing_gain_is_one_line(self, tmp_path, capsys):
        # feasible (x = 1), but the gain spans 2^1063 and overflows: the
        # refusal is the located error alone, with no numpy warning before it
        path = tmp_path / "subnormal.gx"
        path.write_text("x ~ uniform(); y = 1e-320*x; observe y == 1e-320; return x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second line
            code = main(["run", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"{path}:1:30: mean has a NaN or infinite entry\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "x ~ normal(0, 1e400); y ~ normal(x, 1); observe y == 1; return x",
                ":1:15: number '1e400' is not finite",
            ),
            (
                "x ~ normal(0, 1); y = 1e308*x + 1e308*x; z ~ normal(0, 1); "
                "observe z == y; return z",
                ":1:19: expression for 'y' has a non-finite coefficient of 'x'",
            ),
            (
                "x ~ normal(0, 1); observe 1e308*x == 0 - 1e308*x; return x",
                ":1:19: observed residual has a non-finite coefficient of 'x'",
            ),
            (
                "x ~ normal(0, 1); observe x + 1e308 == x - 1e308; return x",
                ":1:19: observed residual has a non-finite constant",
            ),
            (
                "x ~ normal(0, 1e300); y = 1e300*x; return y",
                ":1:23: cov has a NaN or infinite entry",
            ),
            (
                "x ~ normal(0, 1e300); y ~ normal(0, 1); observe 1e10*x == y; return x",
                ":1:41: cov has a NaN or infinite entry",
            ),
            (
                "x ~ normal(0, 1e308); y = x + x; return y",
                ":1:23: cov has a NaN or infinite entry",
            ),
        ],
    )
    def test_non_finite_input_is_an_error(self, tmp_path, capsys, source, message):
        path = tmp_path / "overflow.gx"
        path.write_text(source)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second line
            code = main(["run", str(path), "--json"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}{message}\n"


class TestDemo:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_json_matches_documented_values(self, name, capsys):
        assert main(["demo", name, "--json"]) == 0
        computed = json.loads(capsys.readouterr().out)
        expected = DEMOS[name]["expected"]
        assert list(computed) == list(expected)
        assert computed["variables"] == expected["variables"]
        np.testing.assert_allclose(computed["mean"], expected["mean"], atol=1e-8)
        np.testing.assert_allclose(computed["cov"], expected["cov"], atol=1e-8)
        np.testing.assert_allclose(
            np.abs(np.asarray(computed["nondet_basis"], dtype=float)),
            np.abs(np.asarray(expected["nondet_basis"], dtype=float)),
            atol=1e-8,
        )
        assert computed["tolerance"] == expected["tolerance"]

    def test_pretty_prints_computed_and_expected(self, capsys):
        assert main(["demo", "exact-equality"]) == 0
        out = capsys.readouterr().out
        assert "computed:" in out and "expected:" in out
        assert "observe x == y" in out

    def test_infinite_env_tolerance_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("GX_TOL", "inf")
        assert main(["demo", "exact-equality", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid tolerance" in captured.err

    @pytest.mark.parametrize("as_json", [True, False])
    def test_non_finite_posterior_is_an_error(self, capsys, monkeypatch, as_json):
        def nan_interpret(program, tol):
            report = interpret(program, tol)
            post = report.posterior
            mean = np.full_like(post.mean, np.nan)
            post = ExtendedGaussian._from_normal(post.dec, post.nondet, post.lin, (mean, post.cov))
            return PosteriorReport(report.variables, post, tol.eq_abs_tol)

        monkeypatch.setattr("extgauss.cli.interpret", nan_interpret)
        argv = ["demo", "exact-equality"] + (["--json"] if as_json else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: posterior is not finite" in captured.err

    def test_unknown_demo_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "no-such-demo"])


def _run_module(*args):
    """``python -m extgauss`` in a child that imports the package under test."""
    src = str(Path(extgauss.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "extgauss", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        path = tmp_path / "exact.gx"
        path.write_text(EXACT)
        proc = _run_module("run", str(path), "--json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        np.testing.assert_allclose(data["cov"], [[0.5]], atol=1e-10)

    def test_python_dash_m_infeasible(self, tmp_path):
        path = tmp_path / "imp.gx"
        path.write_text(INFEASIBLE)
        proc = _run_module("run", str(path))
        assert proc.returncode == 2
