"""End-to-end CLI checks: formats, exit codes, round-trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from logtan.core import ZetaExpr, parse_zeta_expr

# Modules that no request except `project` and `verify` may load.
NOT_FOR_EXACT = {"dataclasses", "logtan.projection", "logtan.series", "logtan.verify"}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "logtan.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExactCommand:
    def test_linear_moment_text(self):
        out = run_cli("exact", "0,1")
        assert out.returncode == 0
        assert "7/8 * zeta(3)" in out.stdout
        assert "1.05179979026464" in out.stdout

    def test_quadratic_json(self):
        out = run_cli("exact", "0,0,1", "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert set(payload) == {"command", "inputs", "exact", "numeric", "oracle",
                                "delta", "checks"}
        assert payload["exact"] == "7/16 * pi * zeta(3)"
        assert payload["delta"] <= 1e-9
        assert parse_zeta_expr(payload["exact"])  # round-trips

    def test_constant_renders_zero(self):
        out = run_cli("exact", "5")
        assert out.returncode == 0
        assert "exact: 0" in out.stdout

    def test_scaled_variable(self):
        # coefficients read in u = 2x/pi: L(2x/pi) = (2/pi)(7/8) zeta(3)
        out = run_cli("exact", "0,1", "--var", "scaled", "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["exact"] == "7/4 * pi^-1 * zeta(3)"

    def test_round_trip_parse(self):
        from fractions import Fraction

        from logtan.closed_forms import exact_L
        from logtan.core import Polynomial

        out = run_cli("exact", "0,-2,0,3", "--format", "json")
        payload = json.loads(out.stdout)
        parsed = parse_zeta_expr(payload["exact"])
        expected = exact_L(Polynomial.from_rationals([0, Fraction(-2), 0, Fraction(3)]))
        assert isinstance(parsed, ZetaExpr)
        assert parsed == expected

    def test_parse_error_exit_code(self):
        out = run_cli("exact", "0,abc,1")
        assert out.returncode == 2
        assert "position 1" in out.stderr

    def test_empty_spec_rejected(self):
        out = run_cli("exact", "  ")
        assert out.returncode == 2

    def test_zero_denominator_rejected(self):
        out = run_cli("exact", "1/0")
        assert out.returncode == 2


class TestProjectCommand:
    def test_sqrt_five_terms(self):
        out = run_cli("project", "sqrt", "--terms", "5", "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] - 0.688084888082269) <= 1e-9
        assert abs(payload["oracle"]["value"] - 0.689247) <= 5e-6
        assert abs(payload["delta"] - 1.16e-3) <= 1e-4
        assert len(payload["inputs"]["coefficients"]) == 6

    def test_monomial_exact(self):
        out = run_cli("project", "x", "--terms", "1", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["delta"] < 1e-10

    def test_even_legendre_zero(self):
        out = run_cli("project", "legendre2", "--terms", "4", "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"]) <= 1e-11

    def test_unknown_function(self):
        out = run_cli("project", "bogus", "--terms", "2")
        assert out.returncode == 2
        assert "catalog" in out.stderr

    def test_bad_terms(self):
        out = run_cli("project", "sqrt", "--terms", "0")
        assert out.returncode == 2


class TestQuadCommand:
    def test_plain_constant(self):
        out = run_cli("quad", "x0", "--plain", "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] - math.pi / 2) <= 1e-10

    def test_parameterized_function(self):
        out = run_cli("quad", "cos:0.5", "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] + math.log(2)) <= 1e-9

    def test_subinterval(self):
        out = run_cli("quad", "x0", "--b", str(math.pi / 4), "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] + 0.915965594177219) <= 1e-9

    def test_tol_floor(self):
        out = run_cli("quad", "x", "--tol", "1e-14")
        assert out.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["quad", "exp:inf"],
        ["quad", "sinh:nan"],
        ["project", "cos:inf", "--terms", "3"],
        ["quad", "x", "--a", "nan"],
        ["quad", "x", "--b", "nan"],
        ["quad", "x", "--b", "inf"],
        ["quad", "x", "--a=-inf"],
    ])
    def test_non_finite_parameter_is_a_usage_error(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [out.stderr.strip()]
        assert out.stderr.startswith("error: ")


class TestConstantsCommand:
    def test_zeta(self):
        out = run_cli("constants", "zeta", "3", "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] - 1.20205690315959) <= 1e-12

    def test_catalan(self):
        out = run_cli("constants", "catalan", "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] - 0.915965594177219) <= 1e-12

    def test_catalan_rejects_an_argument(self):
        out = run_cli("constants", "catalan", "5")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1

    def test_digamma(self):
        out = run_cli("constants", "digamma", "0.5", "--format", "json")
        payload = json.loads(out.stdout)
        assert abs(payload["numeric"]["value"] + 1.96351002602142) <= 1e-12

    def test_missing_argument(self):
        out = run_cli("constants", "zeta")
        assert out.returncode == 2

    def test_zeta_argument_beyond_float_range(self):
        out = run_cli("constants", "zeta", str(10**400), "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["numeric"] == {"value": 1.0, "err_bound": 4e-16}

    @pytest.mark.parametrize("value", ["-1", "inf", "nan"])
    def test_bad_argument(self, value):
        out = run_cli("constants", "digamma", value)
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1


class TestVerifyCommand:
    def test_exact_suite_passes(self):
        out = run_cli("verify", "exact")
        assert out.returncode == 0
        assert "L(x)=7/8 zeta(3)" in out.stdout
        assert "FAIL" not in out.stdout

    def test_constants_suite_passes(self):
        out = run_cli("verify", "constants")
        assert out.returncode == 0
        assert "psi(1/2) = -gamma - 2 log 2" in out.stdout

    def test_series_suite_passes(self):
        out = run_cli("verify", "series")
        assert out.returncode == 0
        assert "catalan_series N=10" in out.stdout

    def test_json_schema(self):
        out = run_cli("verify", "exact", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["command"] == "verify"
        assert all(row["pass"] for row in payload["checks"])

    def test_csv_header(self):
        out = run_cli("verify", "constants", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        assert rows[0] == ["command", "name", "exact", "numeric", "oracle",
                           "delta", "expected", "got", "tolerance", "status"]
        assert all(row[9] == "pass" for row in rows[1:])

    def test_failing_check_exits_one(self, monkeypatch, capsys):
        from logtan import cli
        from logtan.verify import CheckRow

        monkeypatch.setattr(
            "logtan.verify.run_suite",
            lambda suite, tol: [CheckRow("forced failure", "0", "1", 0.0, False)],
        )
        assert cli.main(["verify", "exact"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestOutputFile:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        out = run_cli("exact", "0,1", "--format", "json", "--out", str(target))
        assert out.returncode == 0
        assert out.stdout == ""
        payload = json.loads(target.read_text())
        assert payload["exact"] == "7/8 * zeta(3)"

    def test_out_in_missing_directory_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        out = run_cli("constants", "catalan", "--out", str(target))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: --out: ") and out.stderr.count("\n") == 1
        assert not target.parent.exists()

    def test_csv_single_row(self):
        out = run_cli("exact", "0,1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        assert len(rows) == 2
        assert rows[1][2] == "7/8 * zeta(3)"


class TestEnvironment:
    @pytest.mark.parametrize("raw", ["2", "", "abc", "0"])
    def test_max_levels_variable_changes_nothing(self, raw):
        # The quadrature depth comes from the call; the process environment
        # has no say in it, whatever the variable holds.
        env = {k: v for k, v in os.environ.items() if k != "LOGTAN_MAX_LEVELS"}
        unset = run_cli("quad", "sqrt", "--format", "json", env=env)
        out = run_cli("quad", "sqrt", "--format", "json", env=dict(env, LOGTAN_MAX_LEVELS=raw))
        assert unset.returncode == out.returncode == 0
        assert out.stdout == unset.stdout

    @pytest.mark.parametrize("argv, unused", [
        (["constants", "zeta", "3"], NOT_FOR_EXACT | {"logtan.closed_forms"}),
        (["quad", "x"], NOT_FOR_EXACT | {"logtan.closed_forms"}),
        (["bogus"], NOT_FOR_EXACT | {"logtan.closed_forms"}),
        (["exact", "0,1"], NOT_FOR_EXACT),
    ])
    def test_request_loads_only_the_modules_it_runs(self, argv, unused):
        code = ("import sys\n"
                "from logtan import cli\n"
                "try:\n"
                "    cli.main(sys.argv[1:])\n"
                "except SystemExit:\n"
                "    pass\n"
                "print(*sorted(sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True)
        assert out.returncode == 0
        loaded = set(out.stdout.splitlines()[-1].split())
        assert {"logtan.cli", "logtan.core", "logtan.quadrature"} <= loaded
        assert not loaded & unused

    def test_import_leaves_out_mpmath(self):
        code = "import sys, logtan.cli; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "False"
