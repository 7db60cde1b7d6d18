"""Command-line interface.

Subcommands: ``exact`` (closed form of a polynomial integral), ``project``
(Legendre expansion and truncated zeta series), ``quad`` (direct quadrature),
``constants``, and ``verify`` (built-in check suites).  Global flags:
``--format text|json|csv``, ``--tol``, ``--out``.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .core import PiExpr, Polynomial, format_zeta_expr

# The parser needs quadrature; the handlers import the other modules they run,
# so that a request compiles only those.
from .quadrature import (
    CATALOG_HELP,
    HALF_PI,
    FunctionSpec,
    integrate_logtan,
    integrate_plain,
)

CSV_HEADER = [
    "command", "name", "exact", "numeric", "oracle",
    "delta", "expected", "got", "tolerance", "status",
]


class Report(NamedTuple):
    """One command's result in a format-independent shape.

    ``delta`` is set exactly when both ``numeric`` and ``oracle`` are.
    """

    command: str
    inputs: dict
    exact: str | None = None
    numeric: tuple[float, float] | None = None  # (value, err_bound)
    oracle: tuple[float, float] | None = None  # (value, est_error)
    checks: list | None = None

    @property
    def delta(self) -> float | None:
        if self.numeric is None or self.oracle is None:
            return None
        return abs(self.numeric[0] - self.oracle[0])


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _sig15(v: float) -> float:
    return float(_fmt(v))


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for key, value in report.inputs.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(_fmt(v) if isinstance(v, float) else str(v) for v in value)
        lines.append(f"{key}: {value}")
    if report.exact is not None:
        lines.append(f"exact: {report.exact}")
    if report.numeric is not None:
        lines.append(f"numeric: {_fmt(report.numeric[0])}  (err bound {report.numeric[1]:.2e})")
    if report.oracle is not None:
        lines.append(f"oracle: {_fmt(report.oracle[0])}  (est error {report.oracle[1]:.2e})")
    if report.delta is not None:
        lines.append(f"delta: {report.delta:.3e}")
    if report.checks is not None:
        width = max(len(row.name) for row in report.checks) + 2
        for row in report.checks:
            status = "PASS" if row.passed else "FAIL"
            lines.append(f"{row.name:<{width}} expected={row.expected} got={row.got} "
                         f"tol={row.tolerance:g} {status}")
        failed = sum(1 for row in report.checks if not row.passed)
        lines.append(f"{len(report.checks) - failed}/{len(report.checks)} checks passed")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    import json

    payload = {
        "command": report.command,
        "inputs": report.inputs,
        "exact": report.exact,
        "numeric": None,
        "oracle": None,
        "delta": None,
        "checks": None,
    }
    if report.numeric is not None:
        payload["numeric"] = {"value": _sig15(report.numeric[0]),
                              "err_bound": _sig15(report.numeric[1])}
    if report.oracle is not None:
        payload["oracle"] = {"value": _sig15(report.oracle[0]),
                             "est_error": _sig15(report.oracle[1])}
    if report.delta is not None:
        payload["delta"] = _sig15(report.delta)
    if report.checks is not None:
        payload["checks"] = [
            {"name": row.name, "expected": row.expected, "got": row.got,
             "tolerance": row.tolerance, "pass": row.passed}
            for row in report.checks
        ]
    return json.dumps(payload, indent=2) + "\n"


def render_csv(report: Report) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    name = str(report.inputs.get("function") or report.inputs.get("polynomial")
               or report.inputs.get("name") or report.inputs.get("suite") or "")
    if report.checks is not None:
        for row in report.checks:
            writer.writerow([report.command, row.name, "", "", "", "",
                             row.expected, row.got, f"{row.tolerance:g}",
                             "pass" if row.passed else "fail"])
    else:
        writer.writerow([
            report.command,
            name,
            report.exact if report.exact is not None else "",
            _fmt(report.numeric[0]) if report.numeric else "",
            _fmt(report.oracle[0]) if report.oracle else "",
            _fmt(report.delta) if report.delta is not None else "",
            "", "", "", "",
        ])
    return buf.getvalue()


RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


class UsageError(Exception):
    pass


def parse_rational_list(spec: str) -> list[Fraction]:
    """Comma-separated rationals, ascending degree; 'p' or 'p/q' entries."""
    if not spec.strip():
        raise UsageError("empty polynomial spec")
    out = []
    for pos, token in enumerate(spec.split(",")):
        tok = token.strip()
        if not re.fullmatch(r"[+-]?\d+(/\d+)?", tok or ""):
            raise UsageError(f"position {pos}: cannot parse coefficient {token.strip()!r}")
        if re.fullmatch(r"[+-]?\d+/0+", tok):
            raise UsageError(f"position {pos}: zero denominator in {tok!r}")
        out.append(Fraction(tok))
    return out


def parse_function(name: str) -> FunctionSpec:
    try:
        return FunctionSpec.parse(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_exact(args) -> tuple[Report, int]:
    from .closed_forms import exact_L
    from .constants import eval_zeta_expr

    coeffs = parse_rational_list(args.poly_spec)
    poly = Polynomial.from_rationals(coeffs)
    if args.var == "scaled":
        poly = poly.compose_affine(PiExpr.pi_power(-1, 2), 0)
    value = exact_L(poly)
    numeric = eval_zeta_expr(value)
    oracle = integrate_logtan(FunctionSpec.polynomial(poly), tol=args.tol)
    report = Report(
        command="exact",
        inputs={"polynomial": args.poly_spec, "variable": args.var},
        exact=format_zeta_expr(value),
        numeric=(numeric.value, numeric.err_bound),
        oracle=(oracle.value, oracle.est_error),
    )
    return report, 0


def cmd_project(args) -> tuple[Report, int]:
    from .projection import approx_L, expand

    f = parse_function(args.function)
    coeffs = expand(f, args.terms, tol=min(args.tol, 1e-12))
    approx = approx_L(f, max(1, (args.terms + 1) // 2), tol=min(args.tol, 1e-12))
    oracle = integrate_logtan(f, tol=args.tol)
    report = Report(
        command="project",
        inputs={
            "function": f.describe(),
            "terms": args.terms,
            "coefficients": [_sig15(c) for c in coeffs.coeffs],
        },
        numeric=(approx.value, 0.0),
        oracle=(oracle.value, oracle.est_error),
    )
    return report, 0


def cmd_quad(args) -> tuple[Report, int]:
    f = parse_function(args.function)
    integrate = integrate_plain if args.plain else integrate_logtan
    res = integrate(f, args.a, args.b, tol=args.tol)
    report = Report(
        command="quad",
        inputs={"function": f.describe(), "a": args.a, "b": args.b,
                "weight": "1" if args.plain else "log(tan x)",
                "levels": res.levels_used},
        numeric=(res.value, res.est_error),
    )
    return report, 0


def cmd_constants(args) -> tuple[Report, int]:
    from .constants import catalan, digamma, zeta_int

    name = args.name
    if name == "zeta":
        if args.value is None:
            raise UsageError("constants zeta requires an integer argument")
        try:
            s = int(args.value)
        except ValueError:
            raise UsageError(f"bad zeta argument {args.value!r}") from None
        if s < 2:
            raise UsageError("zeta argument must be >= 2")
        nv = zeta_int(s)
        inputs = {"name": f"zeta({s})"}
    elif name == "catalan":
        if args.value is not None:
            raise UsageError(f"constants catalan takes no argument, got {args.value!r}")
        nv = catalan()
        inputs = {"name": "catalan"}
    elif name == "digamma":
        if args.value is None:
            raise UsageError("constants digamma requires a positive argument")
        try:
            x = float(args.value)
        except ValueError:
            raise UsageError(f"bad digamma argument {args.value!r}") from None
        if not 0 < x < math.inf:
            raise UsageError("digamma argument must be finite and > 0")
        nv = digamma(x)
        inputs = {"name": f"digamma({x:g})"}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown constant {name!r}")
    report = Report(command="constants", inputs=inputs,
                    numeric=(nv.value, nv.err_bound))
    return report, 0


def cmd_verify(args) -> tuple[Report, int]:
    from . import verify

    rows = verify.run_suite(args.suite, tol=min(args.tol, 1e-12))
    report = Report(command="verify", inputs={"suite": args.suite}, checks=rows)
    return report, 0 if all(row.passed for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default text)")
    common.add_argument("--tol", type=float, default=1e-10,
                        help="quadrature tolerance (default 1e-10, floor 1e-13)")
    common.add_argument("--out", default=None, help="write output to a file")

    parser = argparse.ArgumentParser(
        prog="logtan",
        description="Log-tangent integrals: exact zeta-value closed forms, "
                    "Legendre projections, and a verified quadrature oracle.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("exact", parents=[common],
                       help="closed form of the log-tan integral of a polynomial")
    p.add_argument("poly_spec", help="comma-separated rational coefficients, ascending degree")
    p.add_argument("--var", choices=("x", "scaled"), default="x",
                   help="interpret coefficients in x, or in 2x/pi (scaled)")
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("project", parents=[common],
                       help="Legendre expansion and truncated zeta series")
    p.add_argument("function", help=f"integrand name; one of: {CATALOG_HELP}")
    p.add_argument("--terms", type=int, required=True,
                   help="highest basis degree in the expansion (>= 1)")
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("quad", parents=[common], help="direct quadrature")
    p.add_argument("function", help=f"integrand name; one of: {CATALOG_HELP}")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=HALF_PI)
    p.add_argument("--plain", action="store_true",
                   help="integrate f alone instead of f * log(tan x)")
    p.set_defaults(handler=cmd_quad)

    p = sub.add_parser("constants", parents=[common], help="named constants")
    p.add_argument("name", choices=("zeta", "catalan", "digamma"))
    p.add_argument("value", nargs="?", default=None)
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("verify", parents=[common], help="run built-in check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all", "exact", "series", "constants"))
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol < 1e-13:
        print("error: --tol must be >= 1e-13", file=sys.stderr)
        return 2
    if getattr(args, "terms", None) is not None and args.terms < 1:
        print("error: --terms must be >= 1", file=sys.stderr)
        return 2
    if args.subcommand == "quad" and not (math.isfinite(args.a) and math.isfinite(args.b)):
        print("error: --a and --b must be finite", file=sys.stderr)
        return 2
    try:
        report, status = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = RENDERERS[args.format](report)
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
