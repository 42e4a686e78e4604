"""Command-line front end: run, check and demo programs in the small language.

Exit codes: 0 success; 1 usage error (unknown option, subcommand or demo,
or a malformed option value), parse or type error, invalid tolerance, a
statement whose coefficients, constant or result are not finite
(``FILE:LINE:COL:`` and the input it names, on one line), or a posterior
that is not finite (NaN or Inf in its mean, covariance or
nondeterministic basis); 2 infeasible
observation; 3 I/O error (a file that cannot be read or is not UTF-8).
Output is strict JSON: NaN and Infinity are never printed.  The
environment variable ``GX_TOL`` overrides the default
comparison/feasibility tolerance; the ``--tol`` flag wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dsl import ParseError, PosteriorReport, TypeCheckError, interpret, parse, typecheck
from .extended import InfeasibleObservation, NonFiniteInput
from .subspace import DEFAULT_TOL, Tolerance

_SQ = 0.7071067811865476  # sqrt(1/2)
_NOT_FINITE = "error: posterior is not finite"

DEMOS = {
    "example-2-1": {
        "source": (
            "# two independent unit normals plus a shared unknown offset\n"
            "x1 ~ normal(0, 1)\n"
            "x2 ~ normal(0, 1)\n"
            "y ~ uniform()\n"
            "z1 = x1 + y\n"
            "z2 = x2 + y\n"
            "return z1, z2\n"
        ),
        "expected": {
            "variables": ["z1", "z2"],
            "mean": [0.0, 0.0],
            "cov": [[0.5, -0.5], [-0.5, 0.5]],
            "nondet_basis": [[_SQ, _SQ]],
            "tolerance": DEFAULT_TOL.eq_abs_tol,
        },
        "note": (
            "two unit normals plus a shared unknown offset: variance 2 "
            "across the diagonal, complete ignorance along it"
        ),
    },
    "exact-equality": {
        "source": (
            "x ~ normal(0, 1)\n"
            "y ~ normal(0, 1)\n"
            "observe x == y\n"
            "return x\n"
        ),
        "expected": {
            "variables": ["x"],
            "mean": [0.0],
            "cov": [[0.5]],
            "nondet_basis": [],
            "tolerance": DEFAULT_TOL.eq_abs_tol,
        },
        "note": "conditioning two unit normals to be equal halves the variance",
    },
    "uninformative": {
        "source": (
            "y ~ uniform()\n"
            "x ~ normal(0, 1)\n"
            "observe x == y\n"
            "return x\n"
        ),
        "expected": {
            "variables": ["x"],
            "mean": [0.0],
            "cov": [[1.0]],
            "nondet_basis": [],
            "tolerance": DEFAULT_TOL.eq_abs_tol,
        },
        "note": "conditioning on equality with an unknown changes nothing",
    },
}


def _resolve_tol(flag_value) -> Tolerance:
    if flag_value is not None:
        return Tolerance(eq_abs_tol=float(flag_value))
    env = os.environ.get("GX_TOL")
    if env is not None:
        return Tolerance(eq_abs_tol=float(env))
    return DEFAULT_TOL


def _dumps(data) -> str:
    return json.dumps(data, allow_nan=False)


def _is_finite(report: PosteriorReport) -> bool:
    post = report.posterior
    return all(np.isfinite(a).all() for a in (post.mean, post.cov, post.nondet.basis))


def _print_report(report: PosteriorReport, as_json: bool):
    data = report.to_dict()
    if as_json:
        print(_dumps(data))
        return
    print("variables:", ", ".join(data["variables"]))
    print("mean:", _dumps(data["mean"]))
    print("cov:", _dumps(data["cov"]))
    if data["nondet_basis"]:
        print("nondeterministic directions:", _dumps(data["nondet_basis"]))
    else:
        print("nondeterministic directions: (none)")
    print("tolerance:", data["tolerance"])


def _load_program(path: str):
    with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is no token
        return handle.read()


def _posterior(source: str, flag_tol, where: str):
    """Interpret ``source`` at the resolved tolerance: the report and exit
    code 0, or None and the exit code after the error is printed, its
    location prefixed by ``where``."""
    try:
        tol = _resolve_tol(flag_tol)
    except ValueError as exc:
        print(f"error: invalid tolerance: {exc}", file=sys.stderr)
        return None, 1
    try:
        report = interpret(parse(source), tol)
    except (ParseError, TypeCheckError, NonFiniteInput, InfeasibleObservation) as exc:
        print(f"{where}:{exc}", file=sys.stderr)
        return None, 2 if isinstance(exc, InfeasibleObservation) else 1
    if not _is_finite(report):
        print(_NOT_FINITE, file=sys.stderr)
        return None, 1
    return report, 0


def _cmd_run(args) -> int:
    try:
        text = _load_program(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report, code = _posterior(text, args.tol, args.file)
    if report is not None:
        _print_report(report, args.json)
    return code


def _cmd_check(args) -> int:
    try:
        text = _load_program(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        program = parse(text)
        typecheck(program)
    except (ParseError, TypeCheckError) as exc:
        print(f"{args.file}:{exc}", file=sys.stderr)
        return 1
    print(f"ok: {args.file}")
    return 0


def _cmd_demo(args) -> int:
    demo = DEMOS[args.name]
    report, code = _posterior(demo["source"], args.tol, f"demo {args.name}")
    if report is None:
        return code
    if args.json:
        print(_dumps(report.to_dict()))
        return 0
    print(f"demo {args.name}: {demo['note']}")
    print()
    print(demo["source"].rstrip())
    print()
    print("computed:", _dumps(report.to_dict()))
    print("expected:", _dumps(demo["expected"]))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not 2: code 2 means an infeasible observation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gx",
        description="run programs of a small Gaussian language with exact conditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a program and print its posterior")
    run.add_argument("file")
    run.add_argument("--tol", type=float, default=None, help="feasibility tolerance")
    run.add_argument("--json", action="store_true", help="print the posterior as JSON")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="parse and typecheck only")
    check.add_argument("file")
    check.set_defaults(func=_cmd_check)

    demo = sub.add_parser("demo", help="run a built-in example program")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.add_argument("--tol", type=float, default=None)
    demo.add_argument("--json", action="store_true", help="print computed JSON only")
    demo.set_defaults(func=_cmd_demo)
    return parser


_PARSER = _build_parser()  # parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
