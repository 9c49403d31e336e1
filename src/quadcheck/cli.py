"""Batch-verification command line front end.

Commands:

* ``verify-all``      run every built-in case with its default parameters
* ``verify CASE``     run one built-in case, optionally with ``--param``
* ``custom --F EXPR`` verify the master identity for a user-supplied F(k)
* ``kernel-check``    run the seed identity's case ``kernel`` on a point or a 5x5 grid

Exit codes: 0 all verifications passed, 1 some comparison failed its
tolerance, 2 usage, expression or domain errors (an F that fails at the
closed form among them), 3 numerical non-convergence, divergence
detection, or an integrand that fails at a quadrature node.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .catalog import CATALOG_ORDER, run_case
from .errors import DomainError, ParameterError, QuadcheckError
from .kernel import DEFAULT_TOLERANCE, KernelParams, VerificationReport, verify_master
from .quadrature import QuadratureOptions

__all__ = ["main", "main_entry", "parse_complex_literal"]

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3

#: default 5x5 grid for kernel-check: a in [0.3, 3], t in [0.2, 2]
_SEED_GRID_A = (0.3, 0.975, 1.65, 2.325, 3.0)
_SEED_GRID_T = (0.2, 0.65, 1.1, 1.55, 2.0)


def parse_complex_literal(text: str) -> complex:
    """Parse "RE", "RE+IMi" or "IMi" (e.g. "0.7", "1+2i", "-3i")."""
    s = text.strip()
    if not s or any(c.isspace() for c in s):
        raise ParameterError(f"bad complex literal {text!r}")
    try:
        if s.endswith("i"):
            return complex(s[:-1] + "j")
        return complex(float(s))
    except ValueError:
        raise ParameterError(f"bad complex literal {text!r}") from None


def _format_complex(z: complex, digits: int = 9) -> str:
    if z.imag == 0.0:
        return f"{z.real:.{digits}g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.{digits}g}{sign}{abs(z.imag):.{digits}g}i"


def _number(x: float) -> float | None:
    """``x``, or None where it is not finite: the record writes JSON's null,
    as JSON has no Infinity or NaN."""
    return x if math.isfinite(x) else None


def report_record(report: VerificationReport) -> dict:
    """One JSON record per verification, following the fixed schema."""
    return {
        "case": report.case_name,
        "params": {
            name: {"re": value.real, "im": value.imag}
            for name, value in report.params.items()
        },
        "lhs": {"re": report.lhs.real, "im": report.lhs.imag},
        "rhs": {"re": report.rhs.real, "im": report.rhs.imag},
        "abs_diff": _number(report.abs_diff),
        "rel_diff": _number(report.rel_diff),
        "pass": report.passed,
        "evaluations": report.diagnostics.evaluations,
        "truncation": report.diagnostics.truncation_used,
        "experimental": report.experimental,
    }


def _print_table(reports: Sequence[VerificationReport], stream) -> None:
    header = f"{'case':<22} {'params':<28} {'lhs':<26} {'rhs':<26} {'rel_diff':<10} pass"
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for r in reports:
        params = ", ".join(f"{k}={_format_complex(v)}" for k, v in r.params.items())
        flag = "yes" if r.passed else "NO"
        if r.experimental:
            flag += " (experimental)"
        print(
            f"{r.case_name:<22} {params:<28} {_format_complex(r.lhs):<26} "
            f"{_format_complex(r.rhs):<26} {r.rel_diff:<10.2e} {flag}",
            file=stream,
        )
        if r.notes:
            print(f"    note: {r.notes}", file=stream)


def _emit(reports: Sequence[VerificationReport], ns) -> None:
    records = [report_record(r) for r in reports]
    if ns.json_path:
        with open(ns.json_path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    if ns.format == "json":
        json.dump(records, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_table(reports, sys.stdout)


def _quad_options(ns) -> QuadratureOptions:
    return QuadratureOptions(ns.abs_tol, ns.rel_tol, ns.max_subdivisions)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                     help="verification tolerance (default 1e-8)")
    sub.add_argument("--json", dest="json_path", metavar="PATH",
                     help="also write the JSON report array to PATH")
    sub.add_argument("--format", choices=("table", "json"), default="table",
                     help="stdout format (default table)")
    defaults = QuadratureOptions()
    sub.add_argument("--abs-tol", type=float, default=defaults.abs_tol,
                     help="quadrature absolute tolerance")
    sub.add_argument("--rel-tol", type=float, default=defaults.rel_tol,
                     help="quadrature relative tolerance")
    sub.add_argument("--max-subdivisions", type=int,
                     default=defaults.max_subdivisions,
                     help="adaptive bisection budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcheck",
        description="Numerically verify kernel integral identities.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_all = commands.add_parser("verify-all", help="run all built-in cases")
    _add_common(p_all)

    p_verify = commands.add_parser("verify", help="run one built-in case")
    p_verify.add_argument("case", help=f"one of: {', '.join(CATALOG_ORDER)}")
    p_verify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="case parameter as a complex literal, e.g. a=0.7 or a=1+2i",
    )
    _add_common(p_verify)

    p_custom = commands.add_parser(
        "custom", help="verify the master identity for a custom transform"
    )
    p_custom.add_argument("--F", required=True, metavar="EXPR",
                          help="transform F(k), e.g. \"1/(k+2)\"")
    p_custom.add_argument("--a", default="1", metavar="VALUE",
                          help="kernel parameter a (complex literal)")
    _add_common(p_custom)

    p_kernel = commands.add_parser(
        "kernel-check", help="verify the seed identity"
    )
    p_kernel.add_argument("--a", default=None, metavar="VALUE",
                          help="kernel parameter (default: 5x5 grid)")
    p_kernel.add_argument("--t", default=None, metavar="VALUE",
                          help="decay parameter (default: 5x5 grid)")
    _add_common(p_kernel)

    return parser


def _run_verify_all(ns) -> list[VerificationReport]:
    opts = _quad_options(ns)
    return [run_case(cid, None, opts, ns.tol) for cid in CATALOG_ORDER]


def _run_verify(ns) -> list[VerificationReport]:
    opts = _quad_options(ns)
    params = {}
    for item in ns.param:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ParameterError(f"--param expects NAME=VALUE, got {item!r}")
        name = name.strip()
        if name in params:
            raise ParameterError(f"--param {name!r} is given more than once")
        params[name] = parse_complex_literal(value)
    return [run_case(ns.case, params, opts, ns.tol)]


def _run_custom(ns) -> list[VerificationReport]:
    from . import expr  # only this command parses expressions

    opts = _quad_options(ns)
    F = expr.transform(ns.F)
    params = KernelParams(parse_complex_literal(ns.a))
    return [verify_master(F, params, opts, ns.tol)]


def _run_kernel_check(ns) -> list[VerificationReport]:
    opts = _quad_options(ns)
    if (ns.a is None) != (ns.t is None):
        raise ParameterError("kernel-check needs both --a and --t, or neither")
    if ns.a is not None:
        points = [(parse_complex_literal(ns.a), parse_complex_literal(ns.t))]
    else:
        points = [(a, t) for a in _SEED_GRID_A for t in _SEED_GRID_T]
    return [run_case("kernel", {"a": a, "t": t}, opts, ns.tol) for a, t in points]


_HANDLERS = {
    "verify-all": _run_verify_all,
    "verify": _run_verify,
    "custom": _run_custom,
    "kernel-check": _run_kernel_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)

    try:
        reports = _HANDLERS[ns.command](ns)
    except DomainError as exc:  # a refused input: parameters, case ids, expressions
        print(f"quadcheck: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except QuadcheckError as exc:
        print(f"quadcheck: numerical failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT

    try:
        _emit(reports, ns)
    except OSError as exc:
        print(f"quadcheck: cannot write report: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return 0 if all(r.passed for r in reports) else 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
