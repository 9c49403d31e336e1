"""Batch-verification command line front end.

Commands:

* ``verify-all``      run every built-in case with its default parameters
* ``verify CASE``     run one built-in case, optionally with ``--param``
* ``custom --F EXPR`` verify the master identity for a user-supplied F(k)
* ``kernel-check``    run the seed identity's case ``kernel`` on a 5x5 grid

Every option is taken by its full name only: a shortened flag is a usage
error, never a silent ``--tol`` or ``--abs-tol``.

Exit codes: 0 all verifications passed, 1 some comparison failed its
tolerance, 2 usage, expression or domain errors (an F that fails at the
closed form among them), 3 numerical non-convergence, divergence
detection, or an integrand that fails at a quadrature node.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import Sequence

from .catalog import CATALOG_ORDER, run_case
from .errors import DomainError, ParameterError, QuadcheckError
from .kernel import DEFAULT_TOLERANCE, KernelParams, VerificationReport, verify_master
from .quadrature import QuadratureOptions

__all__ = ["main", "main_entry", "parse_complex_literal"]

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3

#: kernel-check's 5x5 grid: a in [0.3, 3], t in [0.2, 2]
_SEED_GRID_A = (0.3, 0.975, 1.65, 2.325, 3.0)
_SEED_GRID_T = (0.2, 0.65, 1.1, 1.55, 2.0)


def parse_complex_literal(text: str) -> complex:
    """Parse "RE", "RE+IMi" or "IMi" (e.g. "0.7", "1+2i", "-3i")."""
    s = text.strip()
    try:
        if s.endswith("i"):
            return complex(s[:-1] + "j")
        return complex(float(s))
    except ValueError:
        raise ParameterError(f"bad complex literal {text!r}") from None


def _format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.9g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.9g}{sign}{abs(z.imag):.9g}i"


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


def _table(reports: Sequence[VerificationReport]) -> str:
    header = f"{'case':<22} {'params':<28} {'lhs':<26} {'rhs':<26} {'rel_diff':<10} pass"
    lines = [header, "-" * len(header)]
    for r in reports:
        params = ", ".join(f"{k}={_format_complex(v)}" for k, v in r.params.items())
        flag = "yes" if r.passed else "NO"
        if r.experimental:
            flag += " (experimental)"
        lines.append(
            f"{r.case_name:<22} {params:<28} {_format_complex(r.lhs):<26} "
            f"{_format_complex(r.rhs):<26} {r.rel_diff:<10.2e} {flag}"
        )
        if r.notes:
            lines.append(f"    note: {r.notes}")
    return "\n".join(lines) + "\n"


def _emit(reports: Sequence[VerificationReport], fmt: str) -> None:
    # one write per report: stdout may be unbuffered, and json.dump would
    # write chunk by chunk (2353 writes for kernel-check's records).  The
    # flush makes a buffered stdout fail here, inside main's error boundary,
    # and not in the interpreter's flush at shutdown
    if fmt == "json":
        text = json.dumps([report_record(r) for r in reports], indent=2) + "\n"
    else:
        text = _table(reports)
    sys.stdout.write(text)
    sys.stdout.flush()


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                     help="verification tolerance (default 1e-8)")
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
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # options by their full names only: a prefix such as --t would
        # otherwise be read as --tol
        return commands.add_parser(name, help=help, allow_abbrev=False)

    _add_common(command("verify-all", "run all built-in cases"))

    p_verify = command("verify", "run one built-in case")
    p_verify.add_argument("case", help=f"one of: {', '.join(CATALOG_ORDER)}")
    p_verify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="case parameter as a complex literal, e.g. a=0.7 or a=1+2i",
    )
    _add_common(p_verify)

    p_custom = command("custom", "verify the master identity for a custom transform")
    p_custom.add_argument("--F", required=True, metavar="EXPR",
                          help="transform F(k), e.g. \"1/(k+2)\"")
    p_custom.add_argument("--a", default="1", metavar="VALUE",
                          help="kernel parameter a (complex literal)")
    _add_common(p_custom)

    _add_common(command("kernel-check", "verify the seed identity on a 5x5 (a, t) grid"))

    return parser


def _reports(ns) -> list[VerificationReport]:
    """Run the command ``ns`` names.  ``custom`` verifies its transform;
    every other command is a list of (case, params) runs."""
    opts = QuadratureOptions(ns.abs_tol, ns.rel_tol, ns.max_subdivisions)
    if ns.command == "custom":
        from . import expr  # only this command parses expressions

        F = expr.transform(ns.F)
        return [verify_master(F, KernelParams(parse_complex_literal(ns.a)), opts, ns.tol)]
    if ns.command == "verify-all":
        runs = [(case, None) for case in CATALOG_ORDER]
    elif ns.command == "kernel-check":
        runs = [("kernel", {"a": a, "t": t}) for a in _SEED_GRID_A for t in _SEED_GRID_T]
    else:
        params = {}
        for item in ns.param:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ParameterError(f"--param expects NAME=VALUE, got {item!r}")
            name = name.strip()
            if name in params:
                raise ParameterError(f"--param {name!r} is given more than once")
            params[name] = parse_complex_literal(value)
        runs = [(ns.case, params)]
    return [run_case(case, params, opts, ns.tol) for case, params in runs]


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        reports = _reports(ns)
        _emit(reports, ns.format)
    except SystemExit as exc:  # argparse's usage error, or --help
        return 0 if exc.code in (0, None) else int(exc.code)
    except DomainError as exc:  # a refused input: parameters, case ids, expressions
        print(f"quadcheck: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except QuadcheckError as exc:
        print(f"quadcheck: numerical failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except OSError as exc:  # stdout is gone, as when its reader has exited
        print(f"quadcheck: cannot write report: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return 0 if all(r.passed for r in reports) else 1


def main_entry() -> None:
    """The process entry point: ``quadcheck`` and ``python -m quadcheck.cli``."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # The bytes stdout could not take (a report main has exited 2 on,
        # or --help's text, which argparse drops silently) stay in its
        # buffer, and the interpreter's flush at shutdown would fail on them
        # again and exit 120.  The null device takes them.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    # Frozen objects sit in the permanent generation, which the interpreter's
    # shutdown collections skip, and the OS reclaims their memory when the
    # process ends.  Freezing the 12 000 objects alive after the import took
    # 5.6-6.0 ms off each command's wall time (medians of 21 runs, 2-CPU KVM
    # guest, Python 3.11).  main() never touches the collector: tests and the
    # benchmark call it in process.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
