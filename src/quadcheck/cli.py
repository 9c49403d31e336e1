"""Batch-verification command line front end.

Commands:

* ``verify-all``      run every built-in case with its default parameters
* ``verify CASE``     run one built-in case, optionally with ``--param``
* ``custom --F EXPR`` verify the master identity for a user-supplied F(k)
* ``kernel-check``    run the seed identity's case ``kernel`` on a 5x5 grid

Every option is taken by its full name only, as ``--opt VALUE`` or
``--opt=VALUE``: a shortened flag is a usage error, never a silent ``--tol``
or ``--abs-tol``.  The token after an option is its value, even where it
begins with ``-`` (``--a -3i``, ``--F -exp(-k)``).  ``--param`` repeats;
for every other option the last value wins.

Exit codes: 0 all verifications passed, 1 some comparison failed its
tolerance, 2 usage, expression or domain errors (an F that fails at the
closed form among them), 3 numerical non-convergence, divergence
detection, or an integrand that fails at a quadrature node.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from collections.abc import Sequence

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

_QUADRATURE = QuadratureOptions()

#: Every command's options: name -> (converter, default, help).  A
#: converter is a type, or the tuple of the values the option takes.  A
#: name without dashes is positional.  A default of None makes the option
#: required; a default of () makes it repeat, each value appended.
_COMMON = {
    "--tol": (float, DEFAULT_TOLERANCE, "verification tolerance"),
    "--format": (("table", "json"), "table", "stdout format, table or json"),
    "--abs-tol": (float, _QUADRATURE.abs_tol, "quadrature absolute tolerance"),
    "--rel-tol": (float, _QUADRATURE.rel_tol, "quadrature relative tolerance"),
    "--max-subdivisions": (int, _QUADRATURE.max_subdivisions, "adaptive bisection budget"),
}

#: command -> (what it does, its options)
_COMMANDS = {
    "verify-all": ("run all built-in cases", _COMMON),
    "verify": ("run one built-in case", {
        "case": (str, None, f"one of {', '.join(CATALOG_ORDER)}"),
        "--param": (str, (), "NAME=VALUE, a case parameter as a complex literal "
                             "(a=0.7, a=1+2i); repeats"),
        **_COMMON,
    }),
    "custom": ("verify the master identity for a custom transform", {
        "--F": (str, None, 'the transform F(k), an expression such as "1/(k+2)"'),
        "--a": (str, "1", "kernel parameter a, a complex literal"),
        **_COMMON,
    }),
    "kernel-check": ("verify the seed identity on a 5x5 (a, t) grid", _COMMON),
}

_HELP_FLAGS = ("-h", "--help")


def parse_complex_literal(text: str) -> complex:
    """Parse "RE", "RE+IMi" or "IMi" (e.g. "0.7", "1+2i", "-3i")."""
    s = text.strip()
    try:
        if "_" in s:  # float() takes "1_0" as 10; a literal has no digit separator
            raise ValueError
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


_JSON_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f",
}


def _json_char(c: str) -> str:
    if c in _JSON_ESCAPES:
        return _JSON_ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a UTF-16 surrogate pair
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_json_char, s)) + '"'


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values a record
    holds: dicts with str keys, lists, str, finite floats, ints, bools and
    None.  ``indent`` is the newline and indentation of ``value``'s line."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_str(key)}: {_json(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    else:
        items = [_json(item, inner) for item in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


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


def _write(text: str) -> None:
    # one write per text: stdout may be unbuffered.  The flush makes a
    # buffered stdout fail here, inside main's error boundary, and not in
    # the interpreter's flush at shutdown
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit(reports: Sequence[VerificationReport], fmt: str) -> None:
    if fmt == "json":
        _write(_json([report_record(r) for r in reports]) + "\n")
    else:
        _write(_table(reports))


class _UsageError(Exception):
    """A command line the option table refuses: (command or "", message)."""


def _usage(command: str) -> str:
    options = _COMMANDS[command][1] if command else {}
    required = [name if name[0] != "-" else f"{name} VALUE"
                for name, spec in options.items() if spec[1] is None]
    return " ".join(["usage: quadcheck", command or "COMMAND", *required, "[--OPTION VALUE]..."])


def _help(command: str) -> str:
    """``quadcheck --help`` for the command "", ``quadcheck COMMAND --help``
    for any other."""
    if command:
        about, options = _COMMANDS[command]
        rows = {name: text if default in (None, ()) else f"{text} (default {default})"
                for name, (_, default, text) in options.items()}
    else:
        about = "Numerically verify kernel integral identities."
        rows = {name: spec[0] for name, spec in _COMMANDS.items()}
    return "\n".join([
        _usage(command), "", about, "",
        *(f"  {name:<20}{text}" for name, text in rows.items()), "",
        "Options go by their full names, as --OPTION VALUE or --OPTION=VALUE, and",
        "a value may begin with '-'.  -h or --help shows this help; 'quadcheck",
        "COMMAND --help' lists a command's options.", "",
    ])


def _choose(command: str, name: str, text: str, choices) -> str:
    if text not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(command, f"argument {name}: invalid choice: {text!r} "
                                   f"(choose from {listed})")
    return text


def _parse(argv: list[str]) -> tuple[str, dict | None]:
    """The command ``argv`` names ("" for none) and its options' values by
    name, or None in place of the values where ``argv`` asks for help.
    Refusals are argparse's, in its wording and order: a bad value as it
    is read, then a missing required option, then every unknown token."""
    if not argv:
        raise _UsageError("", "the following arguments are required: command")
    command, tokens = argv[0], iter(argv[1:])
    if command in _HELP_FLAGS:
        return "", None
    options = _COMMANDS[_choose("", "command", command, _COMMANDS)][1]
    values = {name: spec[1] for name, spec in options.items()}
    positionals = [name for name in options if not name.startswith("-")]
    unknown = []
    for token in tokens:
        if token in _HELP_FLAGS:
            return command, None
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            if name not in options:
                unknown.append(token)
                continue
            if not eq:
                text = next(tokens, None)
                if text is None:
                    raise _UsageError(command, f"argument {name}: expected one argument")
        elif positionals:
            name, text = positionals.pop(0), token
        else:
            unknown.append(token)
            continue
        converter, default = options[name][:2]
        if isinstance(converter, tuple):  # the values the option takes
            value = _choose(command, name, text, converter)
        else:
            try:
                value = converter(text)
            except ValueError:
                raise _UsageError(
                    command, f"argument {name}: invalid {converter.__name__} value: {text!r}"
                ) from None
        values[name] = (*values[name], value) if default == () else value
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(unknown)}")
    return command, values


def _reports(command: str, values: dict) -> list[VerificationReport]:
    """Run ``command`` with its option ``values``.  ``custom`` verifies its
    transform; every other command is a list of (case, params) runs."""
    opts = QuadratureOptions(
        values["--abs-tol"], values["--rel-tol"], values["--max-subdivisions"]
    )
    tol = values["--tol"]
    if command == "custom":
        from . import expr  # only this command parses expressions

        F = expr.transform(values["--F"])
        return [verify_master(F, KernelParams(parse_complex_literal(values["--a"])), opts, tol)]
    if command == "verify-all":
        runs = [(case, None) for case in CATALOG_ORDER]
    elif command == "kernel-check":
        runs = [("kernel", {"a": a, "t": t}) for a in _SEED_GRID_A for t in _SEED_GRID_T]
    else:
        params = {}
        for item in values["--param"]:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ParameterError(f"--param expects NAME=VALUE, got {item!r}")
            name = name.strip()
            if name in params:
                raise ParameterError(f"--param {name!r} is given more than once")
            params[name] = parse_complex_literal(value)
        runs = [(values["case"], params)]
    return [run_case(case, params, opts, tol) for case, params in runs]


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, values = _parse(list(sys.argv[1:] if argv is None else argv))
        if values is None:
            _write(_help(command))
            return 0
        reports = _reports(command, values)
        _emit(reports, values["--format"])
    except _UsageError as exc:
        command, message = exc.args
        prog = f"quadcheck {command}" if command else "quadcheck"
        print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return _USAGE_EXIT
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
        # The bytes stdout could not take (a report or a help text main
        # has exited 2 on) stay in its buffer, and the interpreter's flush
        # at shutdown would fail on them again and exit 120.  The null
        # device takes them.
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
