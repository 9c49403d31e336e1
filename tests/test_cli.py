"""Command line front end: exit codes, JSON schema, determinism."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcheck import ParameterError, cli
from quadcheck.cli import main, parse_complex_literal

_RECORD_KEYS = {
    "case",
    "params",
    "lhs",
    "rhs",
    "abs_diff",
    "rel_diff",
    "pass",
    "evaluations",
    "truncation",
    "experimental",
}


def _validate_record(rec):
    assert set(rec) == _RECORD_KEYS
    assert isinstance(rec["case"], str)
    assert isinstance(rec["params"], dict)
    for value in rec["params"].values():
        assert set(value) == {"re", "im"}
        assert isinstance(value["re"], float) and isinstance(value["im"], float)
    for side in ("lhs", "rhs"):
        assert set(rec[side]) == {"re", "im"}
    assert isinstance(rec["abs_diff"], float)
    assert isinstance(rec["rel_diff"], float)
    assert isinstance(rec["pass"], bool)
    assert isinstance(rec["evaluations"], int)
    assert isinstance(rec["truncation"], float)
    assert isinstance(rec["experimental"], bool)


# ---------------------------------------------------------------------------
# complex literal grammar
# ---------------------------------------------------------------------------

def test_complex_literals():
    assert parse_complex_literal("0.7") == complex(0.7)
    assert parse_complex_literal("1+2i") == 1 + 2j
    assert parse_complex_literal("-3i") == -3j
    assert parse_complex_literal("i") == 1j
    assert parse_complex_literal("-i") == -1j
    assert parse_complex_literal("1-i") == 1 - 1j
    assert parse_complex_literal("2e-3i") == 2e-3j
    assert parse_complex_literal("1.5-2.5e2i") == complex(1.5, -250.0)
    assert parse_complex_literal("-0.25") == complex(-0.25)


def test_complex_literal_rejects_garbage():
    for bad in ("", "abc", "1+2", "1++2i", "2i+1", "1 2"):
        with pytest.raises(ParameterError):
            parse_complex_literal(bad)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-eEi ", max_size=16))
def test_complex_literal_never_raises_anything_else(text):
    try:
        parse_complex_literal(text)
    except ParameterError:
        pass


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_verify_all_json(tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = main(["verify-all", "--tol", "1e-8", "--json", str(out)])
    assert rc == 0
    records = json.loads(out.read_text())
    assert len(records) == 7
    assert [r["case"] for r in records] == [
        "rational", "bessel", "gaussian", "cosine", "gamma", "zeta", "kernel",
    ]
    for rec in records:
        _validate_record(rec)
        assert rec["pass"] is True
    assert records[3]["experimental"] is True  # cosine default has complex a
    capsys.readouterr()


def test_verify_all_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-all", "--json", str(out1), "--format", "json"]) == 0
    assert main(["verify-all", "--json", str(out2), "--format", "json"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_custom_rational(capsys):
    rc = main(["custom", "--F", "1/(k+2)", "--a", "0.7", "--tol", "1e-8",
               "--format", "json"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1
    rec = records[0]
    _validate_record(rec)
    assert abs(rec["lhs"]["re"] - 0.327782790363712) < 1e-9
    assert abs(rec["rhs"]["re"] - 0.327782790363712) < 1e-12
    assert rec["experimental"] is False  # Schwarz symmetry is detected


def test_custom_non_schwarz_is_experimental(capsys):
    rc = main(["custom", "--F", "1/(k+2+i)", "--a", "1", "--format", "json"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["experimental"] is True


def test_verify_case_with_params(capsys):
    rc = main(["verify", "bessel", "--param", "a=7", "--format", "json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert abs(rec["lhs"]["re"] - 0.000708621113113113) < 1e-11


def test_verify_cosine_divergence_exits_3(capsys):
    rc = main(["verify", "cosine", "--param", "alpha=0.4", "--param", "a=1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "not decreasing" in err or "divergence" in err.lower()


def test_custom_growing_transform_exits_3(capsys):
    rc = main(["custom", "--F", "exp(k)", "--a", "1"])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("F", ["1/(k-k)", "log(0*k)"])
def test_transform_undefined_on_the_contour_exits_3(capsys, F):
    # the same failure either way: F is undefined at the first node
    assert main(["custom", "--F", F, "--a", "1"]) == 3
    assert "integrand fails at x = 0.25" in capsys.readouterr().err


@pytest.mark.parametrize("F, a, code, message", [
    # the integral's modulus is beyond double range: never converged
    ("1e307*(1+i)", "0.1", 3, "did not converge"),
    # no symmetry sample is usable; the fold F(k) K(x) + F(conj k) K(conj x)
    # stays in range at every node, but the |f| sum of the first rule does
    # not: the run ends unconverged, as an integral beyond double range does
    ("1.5e308*(1+i)", "1", 3, "did not converge"),
])
def test_transform_whose_modulus_overflows_is_a_typed_failure(capsys, F, a, code, message):
    assert main(["custom", "--F", F, "--a", a]) == code
    err = capsys.readouterr().err
    assert message in err and "OverflowError" not in err


def test_an_error_that_is_not_a_quadcheck_error_is_not_caught(monkeypatch):
    # every library failure is typed; anything else is a bug, not an exit code
    def broken(ns):
        raise ZeroDivisionError("a bug")

    monkeypatch.setitem(cli._HANDLERS, "verify-all", broken)
    with pytest.raises(ZeroDivisionError):
        main(["verify-all"])


def test_exact_resummation_of_the_error_total_saves_evaluations(capsys):
    # the running error total drifts above the tolerance its exact sum
    # meets; re-summing it exactly stops this run 30 evaluations (one
    # bisection) earlier than the running total alone would
    argv = ["custom", "--F", "exp(-0.3*k^2)", "--a", "0.34827723758316564", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)[0]["evaluations"] == 1080


@pytest.mark.parametrize("F", [
    "(" * 1000 + "k" + ")" * 1000,
    "k+" + "-" * 1000 + "k",
    "+".join(["k"] * 1000),
])
def test_too_deep_expression_exits_2(capsys, F):
    assert main(["custom", "--F", F, "--a", "1"]) == 2
    assert "nests deeper than" in capsys.readouterr().err


def test_literal_beyond_double_range_exits_2(capsys):
    assert main(["custom", "--F", "1e400*k", "--a", "1"]) == 2
    assert "beyond double range (at offset 0)" in capsys.readouterr().err


def test_a_at_plus_minus_i_exits_2(capsys):
    # a (1 + a^2) vanishes: a domain error before any quadrature, not a
    # numerical failure of the integral
    for argv in (
        ["verify", "rational", "--param", "a=i"],
        ["verify", "cosine", "--param", "a=-i"],
        ["custom", "--F", "1/(k+2)", "--a", "i"],
        ["custom", "--F", "1/(k+2)", "--a=-i"],
    ):
        assert main(argv) == 2, argv
        assert "a = +/- i" in capsys.readouterr().err


def test_roundoff_limited_run_exits_3(capsys):
    # custom keeps the real axis: the integral of |f| is about 2.4e4 and the
    # integral 4.8e-3, so rounding alone keeps the error above the tolerance
    # (the gaussian case takes the same F on the line Im x = -0.8 and passes)
    assert main(["custom", "--F", "exp(-0.45*k^2)", "--a", "0.3"]) == 3
    assert "roundoff" in capsys.readouterr().err


def test_zeta_accuracy_warning_is_printed_once_per_run():
    # the zeta case's F at a = 90, on the real axis, calls zeta outside its
    # validated region many times over; Python's default filter shows a
    # constant message once (the zeta case itself takes the line
    # Im x = -0.8, where no admissible input leaves the region)
    import os
    import subprocess
    import sys

    import quadcheck

    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadcheck.__file__)))
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-m", "quadcheck.cli", "custom",
         "--F", "0.5^(k/pi^2)/(2*pi*zeta(360*k/pi^2))", "--a", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.count("AccuracyWarning") == 1, proc.stderr[:2000]
    assert "outside the validated region" in proc.stderr


def test_zeta_case_at_tiny_a_exits_0(capsys):
    assert main(["verify", "zeta", "--param", "a=1e-300"]) == 0
    capsys.readouterr()


def test_usage_errors_exit_2(capsys):
    bad_usages = [
        ["custom", "--F", "2*", "--a", "1"],        # expression syntax error
        ["custom", "--F", "1/(q+2)", "--a", "1"],   # wrong free variable
        ["custom", "--F", "foo(k)", "--a", "1"],    # unknown function
        ["custom", "--F", "1/(k+2)", "--a", "xyz"],  # bad complex literal
        ["verify", "nosuch"],                        # unknown case id
        ["verify", "rational", "--param", "b=-1"],   # constraint violation
        ["verify", "rational", "--param", "zzz=1"],  # unknown parameter
        ["verify", "rational", "--param", "noequals"],
        ["verify", "zeta", "--param", "n=7"],
        ["verify", "zeta", "--param", "a=150"],      # a zeta zero in the strip
        ["verify", "rational", "--param", "a=0.5i"],  # a kernel pole on the real axis
        ["verify", "rational", "--param", "a=1e300+1e-300i"],  # a^2 beyond double range
        ["kernel-check", "--a", "1"],                # missing --t
        ["kernel-check", "--a", "1+2i", "--t", "1"],  # complex a
        ["verify", "kernel", "--param", "a=1+2i"],   # the same row, the same rule
        ["no-such-command"],
        [],
    ]
    for argv in bad_usages:
        rc = main(argv)
        assert rc == 2, argv
        capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_kernel_check_single_point(capsys):
    rc = main(["kernel-check", "--a", "1", "--t", "1", "--format", "json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)[0]
    _validate_record(rec)
    assert rec["case"] == "kernel"
    assert abs(rec["lhs"]["re"] - math.pi * math.exp(-math.pi**2 / 4) / 8) < 1e-12


def test_a_parameter_given_twice_is_refused(capsys):
    # the last value used to win without a word
    assert main(["verify", "rational", "--param", "b=2", "--param", " b=5"]) == 2
    err = capsys.readouterr().err
    assert "'b'" in err and "more than once" in err


@pytest.mark.parametrize("a, t", [("1", "1"), ("1.65", "1.1"), ("0.3", "2")])
def test_kernel_check_is_the_kernel_case(capsys, a, t):
    assert main(["kernel-check", "--a", a, "--t", t, "--format", "json"]) == 0
    point = capsys.readouterr().out
    assert main(["verify", "kernel", "--param", f"a={a}", "--param", f"t={t}",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == point


def test_kernel_check_grid(capsys):
    rc = main(["kernel-check", "--format", "json", "--tol", "1e-9"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 25
    assert all(r["pass"] for r in records)
    a_values = {r["params"]["a"]["re"] for r in records}
    t_values = {r["params"]["t"]["re"] for r in records}
    assert min(a_values) == 0.3 and max(a_values) == 3.0
    assert min(t_values) == 0.2 and max(t_values) == 2.0


def test_table_output_carries_notes(capsys):
    rc = main(["verify", "bessel"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.5416" in out  # printed-parameter discrepancy is documented
    assert "case" in out and "rel_diff" in out


def test_quadrature_overrides_are_honored(capsys):
    rc = main([
        "verify", "rational",
        "--max-subdivisions", "3",
        "--abs-tol", "1e-15",
        "--rel-tol", "1e-15",
    ])
    assert rc == 3  # budget too small to converge
    capsys.readouterr()


@pytest.mark.parametrize("flag", [
    "--initial-truncation", "--max-truncation", "--window-growth",
])
def test_window_geometry_flags_are_gone(capsys, flag):
    # the window geometry is fixed in the quadrature module
    assert main(["verify", "rational", flag, "10"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verification_failure_exits_1(capsys):
    # loose quadrature with an absurdly tight verification tolerance makes
    # the sides disagree beyond tolerance without any numerical error
    rc = main(["custom", "--F", "exp(-0.3*k^2)", "--a", "0.3", "--tol", "1e-16"])
    assert rc in (1,)
    capsys.readouterr()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_number_that_is_not_finite_is_written_as_null(capsys):
    # F(k0) is exactly 0 at a = 1, so rhs = 0; the pole at k = 1 lies in the
    # band, so lhs is about 1e10, and lhs / REL_DIFF_FLOOR overflows
    rc = main(["custom", "--F", "(k-2.4674011002723395)*1e10/(k-1)", "--a", "1",
               "--format", "json"])
    assert rc == 1
    rec = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)[0]
    assert rec["rhs"] == {"re": 0.0, "im": 0.0}
    assert rec["rel_diff"] is None
    assert rec["pass"] is False


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([
                "verify", "custom", "kernel-check", "--param", "--F", "--a",
                "--t", "--tol", "rational", "zeta", "a=1", "b=", "=2", "1+2i",
                "--json", "--format", "json", "nonsense", "-3i", "((", "1/(k",
            ]),
            st.text(alphabet="abfkxz=0129.+-*/^() ", max_size=8),
        ),
        max_size=5,
    )
)
def test_exit_code_contract_over_malformed_argv(tmp_path_factory, argv):
    # whatever the input, the CLI returns one of the documented codes and
    # never escapes with a traceback; run in a scratch directory since a
    # well-formed sample may legitimately write a --json report file
    import os

    scratch = tmp_path_factory.mktemp("cli-fuzz")
    old = os.getcwd()
    os.chdir(scratch)
    try:
        rc = main(argv)
    finally:
        os.chdir(old)
    assert rc in (0, 1, 2, 3), argv


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_meaningless_tolerance_exits_2(capsys, tol):
    for argv in (
        ["verify", "rational"],
        ["verify-all"],
        ["custom", "--F", "1/(k+2)"],
        ["kernel-check", "--a", "1", "--t", "1"],
    ):
        assert main([*argv, "--tol", tol]) == 2, argv
        assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_quadrature_tolerance_exits_2(capsys, flag, value):
    # an infinite quadrature tolerance used to stop on the first rules and
    # report lhs 0.1638897 against rhs 0.1638914, exit 1
    assert main(["verify", "rational", flag, value]) == 2
    assert "finite" in capsys.readouterr().err


# the CLI forms of the hostile values of test_inputs.py that argv can carry
_CLI_VALUES = ["nan", "inf", "-inf", "1e400", "-1e400"]

_CLI_CELLS = [
    *(["kernel-check", f"--a={v}", "--t=1"] for v in [*_CLI_VALUES, "1+2i", "x"]),
    *(["kernel-check", "--a=1", f"--t={v}"] for v in [*_CLI_VALUES, "1+2i", "x"]),
    *(["verify", "rational", "--param", f"a={v}"] for v in [*_CLI_VALUES, "x"]),
    *(["verify", "rational", "--param", f"b={v}"] for v in [*_CLI_VALUES, "1+2i", "x"]),
    *(["custom", "--F", "1/(k+2)", f"--a={v}"] for v in [*_CLI_VALUES, "x"]),
    *(
        ["verify", "rational", f"{flag}={v}"]
        for flag in ("--tol", "--abs-tol", "--rel-tol")
        for v in [*_CLI_VALUES, "1+2i", "x"]
    ),
    *(["verify", "rational", f"--max-subdivisions={v}"] for v in ("nan", "2.5", "1e400", "x")),
]


@pytest.mark.parametrize("argv", _CLI_CELLS, ids=" ".join)
def test_hostile_cli_value_exits_2(capsys, argv):
    assert main(argv) == 2
    # reported as the library's refusal or as argparse's usage error
    assert capsys.readouterr().err.startswith(("quadcheck: ", "usage: "))


_FOOTPRINT_PROBE = """
import sys
import quadcheck.cli
heavy = ("dataclasses", "inspect", "quadcheck.expr")
print(",".join(m for m in heavy if m in sys.modules))
assert not sys.modules["quadcheck.kernel"]._COMPLEX_TERMS, "import tabulated nodes"
import quadcheck
assert "parse" in dir(quadcheck) and "to_string" in dir(quadcheck)
from quadcheck import evaluate, parse, to_string
assert quadcheck.parse is parse and quadcheck.expr.parse is parse
assert evaluate(parse("k+1"), {"k": 1}) == 2 and to_string(parse("k")) == "k"
namespace = {}
exec("from quadcheck import *", namespace)
assert namespace["parse"] is parse and namespace["evaluate"] is evaluate
try:
    quadcheck.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("missing attribute did not raise")
"""


def _run_probe(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this package; return its stdout.

    A fresh interpreter because these tests' own imports would hide what
    the package loads.
    """
    import os
    import subprocess
    import sys

    import quadcheck

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(quadcheck.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_cli_import_leaves_out_dataclasses_inspect_and_expr():
    assert _run_probe(_FOOTPRINT_PROBE).strip() == ""


def test_custom_command_loads_expr():
    _run_probe(
        "import sys\n"
        "from quadcheck.cli import main\n"
        "assert 'quadcheck.expr' not in sys.modules\n"
        "rc = main(['custom', '--F', '1/(k+2)', '--format', 'json'])\n"
        "assert rc == 0, rc\n"
        "assert 'quadcheck.expr' in sys.modules\n"
        # importing expr by any route binds the package's re-exports
        "import quadcheck\n"
        "for name in ('parse', 'evaluate', 'to_string'):\n"
        "    assert vars(quadcheck)[name] is getattr(quadcheck.expr, name)\n"
    )
