"""Command line front end: exit codes, JSON schema, determinism."""

import gc
import json
import math
import subprocess

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

def test_verify_all_json(capsys):
    rc = main(["verify-all", "--tol", "1e-8", "--format", "json"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 7
    assert [r["case"] for r in records] == [
        "rational", "bessel", "gaussian", "cosine", "gamma", "zeta", "kernel",
    ]
    for rec in records:
        _validate_record(rec)
        assert rec["pass"] is True
    assert records[3]["experimental"] is True  # cosine default has complex a


def test_report_file_option_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the JSON report goes to stdout only: --format json > PATH
    monkeypatch.chdir(tmp_path)
    assert main(["verify-all", "--json", "out.json"]) == 2
    assert "unrecognized arguments: --json out.json" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class _CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["kernel-check", "--format", "json"],
    ["verify-all"],
])
def test_a_report_is_written_in_one_call(monkeypatch, argv):
    # stdout may be unbuffered: json.dump alone made 2353 writes for
    # kernel-check's records
    stdout = _CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(argv) == 0
    assert len(stdout.writes) == 1
    assert stdout.writes[0].endswith("\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_closed_stdout_exits_2(capsys, monkeypatch, fmt):
    # as in `quadcheck verify rational | true`: a message, never a traceback
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["verify", "rational", "--format", fmt]) == 2
    assert "cannot write report: [Errno 32] Broken pipe" in capsys.readouterr().err


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
def test_a_report_that_cannot_be_written_exits_2_on_buffered_stdout(sink):
    # buffered, the report fits in stdout's buffer and its write succeeds;
    # the failure comes at the flush, which must not be the interpreter's
    # own at shutdown (exit 120, "Exception ignored in: <stdout>")
    import os
    import sys

    import quadcheck

    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(quadcheck.__file__)))
    if sink == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open(sink, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadcheck.cli", "verify", "rational"],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2, proc.stderr
    assert "quadcheck: cannot write report: " in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_verify_all_is_deterministic(capsys):
    assert main(["verify-all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-all", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


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
    def broken(*args):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(cli, "run_case", broken)
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


@pytest.mark.parametrize("argv", [
    ["verify", "rational", "--param", "a=2+5e-324i"],
    ["verify", "rational", "--param", "a=-2+5e-324i"],
    ["verify", "bessel", "--param", "a=2-5e-324i"],
    ["verify", "gaussian", "--param", "a=2+5e-324i"],
])
def test_a_whose_argument_underflows_gives_a_report(capsys, argv):
    # arg a is a subnormal, where cmath.phase raised a bare OverflowError
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["pass"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "rational", "--param", "a=1e-6"],
    ["custom", "--F", "1/(k+2)", "--a", "1e-6"],
    ["verify", "bessel", "--param", "a=1e8"],
])
def test_far_out_in_a_the_sweep_finds_the_kernel_peak(capsys, argv):
    # the first window opens at the kernel's peak, |ln|a||
    assert main(argv) == 0
    capsys.readouterr()


def test_roundoff_limited_run_exits_3(capsys):
    # custom keeps the real axis: the integral of |f| is about 2.4e4 and the
    # integral 4.8e-3, so rounding alone keeps the error above the tolerance
    # (the gaussian case takes the same F on its line, at depth 1.0, and passes)
    assert main(["custom", "--F", "exp(-0.45*k^2)", "--a", "0.3"]) == 3
    assert "roundoff" in capsys.readouterr().err


def test_zeta_accuracy_warning_is_printed_once_per_run():
    # the zeta case's F at a = 90, on the real axis, calls zeta outside its
    # validated region many times over; Python's default filter shows a
    # constant message once (the zeta case itself takes its line, at depth
    # 1.0, where no admissible input leaves the region)
    import os
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
        ["verify", "rational", "--param", "a=1e300+1e-300i"],  # a^4 beyond double range
        ["verify", "rational", "--param", "a=1e100"],  # and at real a, where it passed
        ["verify", "kernel", "--param", "a=1+2i"],   # complex a: the row's rule
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


@pytest.mark.parametrize("argv", [
    ["custom", "--F", "1/(k-1)", "--a", "0.7", "--t", "2"],  # --t: a prefix of --tol
    ["verify", "kernel", "--a", "2", "--t", "0.5"],  # of --abs-tol and --tol
    ["verify", "rational", "--abs", "0.5"],          # of --abs-tol
    ["verify-all", "--max", "5"],                    # of --max-subdivisions
    ["kernel-check", "--a", "1", "--t", "1"],        # kernel-check runs its grid only
], ids=" ".join)
def test_a_shortened_or_unknown_option_is_a_usage_error(capsys, argv):
    # a prefix of an option is not that option: read as one, it could turn
    # a failing check into a pass
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_kernel_case_at_one_point(capsys):
    rc = main(["verify", "kernel", "--param", "a=1", "--param", "t=1", "--format", "json"])
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


@pytest.mark.parametrize("index", [0, 12, 4])
def test_kernel_check_is_the_kernel_case(capsys, index):
    # each record of the grid is verify kernel's record at its point
    assert main(["kernel-check", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)[index]
    a, t = (repr(record["params"][name]["re"]) for name in ("a", "t"))
    assert main(["verify", "kernel", "--param", f"a={a}", "--param", f"t={t}",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps([record], indent=2) + "\n"


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


def test_table_prints_complex_values_and_the_experimental_flag(capsys):
    # 9 significant digits a part, the imaginary part signed and marked i
    assert main(["custom", "--F", "1/(k+2+i)", "--a", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row.split()[2:4] == ["0.167417856-0.0374754477i"] * 2
    assert row.endswith("yes (experimental)")


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
def test_exit_code_contract_over_malformed_argv(argv):
    # whatever the input, the CLI returns one of the documented codes and
    # never escapes with a traceback; no command takes "--json" any more,
    # and it stays among the tokens
    rc = main(argv)
    assert rc in (0, 1, 2, 3), argv


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_meaningless_tolerance_exits_2(capsys, tol):
    for argv in (
        ["verify", "rational"],
        ["verify-all"],
        ["custom", "--F", "1/(k+2)"],
        ["kernel-check"],
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
    *(["verify", "kernel", "--param", f"{name}={v}"]
      for name in ("a", "t") for v in [*_CLI_VALUES, "1+2i", "x"]),
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
import gc, sys
import quadcheck.cli
assert gc.get_freeze_count() == 0, "import froze objects"
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


def _run_probe(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this package; it must exit 0.

    A fresh interpreter because these tests' own imports would hide what
    the package loads.
    """
    import os
    import sys

    import quadcheck

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(quadcheck.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_cli_import_leaves_out_dataclasses_inspect_and_expr():
    assert _run_probe(_FOOTPRINT_PROBE).stdout.strip() == ""


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


def test_the_process_entry_point_freezes_before_it_exits(capsys):
    # the shutdown collections skip the frozen objects; stdout and the exit
    # code are main's
    proc = _run_probe(
        "import atexit, gc, sys\n"
        "import quadcheck.cli\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
        "sys.argv = ['quadcheck', 'verify', 'rational', '--format', 'json']\n"
        "quadcheck.cli.main_entry()\n"
    )
    frozen = int(proc.stderr.rsplit("frozen ", 1)[1])
    assert frozen > 0
    assert main(["verify", "rational", "--format", "json"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert main(["verify", "rational"]) == 0
    assert main(["verify", "rational", "--param", "a=nan"]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == before
