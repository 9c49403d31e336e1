"""Command line front end: exit codes, JSON schema, determinism."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcheck import ParameterError
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
    assert len(records) == 6
    assert [r["case"] for r in records] == [
        "rational", "bessel", "gaussian", "cosine", "gamma", "zeta",
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
        ["kernel-check", "--a", "1"],                # missing --t
        ["kernel-check", "--a", "1+2i", "--t", "1"],  # complex a
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
    rc = main(["verify", "gaussian", "--tol", "1e-16"])
    assert rc in (1,)
    capsys.readouterr()


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
