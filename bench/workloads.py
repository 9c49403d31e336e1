"""Seeded inputs, execution and checks for the four benchmark workloads.

Every workload is a fixed list of operations built from ``--seed``; the
program under test sees only those inputs.  Parameters are drawn by Latin
hypercube sampling over each range (one draw per stratum, strata shuffled
per parameter), so a run covers its ranges evenly and two seeds differ in
their inputs but not in how the inputs are spread.  Operation kinds are
interleaved round-robin, so any prefix of the list has close to the full
mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import oracles

#: ``custom`` and ``deep`` run, but are not listed in BENCHMARK.json: the
#: checks make 22 runs of each listed workload, and with them the runs
#: would not end within the time the checks allow (see BASELINE.md).
WORKLOADS = ("cli", "catalog", "custom", "deep")

#: (parameter, low, high, scale) per catalog case; "log" draws log-uniform,
#: "lin" uniform (used where a range touches zero or is negative), "int" an
#: integer in [low, high].
CATALOG_RANGES = {
    "rational": (("a", 0.2, 5.0, "log"), ("b", 1e-3, 10.0, "log")),
    "bessel": (("a", 0.2, 10.0, "log"),),
    "gaussian": (("b", 0.05, 0.5, "log"),),
    "cosine": (("alpha", 0.0, 0.2, "lin"),),
    "gamma": (("a", 0.0, 2.0, "lin"), ("b", 0.5, 3.0, "log")),
    "zeta": (("n", 0, 4, "int"), ("x", 0.1, 0.9, "lin"), ("a", 0.3, 8.0, "log")),
    "seed": (("a", 0.3, 3.0, "log"), ("t", 0.2, 2.0, "log")),
}

#: The hard regions of ``deep``: these keep the adaptive driver's known
#: defects (false convergence, exhausted budgets) visible.
DEEP_RANGES = {
    "oscillatory": (("omega", 50.0, 1000.0, "log"),),
    "gaussian": (("b", 0.6, 2.0, "log"),),
    "cosine": (("alpha", 0.23, 0.31, "lin"),),
    "gamma": (("a", 3.0, 7.0, "log"), ("b", -2.0, -0.5, "lin")),
}

CUSTOM_RANGE = (("a", 0.3, 5.0, "log"),)

DEEP_MAX_SUBDIVISIONS = 8000

#: Operations of each kind (for ``custom``, of each transform) in one round
#: over a workload's list.  Every list holds at least 101 operations, so a
#: run leaves at least ten latency samples beyond p90.  ``catalog`` holds
#: about 20 expensive failures (gaussian b above about 0.31, four fifths of
#: its time); their number moves by at most one between seeds.
PER_KIND = {"cli": 26, "catalog": 100, "custom": 100, "deep": 26}

#: Wall time of one round over each list at the baseline, on the host the
#: benchmark was built on, rounded up; a run of S seconds makes
#: S / ROUND_SECONDS rounds (three of ``cli`` and four of ``catalog`` at 40 s).
ROUND_SECONDS = {"cli": 13.0, "catalog": 10.0, "custom": 10.0, "deep": 20.0}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of ``seconds``: fixed by the arguments, not the host."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))

CLI_CASES = ("rational", "bessel", "gaussian", "cosine", "gamma", "zeta")


@dataclass(frozen=True)
class Op:
    """One operation: an id for failure reports, a kind, and its inputs."""

    op_id: str
    kind: str
    params: tuple  # (name, value) pairs, or CLI argv for the cli workload


@dataclass
class Outcome:
    """What one operation produced, and what the checks made of it.

    ``status`` is "pass", "fail" (the report's pass flag is false, or a
    CLI run exits 1) or the name of the exception type raised.
    ``problems`` lists broken promises of the package: a result that
    contradicts the independent closed form, or a CLI exit code that
    disagrees with its JSON.  ``fingerprint`` is what must repeat bit for
    bit.
    """

    status: str
    untyped: bool = False
    fingerprint: tuple = ()
    problems: list = field(default_factory=list)
    rss_kb: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _stratified(rng: random.Random, n: int, lo, hi, scale: str) -> list:
    cells = list(range(n))
    rng.shuffle(cells)
    out = []
    for cell in cells:
        u = (cell + rng.random()) / n
        if scale == "int":
            out.append(int(lo + min(int(u * (hi - lo + 1)), hi - lo)))
        elif scale == "log":
            out.append(lo * (hi / lo) ** u)
        else:
            out.append(lo + (hi - lo) * u)
    return out


def _draw(seed: int, tag: str, ranges, n: int) -> list[tuple]:
    """n parameter tuples for one kind, Latin-hypercube over ``ranges``."""
    rng = random.Random(f"{seed}:{tag}")
    columns = [_stratified(rng, n, lo, hi, scale) for _, lo, hi, scale in ranges]
    names = [r[0] for r in ranges]
    return [tuple(zip(names, row)) for row in zip(*columns)]


def _interleave(workload: str, per_kind: dict[str, list]) -> list[Op]:
    ops = []
    kinds = list(per_kind)
    for i in range(max(len(v) for v in per_kind.values())):
        for kind in kinds:
            if i < len(per_kind[kind]):
                ops.append(Op(f"{workload}-{len(ops):04d}-{kind}", kind, per_kind[kind][i]))
    return ops


def _literal(value) -> str:
    return repr(float(value)) if not isinstance(value, int) else str(value)


def generate(workload: str, seed: int, per_kind: int | None = None) -> list[Op]:
    """The operation list of ``workload`` for ``seed``."""
    n = per_kind or PER_KIND[workload]
    if workload == "catalog":
        return _interleave(workload, {
            kind: _draw(seed, f"catalog:{kind}", ranges, n)
            for kind, ranges in CATALOG_RANGES.items()
        })
    if workload == "deep":
        return _interleave(workload, {
            kind: _draw(seed, f"deep:{kind}", ranges, n)
            for kind, ranges in DEEP_RANGES.items()
        })
    if workload == "custom":
        per_transform = [
            [(("F", F),) + a for a in _draw(seed, f"custom:{F}", CUSTOM_RANGE, n)]
            for F in oracles.TRANSFORMS
        ]
        return _interleave(workload, {"custom": [
            params for group in zip(*per_transform) for params in group
        ]})
    if workload == "cli":
        transforms = list(oracles.TRANSFORMS)
        custom_a = _draw(seed, "cli:custom", CUSTOM_RANGE, n)
        cases = [CLI_CASES[i % len(CLI_CASES)] for i in range(n)]
        draws = {
            case: iter(_draw(seed, f"cli:verify:{case}", CATALOG_RANGES[case], cases.count(case)))
            for case in CLI_CASES
        }
        verify = []
        for case in cases:
            argv = ["verify", case]
            for name, value in next(draws[case]):
                argv += ["--param", f"{name}={_literal(value)}"]
            verify.append(tuple(argv) + ("--format", "json"))
        return _interleave(workload, {
            "verify-all": [("verify-all", "--format", "json")] * n,
            "kernel-check": [("kernel-check", "--format", "json")] * n,
            "custom": [
                ("custom", "--F", transforms[i % len(transforms)],
                 "--a", _literal(custom_a[i][0][1]), "--format", "json")
                for i in range(n)
            ],
            "verify": verify,
        })
    raise ValueError(f"unknown workload {workload!r}")


# --- checks ---------------------------------------------------------------

def _agrees(value: complex, exact: complex, tol: float) -> bool:
    diff = abs(value - exact)
    return diff < tol or diff < tol * abs(exact)


def check_record(rec: dict, tolerance: float) -> list[str]:
    """Compare one report record with the independent closed form.

    A passed record whose lhs misses the oracle by ten times the tolerance,
    or a failed one whose lhs meets a tenth of it, is a contradiction; the
    band between leaves room for rounding at the pass threshold.
    """
    params = {k: complex(v["re"], v["im"]) for k, v in rec["params"].items()}
    lhs = complex(rec["lhs"]["re"], rec["lhs"]["im"])
    rhs = complex(rec["rhs"]["re"], rec["rhs"]["im"])
    exact = oracles.closed_form(rec["case"], params)
    problems = []
    if abs(rhs - exact) > 1e-9 * abs(exact) + 1e-15:
        problems.append(f"{rec['case']}: closed form {rhs!r} differs from oracle {exact!r}")
    if rec["pass"] and not _agrees(lhs, exact, 10 * tolerance):
        problems.append(f"{rec['case']}: passed with lhs {lhs!r}, oracle {exact!r}")
    if not rec["pass"] and _agrees(lhs, exact, tolerance / 10):
        problems.append(f"{rec['case']}: failed with lhs {lhs!r}, oracle {exact!r}")
    return problems


def report_record(report) -> dict:
    """A ``VerificationReport`` in the CLI's JSON record shape."""
    return {
        "case": report.case_name,
        "params": {k: {"re": v.real, "im": v.imag} for k, v in report.params.items()},
        "lhs": {"re": report.lhs.real, "im": report.lhs.imag},
        "rhs": {"re": report.rhs.real, "im": report.rhs.imag},
        "pass": report.passed,
        "evaluations": report.diagnostics.evaluations,
    }


def _record_fingerprint(rec: dict) -> tuple:
    return (rec["case"], rec["lhs"]["re"].hex(), rec["lhs"]["im"].hex(), rec["evaluations"])


def _error_outcome(exc: BaseException, qc) -> Outcome:
    untyped = not isinstance(exc, qc.QuadcheckError)
    evaluations = getattr(getattr(exc, "result", None), "evaluations", None)
    return Outcome(type(exc).__name__, untyped, (type(exc).__name__, evaluations))


# --- execution ------------------------------------------------------------

class Executor:
    """Runs operations of one workload against the package under test.

    ``in_process`` runs CLI operations through ``quadcheck.cli.main`` in
    this interpreter (the traced run) instead of a child process.
    """

    def __init__(self, workload: str, src_dir: str, in_process: bool = False):
        import quadcheck
        import quadcheck.cli

        self.qc = quadcheck
        self.cli = quadcheck.cli
        self.workload = workload
        self.in_process = in_process
        self.tolerance = quadcheck.DEFAULT_TOLERANCE
        self.deep_opts = quadcheck.QuadratureOptions(max_subdivisions=DEEP_MAX_SUBDIVISIONS)
        self.env = child_env(src_dir)

    def __call__(self, op: Op) -> Outcome:
        if self.workload == "cli":
            return self._cli(op)
        try:
            if self.workload == "custom":
                return self._report(self._custom(dict(op.params)))
            if op.kind == "oscillatory":
                return self._oscillatory(dict(op.params)["omega"])
            if op.kind == "seed":
                p = dict(op.params)
                return self._report(self.qc.verify_seed(p["a"], p["t"]))
            return self._report(self.qc.run_case(op.kind, dict(op.params)))
        except Exception as exc:  # every failure is an outcome to record
            return _error_outcome(exc, self.qc)

    def _custom(self, p: dict):
        qc = self.qc
        ast = qc.parse(p["F"])

        def fn(k: complex) -> complex:
            return qc.evaluate(ast, {"k": k})

        transform = qc.TransformFunction(
            fn=fn, schwarz_symmetric=qc.detect_schwarz_symmetry(fn), name=p["F"]
        )
        return qc.verify_master(transform, qc.KernelParams(p["a"]))

    def _report(self, report) -> Outcome:
        rec = report_record(report)
        return Outcome(
            "pass" if report.passed else "fail",
            fingerprint=_record_fingerprint(rec),
            problems=check_record(rec, self.tolerance),
        )

    def _oscillatory(self, omega: float) -> Outcome:
        result = self.qc.integrate_finite(
            lambda x: math.cos(omega * x), 0.0, 10.0, self.deep_opts
        )
        exact = oracles.oscillatory(omega)
        tol = max(self.deep_opts.abs_tol, self.deep_opts.rel_tol * abs(exact))
        if not result.converged:
            status = "unconverged"
        elif abs(result.value - exact) > tol:
            status = "false-convergence"
        else:
            status = "pass"
        value = complex(result.value)
        return Outcome(status, fingerprint=(value.real.hex(), value.imag.hex(), result.evaluations))

    def _cli(self, op: Op) -> Outcome:
        argv = list(op.params)
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a traceback, which the CLI must not give
                    outcome = _error_outcome(exc, self.qc)
                    outcome.untyped = True
                    return outcome
            stdout, stderr, rss = out.getvalue(), err.getvalue(), 0
        else:
            code, stdout, stderr, rss = run_child(
                [sys.executable, "-m", "quadcheck.cli", *argv], self.env
            )
        return check_cli(code, stdout, stderr, self.tolerance, rss)


def check_cli(code: int, stdout: str, stderr: str, tolerance: float, rss_kb: int = 0) -> Outcome:
    """Exit code 0 means every JSON record passed, 1 that one failed, and
    2 or 3 a typed error reported on stderr with nothing on stdout."""
    problems = []
    records = None
    if stdout.strip():
        try:
            records = json.loads(stdout)
        except json.JSONDecodeError:
            problems.append(f"exit {code}: stdout is not JSON")
    if code in (0, 1):
        if records is None:
            problems.append(f"exit {code} without JSON records")
            records = []
        for rec in records:
            problems += check_record(rec, tolerance)
        all_pass = all(rec["pass"] for rec in records)
        if all_pass != (code == 0):
            problems.append(f"exit {code} but JSON pass flags all={all_pass}")
    elif code in (2, 3):
        if records is not None or not stderr.strip():
            problems.append(f"exit {code} must print a message and no records")
    else:
        problems.append(f"unexpected exit code {code}: {stderr.strip()[-200:]}")
    status = {0: "pass", 1: "fail", 2: "exit-2", 3: "exit-3"}.get(code, f"exit-{code}")
    fingerprint = (code,) + tuple(_record_fingerprint(r) for r in records or [])
    untyped = code not in (0, 1, 2, 3)
    return Outcome(status, untyped, fingerprint, problems, rss_kb)


def child_env(src_dir: str) -> dict:
    """Environment for child interpreters: the package comes from ``src_dir`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def run_child(cmd: list[str], env: dict) -> tuple[int, str, str, int]:
    """Run ``cmd`` to completion; return exit code, stdout, stderr and peak RSS in KiB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode(), stderr.decode(), usage.ru_maxrss


def digest(ops: list[Op], outcomes: list[Outcome]) -> str:
    """Hash of every operation's id, status, lhs bits and evaluation count."""
    h = hashlib.sha256()
    for op, outcome in zip(ops, outcomes):
        h.update(repr((op.op_id, outcome.status, outcome.fingerprint)).encode())
    return h.hexdigest()[:16]
