"""The quadcheck benchmark: one seeded workload per run, checked and timed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli,catalog,custom,deep} --seed N \
        --seconds S --trace {0,1}

The load is a closed loop with a single client: one process, one operation
in flight at a time, each operation started when the previous one ends.
A run makes R whole rounds over the workload's operation list (see
``workloads.py``), R = ``--seconds`` over the workload's nominal round
time (``workloads.ROUND_SECONDS``), so every host does the same work.  The
first round checks every result and fixes ``attempted``, ``failed``, the
result digest and the fail breakdown; every later round must reproduce
each result bit for bit.

Timing on a shared host.  The host's other tenants slow the benchmark by
about half in bursts of tens of milliseconds and longer, for a third to
three quarters of the time, and that share changes from one minute to the
next.  Two measures take most of that out:

* An operation's time is its fastest over the R rounds, which lie seconds
  apart, so most operations get a round with few bursts.
* Between operations, at most every 15 ms and outside their timing, the
  run times ``probes.reference_work``, a fixed loop of the benchmark's own,
  three times.
  Its times fall in two groups, outside and inside the bursts; their 5th
  percentile reads the speed outside them, which follows the drift.  Every
  reported time is scaled by ``NOMINAL_REFERENCE_S`` over that percentile,
  i.e. it is given for a host on which the loop takes 1 ms.  The raw
  figures and the factor are printed and kept in the details.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median time to import what the workload calls (``quadcheck``,
  or ``quadcheck.cli`` for ``cli``) in a fresh interpreter, timed inside it;
  each set-up is the fastest of five interpreters started 1.5 s apart
  during the run (see ``SetupSampler``).
* ``ops_per_s``: operations in the list over the sum of their times.
* ``op_ms_p50``, ``op_ms_p90``: nearest-rank percentiles of the operations'
  times; every list is long enough to leave ten samples beyond p90.
* ``pass_ratio``: operations that passed over those attempted in the first
  round.  An operation fails if its report does not pass, if it raises, or
  (``cli``) if it exits nonzero.  The fail ratio, its breakdown by kind
  and the failing ids are printed above the result line; the metric is
  the pass ratio because a ratio that can be zero has no relative bound.
* ``peak_rss_mb``: peak resident memory of the process doing the work
  (the CLI child processes for ``cli``).

``--trace 1`` alternates untraced and traced passes over the first
``TRACED_OPS`` operations (CLI operations run through ``quadcheck.cli.main``
in process, so the layers below it can be traced) and reports per-layer
metrics per pass, the probes of ``probes.py`` and the tracing overhead.

``correct`` is false if any result contradicts its independent closed form
(``oracles.py``), a CLI exit code disagrees with its JSON records, or a
repeated operation does not reproduce its first result bit for bit.  Human
readable lines come first; the last line of stdout is one JSON object.
Per-operation outcomes, and in the traced run the spans, are written to
``.bench_out/`` in the checkout.

Tests of the benchmark itself: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import probes
import workloads
from tracing import Tracer, self_times
from workloads import Executor, Op, Outcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Quadrature evaluation counts are reported for each of these kinds.
OP_KINDS = (
    "verify-all", "kernel-check", "custom", "verify",
    "rational", "bessel", "gaussian", "cosine", "gamma", "zeta", "seed",
    "oscillatory",
)

#: Reported times are for a host on which ``probes.reference_work`` takes
#: this long (about its time on the host the benchmark was built on).
NOMINAL_REFERENCE_S = 1e-3

#: The traced run passes over this many operations from the start of the
#: list (the full mix, as kinds are interleaved), so that one untraced and
#: one traced pass plus the probes stay well inside three minutes.
TRACED_OPS = 1000

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  Counts and times are per pass over
#: the operation list; names ending in _ns, _us or sub<N> come from probes.
#: ``machine.reference_us`` times a fixed loop of the benchmark's own, so
#: figures from runs at different moments of a drifting host can be compared.
LAYER_UNITS = {
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "catalog.run_case.calls": "count",
    "catalog.run_case.self_ms": "ms",
    "kernel.kernel_weight.calls": "count",
    "kernel.kernel_weight_ns": "ns",
    "kernel.verify_master.self_ms": "ms",
    "kernel.verify_seed.calls": "count",
    "kernel.detect_schwarz_symmetry_ms": "ms",
    "quadrature.evals": "count",
    **{f"quadrature.evals.{kind}": "count" for kind in OP_KINDS},
    "quadrature.self_ms": "ms",
    "quadrature.wasted_eval_ratio": "ratio",
    "quadrature.us_per_eval.sub500": "us",
    "quadrature.us_per_eval.sub2000": "us",
    "quadrature.us_per_eval.sub8000": "us",
    "numerics.zeta.calls": "count",
    "numerics.zeta.ms": "ms",
    "numerics.zeta_ns.strip": "ns",
    "numerics.zeta_ns.mid": "ns",
    "numerics.zeta_ns.dirichlet": "ns",
    "numerics.gamma.calls": "count",
    "numerics.gamma_ns": "ns",
    "numerics.reciprocal_gamma.calls": "count",
    "numerics.reciprocal_gamma_ns": "ns",
    "expr.parse_us": "us",
    "expr.evaluate.calls": "count",
    "expr.evaluate_us": "us",
    "errors.typed": "count",
    "errors.untyped": "count",
    "ops.fail_ratio": "ratio",
    "trace.overhead_pct": "%",
    "machine.reference_us": "us",
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q at or below it."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(math.ceil(q * n), 1)


class Pass:
    """Results and timings of a run's rounds over one operation list."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.outcomes: list[Outcome] = []
        self.times: list[list[float]] = []  # per round, per operation
        self.elapsed = 0.0
        self.mismatches: list[str] = []
        self.peak_child_kb = 0

    def run(self, execute, rounds: int = 1, on_op=None, between=None) -> "Pass":
        """``rounds`` whole rounds over every operation.

        The first round fixes each operation's outcome; later rounds must
        reproduce it bit for bit.  ``best`` is each operation's fastest
        time over the rounds.  ``between`` is called after each operation,
        outside its timing.
        """
        gc.collect()
        start = perf_counter()
        for _ in range(rounds):
            first = not self.times
            self.times.append([])
            for i, op in enumerate(self.ops):
                if on_op:
                    on_op(op)
                t0 = perf_counter()
                outcome = execute(op)
                self.times[-1].append(perf_counter() - t0)
                self.peak_child_kb = max(self.peak_child_kb, outcome.rss_kb)
                if first:
                    self.outcomes.append(outcome)
                elif outcome.fingerprint != self.outcomes[i].fingerprint:
                    self.mismatches.append(op.op_id)
                if between:
                    between()
        self.elapsed = perf_counter() - start
        return self

    @property
    def rounds(self) -> int:
        return len(self.times)

    @property
    def best(self) -> list[float]:
        """Each operation's fastest time over the rounds."""
        return [min(ts) for ts in zip(*self.times)]

    @property
    def failed(self) -> int:
        return sum(not o.passed for o in self.outcomes)

    @property
    def problems(self) -> list[str]:
        found = [f"{op.op_id}: {p}" for op, o in zip(self.ops, self.outcomes) for p in o.problems]
        found += [f"{op_id}: result differs on repeat" for op_id in self.mismatches]
        return found

    @property
    def correct(self) -> bool:
        return len(self.outcomes) == len(self.ops) and not self.problems

    def digest(self) -> str:
        return workloads.digest(self.ops, self.outcomes)

    def breakdown(self) -> dict[str, dict]:
        """Per kind: attempted, failed, and the failing ids with their status."""
        out: dict[str, dict] = {}
        for op, o in zip(self.ops, self.outcomes):
            entry = out.setdefault(op.kind, {"attempted": 0, "failed": 0, "failures": []})
            entry["attempted"] += 1
            if not o.passed:
                entry["failed"] += 1
                entry["failures"].append(f"{op.op_id}:{o.status}")
        return out

    def error_counts(self) -> tuple[int, int]:
        """(typed, untyped) exceptions among the first-pass outcomes."""
        typed = untyped = 0
        for o in self.outcomes:
            if o.untyped:
                untyped += 1
            elif o.status not in ("pass", "fail", "unconverged", "false-convergence"):
                typed += 1
        return typed, untyped


def warm_up(ops: list[Op], execute) -> None:
    """Run the first operation of each kind once, untimed, so lazy set-up
    (bytecode caches, the zeta coefficient cache) is done before timing."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            execute(op)


class SetupSampler:
    """Set-up times: fresh-interpreter imports of the module a workload calls.

    One interpreter is timed every ``interval`` seconds between operations,
    outside their timing; each run of ``tries`` consecutive ones is one
    set-up, timed by its fastest.  The tries lie seconds apart, so a set-up
    seldom has every one inside a burst of the host's other tenants, and
    the set-ups span the whole run.  ``finish`` completes the last set-up
    and makes at least ``minimum``.
    """

    interval = 1.5
    tries = 5
    minimum = 3

    def __init__(self, workload: str, env: dict):
        self.module = "quadcheck.cli" if workload == "cli" else "quadcheck"
        self.env = env
        self.imports: list[float] = []
        self._next = 0.0
        probes.fresh_import(self.module, self.env)  # writes bytecode caches

    @property
    def samples(self) -> list[float]:
        """The complete set-ups' times."""
        k = self.tries
        return [min(self.imports[i:i + k]) for i in range(0, len(self.imports) - k + 1, k)]

    def sample(self) -> None:
        self.imports.append(probes.fresh_import(self.module, self.env)[0])
        self._next = perf_counter() + self.interval

    def __call__(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def finish(self) -> None:
        while len(self.imports) % self.tries or len(self.samples) < self.minimum:
            self.sample()


class HostSpeed:
    """Times ``probes.reference_work`` ``loops`` times between operations,
    at most once per ``interval`` seconds, to scale a run's times to a
    nominal host."""

    interval = 0.015
    loops = 3
    quantile = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def __call__(self) -> None:
        if perf_counter() >= self._next:
            self.samples += [probes.reference_seconds() for _ in range(self.loops)]
            self._next = perf_counter() + self.interval

    def scale(self) -> float:
        """Factor from this run's times to the nominal host's: the nominal
        loop time over the loop's ``quantile`` in the run."""
        times = sorted(self.samples)
        return NOMINAL_REFERENCE_S / times[int(self.quantile * len(times))]


def metric(name: str, value: float) -> dict:
    unit = END_TO_END_UNITS.get(name) or LAYER_UNITS[name]
    return {"value": value, "unit": unit}


def end_to_end(workload: str, p: Pass, setup: list[float], scale: float = 1.0) -> dict:
    """End-to-end metrics of an untraced run; ``scale`` converts its times
    to the nominal host's (see ``HostSpeed``)."""
    if workload == "cli":
        peak_kb = p.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": scale * statistics.median(setup),
        "ops_per_s": len(p.best) / (scale * math.fsum(p.best)),
        "op_ms_p50": scale * 1e3 * percentile(p.best, 0.5),
        "op_ms_p90": scale * 1e3 * percentile(p.best, 0.9),
        "pass_ratio": (len(p.ops) - p.failed) / len(p.ops),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {name: metric(name, value) for name, value in values.items()}


def layer_metrics(tracer, p: Pass) -> dict[str, float]:
    """Per-layer figures for one traced pass over the list."""
    kinds = {op.op_id: op.kind for op in p.ops}
    by_name: dict[str, list] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name.setdefault(span.name, []).append((span, own))

    def spans(name):
        return by_name.get(name, [])

    def count(name):
        return tracer.counters.get(name, [0, 0.0])[0]

    def seconds(name):
        return tracer.counters.get(name, [0, 0.0])[1]

    integrations = spans("quadrature.integrate_finite") + spans(
        "quadrature.integrate_half_line") + spans("quadrature.integrate_real_line")
    evals = sum(s.evals for s, _ in integrations)
    evals_by_kind = Counter()
    for s, _ in integrations:
        evals_by_kind[kinds.get(s.op_id, "")] += s.evals
    wasted = sum(s.evals for s, _ in integrations if not s.converged)
    main_ms = [1e3 * s.duration for s, _ in spans("cli.main")]
    parse_us = [1e6 * s.duration for s, _ in spans("expr.parse")]
    typed, untyped = p.error_counts()
    out = {
        "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "catalog.run_case.calls": len(spans("catalog.run_case")),
        "catalog.run_case.self_ms": 1e3 * sum(o for _, o in spans("catalog.run_case")),
        "kernel.kernel_weight.calls": count("kernel.kernel_weight"),
        "kernel.verify_master.self_ms": 1e3 * sum(o for _, o in spans("kernel.verify_master")),
        "kernel.verify_seed.calls": len(spans("kernel.verify_seed")),
        "kernel.detect_schwarz_symmetry_ms": 1e3 * sum(
            s.duration for s, _ in spans("kernel.detect_schwarz_symmetry")),
        "quadrature.evals": evals,
        "quadrature.self_ms": 1e3 * sum(o for _, o in integrations),
        "quadrature.wasted_eval_ratio": wasted / evals if evals else 0.0,
        "numerics.zeta.calls": count("numerics.zeta"),
        "numerics.zeta.ms": 1e3 * seconds("numerics.zeta"),
        "numerics.gamma.calls": count("numerics.gamma"),
        "numerics.reciprocal_gamma.calls": count("numerics.reciprocal_gamma"),
        "expr.parse_us": statistics.fmean(parse_us) if parse_us else 0.0,
        "expr.evaluate.calls": count("expr.evaluate"),
        "expr.evaluate_us": (1e6 * seconds("expr.evaluate") / count("expr.evaluate")
                             if count("expr.evaluate") else 0.0),
        "errors.typed": typed,
        "errors.untyped": untyped,
        "ops.fail_ratio": p.failed / len(p.ops),
    }
    for kind in OP_KINDS:
        out[f"quadrature.evals.{kind}"] = evals_by_kind[kind]
    return out


def traced_run(workload, ops, seconds, env):
    """Alternate untraced and traced passes until ``seconds`` (at least one
    pair).  Returns the per-layer metrics (medians over traced passes, plus
    probes and the tracing overhead), the first traced pass and its spans.
    Every pass must reproduce the first untraced one bit for bit."""
    import quadcheck

    executor = Executor(workload, SRC, in_process=True)
    warm_up(ops, executor)
    tracer = Tracer()

    def mark(op):
        tracer.op_id = op.op_id

    plain_times, traced_times, per_pass = [], [], []
    reference = first = first_spans = None
    start = perf_counter()
    while not traced_times or perf_counter() - start < seconds:
        plain = Pass(ops).run(executor)
        plain_times.append(plain.elapsed)
        tracer.install()
        try:
            tracer.reset()
            traced = Pass(ops).run(executor, on_op=mark)
        finally:
            tracer.uninstall()
        traced_times.append(traced.elapsed)
        per_pass.append(layer_metrics(tracer, traced))
        if reference is None:
            reference, first, first_spans = plain, traced, list(tracer.spans)
        for other in (plain, traced):
            first.mismatches += [
                op.op_id for op, a, b in zip(ops, reference.outcomes, other.outcomes)
                if a.fingerprint != b.fingerprint
            ]
    layers = {
        name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
    }
    layers.update(probes.layer_probes(quadcheck, env))
    layers["machine.reference_us"] = 1e6 * statistics.median(
        probes.reference_seconds() for _ in range(50))
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    )
    return layers, first, first_spans


def write_details(name: str, payload: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path


def describe(workload: str, seed: int, p: Pass) -> None:
    print(f"workload {workload}, seed {seed}: {len(p.ops)} operations, "
          f"{p.rounds} rounds in {p.elapsed:.2f} s (closed loop, 1 client)")
    print(f"  digest {p.digest()}")
    print(f"  fail_ratio {p.failed / len(p.ops):.4f} ({p.failed} of {len(p.ops)} failed)")
    for kind, entry in p.breakdown().items():
        line = f"    {kind}: {entry['failed']} of {entry['attempted']} failed"
        if entry["failures"]:
            line += ": " + " ".join(entry["failures"])
        print(line)
    typed, untyped = p.error_counts()
    print(f"  errors: {typed} typed QuadcheckError, {untyped} untyped")
    for problem in p.problems[:20]:
        print(f"  CHECK FAILED {problem}")


def outcomes_payload(p: Pass) -> list:
    return [
        {"id": op.op_id, "kind": op.kind, "params": list(op.params),
         "status": o.status, "fingerprint": repr(o.fingerprint), "problems": o.problems}
        for op, o in zip(p.ops, p.outcomes)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadcheck", "__init__.py")):
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import quadcheck

    if not os.path.abspath(quadcheck.__file__).startswith(SRC + os.sep):
        print(f"bench: imported quadcheck from {quadcheck.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = workloads.child_env(SRC)
    ops = workloads.generate(args.workload, args.seed)

    if args.trace:
        layers, p, spans = traced_run(args.workload, ops[:TRACED_OPS], args.seconds, env)
        describe(args.workload, args.seed, p)
        metrics = {name: metric(name, layers[name]) for name in LAYER_UNITS}
        details = {"outcomes": outcomes_payload(p), "layers": layers, "spans": [
            [s.name, s.start, s.end, s.parent, s.op_id] for s in spans]}
    else:
        executor = Executor(args.workload, SRC)
        sampler = SetupSampler(args.workload, env)
        warm_up(ops, executor)
        speed = HostSpeed()

        def between():
            sampler()
            speed()

        rounds = workloads.rounds_for(args.workload, args.seconds)
        p = Pass(ops).run(executor, rounds, between=between)
        describe(args.workload, args.seed, p)
        sampler.finish()
        scale = speed.scale()
        raw = end_to_end(args.workload, p, sampler.samples)
        metrics = end_to_end(args.workload, p, sampler.samples, scale)
        n = len(p.best)
        print(f"  latency samples {n} (fastest of {rounds} rounds each), "
              f"{samples_beyond(n, 0.9)} beyond p90; setup_s median of "
              f"{len(sampler.samples)} set-ups, each the fastest of "
              f"{SetupSampler.tries} fresh interpreters")
        print(f"  host scale {scale:.4f} from {len(speed.samples)} reference loops; raw: "
              + ", ".join(f"{k} {m['value']:.6g}" for k, m in raw.items()))
        details = {"outcomes": outcomes_payload(p), "times_s": p.times,
                   "setup_imports_s": sampler.imports, "reference_s": speed.samples,
                   "scale": scale,
                   "raw_metrics": raw}

    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    details["digest"] = p.digest()
    details["breakdown"] = p.breakdown()
    path = write_details(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", details)
    print(f"  details in {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": p.correct,
        "attempted": len(p.ops),
        "failed": p.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
