"""Fixed micro-measurements of single layers, reported by the traced run.

Each probe times the package's own functions (never the tracing wrappers)
on fixed inputs, so its figure does not depend on the workload or seed.
"""

from __future__ import annotations

import marshal
import math
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import run_child

#: Fresh interpreters per start-up figure (after one untimed warm-up, which
#: also leaves the package's bytecode cache written).
START_REPEATS = 7

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import {module} as m; "
    "print(time.perf_counter() - t); print(m.__file__)"
)


def fresh_import(module: str, env: dict) -> tuple[float, str]:
    """Seconds to import ``module`` in a new interpreter, timed inside it,
    and the file it was imported from."""
    code, out, err, _ = run_child(
        [sys.executable, "-c", IMPORT_SNIPPET.format(module=module)], env
    )
    if code != 0:
        raise RuntimeError(f"importing {module} failed: {err.strip()[-300:]}")
    seconds, path = out.split("\n")[:2]
    return float(seconds), path


def import_seconds(module: str, env: dict, repeats: int = START_REPEATS) -> list[float]:
    fresh_import(module, env)
    return [fresh_import(module, env)[0] for _ in range(repeats)]


def python_start_ms(env: dict, repeats: int = START_REPEATS) -> float:
    """Wall time of a bare ``python -c pass``, for reference."""
    times = []
    for _ in range(repeats + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times[1:])


def ns_per_call(fn, args: list, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time per call, cycling ``args``."""
    loop = [args[i % len(args)] for i in range(calls)]
    fn(*loop[0])
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for a in loop:
            fn(*a)
        samples.append((perf_counter() - start) / calls)
    return 1e9 * statistics.median(samples)


#: Code object for the unmarshalling part of ``reference_work``: a fixed
#: synthetic module, so the reference never depends on the package.
_REFERENCE_CODE = marshal.dumps(compile(
    "".join(f"def f{i}(x):\n    return x * {i} + {i}.5\n" for i in range(200)),
    "<reference>", "exec",
))


def _ref_sum(x: float, a: float) -> float:
    return x * a + 1.0


def reference_work() -> None:
    """About a millisecond of the kinds of work the package and its CLI
    do: complex and float arithmetic, calls, list scans and unmarshalling
    code (as an import does)."""
    z, s = 0.3 + 0.1j, 0j
    for _ in range(1000):
        z = z * (0.999 + 0.001j) + 0.001
        s += z / (1.0 + abs(z))
    f = 0.0
    for i in range(1000):
        f += math.exp(-0.01 * i) * math.cos(0.03 * i)
    for _ in range(1000):
        f = _ref_sum(f, 0.5)
    segments = [(0.1 * i, 1.0 / (i + 1)) for i in range(300)]
    for _ in range(10):
        worst = max(range(len(segments)), key=lambda i: segments[i][1])
        segments[worst] = (segments[worst][0], 0.5 * segments[worst][1])
    for _ in range(3):
        marshal.loads(_REFERENCE_CODE)


def reference_seconds() -> float:
    """Time of one ``reference_work``: how fast the machine runs right now."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start


#: Subdivision budgets for the adaptive-driver probe.  cos(2500 x) on
#: [0, 10] needs more than 8000 bisections at the default tolerances, so
#: every budget is spent in full and the count is exact.
SUBDIVISION_PROBES = ((500, 5), (2000, 3), (8000, 1))
PROBE_OMEGA = 2500.0


def us_per_eval(qc, max_subdivisions: int, repeats: int) -> float:
    opts = qc.QuadratureOptions(max_subdivisions=max_subdivisions)
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        result = qc.integrate_finite(lambda x: math.cos(PROBE_OMEGA * x), 0.0, 10.0, opts)
        samples.append((perf_counter() - start) / result.evaluations)
    return 1e6 * statistics.median(samples)


def layer_probes(qc, env: dict) -> dict[str, float]:
    """Every probe, keyed by per-layer metric name."""
    from quadcheck import numerics

    kp = qc.KernelParams(0.7)
    out = {
        "cli.python_start_ms": python_start_ms(env),
        "cli.import_ms": 1e3 * statistics.median(import_seconds("quadcheck.cli", env)),
        "kernel.kernel_weight_ns": ns_per_call(
            qc.kernel_weight, [(kp, 0.3), (kp, 4.0), (kp, 30.0)], 30000
        ),
        "numerics.gamma_ns": ns_per_call(
            numerics.gamma, [(0.7 + 0.3j,), (3 + 8j,), (-2.5 + 0.5j,)], 6000
        ),
        "numerics.reciprocal_gamma_ns": ns_per_call(
            numerics.reciprocal_gamma, [(1 + 2j,), (20 + 10j,), (-3.5 + 1j,)], 6000
        ),
        "numerics.zeta_ns.strip": ns_per_call(numerics.zeta, [(0.5 + 14j,)], 1000),
        "numerics.zeta_ns.mid": ns_per_call(numerics.zeta, [(3 + 8j,)], 2000),
        "numerics.zeta_ns.dirichlet": ns_per_call(numerics.zeta, [(12 + 8j,)], 4000),
    }
    for budget, repeats in SUBDIVISION_PROBES:
        out[f"quadrature.us_per_eval.sub{budget}"] = us_per_eval(qc, budget, repeats)
    return out
