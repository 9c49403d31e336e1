"""Opt-in tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces public functions of each layer with wrappers,
everywhere the function object is bound: in its own module, in every
package module that imported the name directly, and in module-level dicts
(such as the expression language's function table).  ``uninstall`` puts
the originals back.

Per-operation functions get spans (name, start, end, parent, operation id).
Per-node functions, called thousands of times per operation, get a call
count and cumulative time instead; nested calls of the same function (a
recursive ``evaluate``, gamma's reflection step) count once, at the
outermost call.  Spans and counters stay in memory until the caller reads
them.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = (
    "quadcheck",
    "quadcheck.catalog",
    "quadcheck.cli",
    "quadcheck.expr",
    "quadcheck.kernel",
    "quadcheck.numerics",
    "quadcheck.quadrature",
)

#: Functions wrapped in spans, as (module, attribute).
SPANNED = (
    ("quadcheck.cli", "main"),
    ("quadcheck.catalog", "run_case"),
    ("quadcheck.kernel", "verify_master"),
    ("quadcheck.kernel", "verify_seed"),
    ("quadcheck.kernel", "detect_schwarz_symmetry"),
    ("quadcheck.expr", "parse"),
    ("quadcheck.quadrature", "integrate_finite"),
    ("quadcheck.quadrature", "integrate_half_line"),
    ("quadcheck.quadrature", "integrate_real_line"),
)

#: Per-node functions: counted and timed, no spans.
COUNTED = (
    ("quadcheck.kernel", "kernel_weight"),
    ("quadcheck.numerics", "zeta"),
    ("quadcheck.numerics", "gamma"),
    ("quadcheck.numerics", "reciprocal_gamma"),
    ("quadcheck.expr", "evaluate"),
)

_INTEGRATORS = {"integrate_finite", "integrate_half_line", "integrate_real_line"}


def layer_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "evals", "converged")

    def __init__(self, name, start, parent, op_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id
        self.evals = 0
        self.converged = True

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run one at a time, so children of one span never overlap and
    their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.op_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        for stat in self.counters.values():
            stat[0] = 0
            stat[1] = 0.0

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_evals = name.split(".")[-1] in _INTEGRATORS

        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else -1, self.op_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            if count_evals:
                f = args[0]

                def counting(x):
                    span.evals += 1
                    return f(x)

                args = (counting,) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.converged = False
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if count_evals:
                span.converged = bool(result.converged)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        stat = self.counters.setdefault(name, [0, 0.0])
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            stat[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - start
                depth[0] = 0

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attr in table:
                original = getattr(importlib.import_module(module), attr)
                wrapper = make(layer_name(module, attr), original)
                self._patch_everywhere(modules, original, wrapper)

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []
