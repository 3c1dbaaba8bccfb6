"""Outside-in tracing of arrlog: spans and counters without touching `src/`.

`Tracer.install()` replaces every `arrlog.*` module attribute (and class
attribute, for methods) that is bound to a traced function by a wrapper
that records a span `[name, start, end, parent]`.  Spans stay in memory
until the run ends.  `Tracer.uninstall()` puts the originals back.

Counters are computed from arguments and return values only.  The time
spent computing them is recorded as a `trace.bookkeeping` span, so it
is neither charged to a layer nor to `other.self_s`.

The spans form one stack, which assumes the traced code runs in one
thread (it does with `ARRLOG_THREADS` at its default).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "arrlog"
BOOKKEEPING = "trace.bookkeeping"


# ---------------------------------------------------------------------------
# counters, computed from arguments and return values
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Hook:
    """Per-function counters; `prepare` may swap arguments, `observe` reads results."""

    def prepare(self, args, kwargs):
        return args, kwargs, None

    def observe(self, stats, args, kwargs, state, result, raised):
        pass


class _RrefOps(_Hook):
    """ops = rank * rows * cols, the work of dense Gauss-Jordan; max_cells = rows * cols."""

    def observe(self, stats, args, kwargs, state, result, raised):
        if raised:
            return
        rows, cols = _arg(args, kwargs, 0, "A").shape
        stats.add("modular.rref_mod.ops", len(result[1]) * rows * cols)
        stats.maximum("modular.rref_mod.max_cells", rows * cols)


class _KernelPrimes(_Hook):
    """Primes tried (calls of `build`) and primes in the returned group."""

    def prepare(self, args, kwargs):
        build = _arg(args, kwargs, 0, "build")
        tried = [0]

        def counting_build(p):
            tried[0] += 1
            return build(p)

        if args:
            args = (counting_build,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, build=counting_build)
        return args, kwargs, tried

    def observe(self, stats, args, kwargs, state, result, raised):
        stats.add("modular.kernel_qq_candidates.primes", state[0])
        if not raised:
            stats.add("modular.kernel_qq_candidates.primes_used", len(result[3]))


class _Reconstruction(_Hook):
    """Failed lifts (None returned) and the largest reconstructed bit height."""

    def observe(self, stats, args, kwargs, state, result, raised):
        if raised:
            return
        if result is None:
            stats.add("modular.reconstruct_matrix.failed", 1)
            return
        bits = max(
            (max(abs(f.numerator).bit_length(), f.denominator.bit_length())
             for row in result for f in row),
            default=0,
        )
        stats.maximum("modular.reconstruct_matrix.max_bits", bits)


class _DivisibilityKeys(_Hook):
    """Distinct (form, m, degree) keys.

    A form reduced mod a ladder prime (a Q computation) is keyed by its
    symmetric integer lift, so the same rational form seen under several
    primes is one key; a form over a native prime field keeps its field.
    """

    def __init__(self):
        self.ladder = None

    def observe(self, stats, args, kwargs, state, result, raised):
        if self.ladder is None:
            self.ladder = frozenset(sys.modules[f"{PACKAGE}.modular"].PRIMES)
        alpha = _arg(args, kwargs, 0, "alpha")
        m = _arg(args, kwargs, 1, "m")
        degree = _arg(args, kwargs, 2, "degree")
        p = getattr(alpha.field, "p", None)
        if p in self.ladder:
            key = ("lift", tuple(c if 2 * c <= p else c - p for c in alpha.coeffs), m, degree)
        else:
            key = (alpha.field, alpha.coeffs, m, degree)
        stats.keys.add(key)


@dataclass(frozen=True)
class Target:
    module: str  # arrlog submodule
    attr: str  # function name, or Class.method
    hook: type | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.split('.')[-1]}"


TARGETS = (
    Target("poly", "divisibility_row_data", _DivisibilityKeys),
    Target("poly", "poly_det"),
    Target("solver", "AmbientEngine.build_mod"),
    Target("solver", "RelativeEngine.build_mod"),
    Target("solver", "eval_matrix_mod"),
    Target("solver", "membership_failures"),
    Target("solver", "combination_is_zero"),
    Target("solver", "minimal_generators"),
    Target("solver", "saito_check"),
    Target("modular", "rref_mod", _RrefOps),
    Target("modular", "kernel_qq_candidates", _KernelPrimes),
    Target("modular", "reconstruct_matrix", _Reconstruction),
    Target("resolution", "betti_table"),
    Target("maps", "restrict_form"),
    Target("maps", "certified_image_rank"),
    Target("maps", "surjectivity_check"),
    Target("checks", "euler_exactness_check"),
    Target("checks", "criticality_check"),
    Target("lattice", "intersection_lattice"),
    Target("lattice", "is_k_generic"),
    Target("linalg", "rref"),
    Target("arrangement", "restrict"),
)

#: claim steps of all workloads, reported as claims.<step>.s
CLAIM_STEPS = (
    "generic_cut_bundle",
    "criticality_family",
    "euler_ledgers",
    "ziegler22_free",
    "ziegler22_restriction",
    "nine4d",
)


LAYERS = tuple(dict.fromkeys(t.name for t in TARGETS))
MODULES = tuple(dict.fromkeys(t.module for t in TARGETS))


def _metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in LAYERS:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    specs += [
        ("poly.divisibility_row_data.distinct_ratio", "ratio"),
        ("modular.rref_mod.ops", "count"),
        ("modular.rref_mod.max_cells", "count"),
        ("modular.kernel_qq_candidates.primes", "count"),
        ("modular.kernel_qq_candidates.useful_ratio", "ratio"),
        ("modular.reconstruct_matrix.failed", "count"),
        ("modular.reconstruct_matrix.max_bits", "bits"),
    ]
    specs += [(f"{module}.self_s", "s") for module in MODULES]
    specs += [(f"claims.{step}.s", "s") for step in CLAIM_STEPS]
    specs += [("other.self_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return tuple(specs)


METRICS = _metric_specs()


class _Stats:
    def __init__(self):
        self.counts = defaultdict(int)
        self.keys = set()

    def add(self, name, n):
        self.counts[name] += n

    def maximum(self, name, n):
        self.counts[name] = max(self.counts[name], n)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stats = _Stats()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = arrlog_modules()
        for target in TARGETS:
            module = sys.modules[f"{PACKAGE}.{target.module}"]
            hook = target.hook() if target.hook else None
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                self._patch(owner, meth, self._wrap(target.name, original, hook))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(target.name, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = None
            if hook is not None:
                args, kwargs, state = hook.prepare(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            raised = True
            result = None
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook.observe(stats, args, kwargs, state, result, raised)
                    spans.append([BOOKKEEPING, span[2], clock(), span[3]])

        wrapper.perfbench_span = name
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded so far, for `wall_s` of traced work."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            if name != BOOKKEEPING:
                calls[name] += 1
                self_s[name] += end - start - inner
        c = self.stats.counts
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["poly.divisibility_row_data.distinct_ratio"] = _ratio(
            len(self.stats.keys), calls["poly.divisibility_row_data"])
        out["modular.rref_mod.ops"] = c["modular.rref_mod.ops"]
        out["modular.rref_mod.max_cells"] = c["modular.rref_mod.max_cells"]
        out["modular.kernel_qq_candidates.primes"] = c["modular.kernel_qq_candidates.primes"]
        out["modular.kernel_qq_candidates.useful_ratio"] = _ratio(
            c["modular.kernel_qq_candidates.primes_used"], c["modular.kernel_qq_candidates.primes"])
        out["modular.reconstruct_matrix.failed"] = c["modular.reconstruct_matrix.failed"]
        out["modular.reconstruct_matrix.max_bits"] = c["modular.reconstruct_matrix.max_bits"]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(module + "."))
        out["other.self_s"] = wall_s - covered
        out["trace.spans"] = sum(1 for s in self.spans if s[0] != BOOKKEEPING)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def arrlog_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def leftover_wrappers():
    """Attributes of arrlog modules and classes still bound to a tracer wrapper."""
    found = []
    for mod in arrlog_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, "perfbench_span"):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
