"""In-memory spans around hadspec's public functions, for the traced run.

The tracer replaces selected library functions with wrappers that record a
span (name, start, end, parent, run id) and a few exact counters read off
the arguments and return values.  A function is patched under every module
attribute that holds it, so calls made through ``from .x import f`` in a
calling module are caught as well as direct ones; ``restore`` puts every
original object back.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("core", "fixed_point", "stieltjes", "random_spectra", "metrics",
           "tightness", "experiments", "cli")

# module -> functions wrapped in it (span name "<module>.<function>")
TRACED = {
    "core": ("validate_profile",),
    "fixed_point": ("solve_e0", "solve_grid", "solve_batch", "batch_G",
                    "spectral_radius_nonneg", "build_certificate"),
    "stieltjes": ("density_curve", "cdf_interval", "mass_check"),
    "random_spectra": ("empirical_spectrum", "build_B", "hermitian_eigenvalues"),
    "metrics": ("d_metric", "ks_distance"),
    "tightness": ("plan_truncation", "truncate_profile"),
    "experiments": ("run_experiment", "make_profile"),
    "cli": ("main", "atomic_write"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None       # index into Tracer.spans
    counters: dict = field(default_factory=dict)
    child_calls: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def busy_times(spans) -> dict:
    """Per span name: summed duration of its outermost spans.

    A span nested (at any depth) inside a span of the same name is already
    counted by its ancestor, so recursion is not counted twice.
    """
    out = defaultdict(float)
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            out[s.name] += s.end - s.start
    return dict(out)


def _count(span: Span, parent: Span | None, args, kwargs, result) -> None:
    """Exact counters read from one call's arguments and result."""
    c = span.counters
    name = span.name
    if name == "fixed_point.solve_batch":
        _, res, iters = result
        red = args[0].reduced
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        tol = cfg.tol if cfg is not None else 1e-12   # SolverConfig's default
        level = parent.child_calls[name] - 1 if parent is not None else 0
        c["column_iters"] = int(iters.sum())
        c["unconverged"] = int((res > tol).sum())
        c[f"column_iters.eta{level}"] = c["column_iters"]
        c[f"unconverged.eta{level}"] = c["unconverged"]
        c["flops"] = 8.0 * red.d2.shape[0] * red.d2.shape[1] * c["column_iters"]
    elif name == "fixed_point.solve_e0":
        c["iterations"] = int(result.iterations)
        c["unconverged"] = int(not result.converged)
    elif name == "stieltjes.density_curve":
        curve = result[0] if isinstance(result, tuple) else result
        c["failed_points"] = len(curve.failed_xs)
    elif name == "tightness.plan_truncation":
        c["lines_used"] = int(result.lines_used)
    elif name == "random_spectra.empirical_spectrum":
        c["trials"] = len(result)
    elif name == "experiments.run_experiment":
        c["cells"] = len(result.rows)
        c["failed_cells"] = sum(1 for r in result.rows if r.error or not r.trusted)


class Tracer:
    """Records spans for calls made on any thread while installed."""

    def __init__(self, run_id: str = ""):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            if parent is not None:
                self.spans[parent].child_calls[name] += 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            parent = tracer.spans[span.parent] if span.parent is not None else None
            _count(span, parent, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function wherever a hadspec module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("hadspec")]
        modules += [importlib.import_module(f"hadspec.{m}") for m in MODULES]
        originals = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"hadspec.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, hit[1])
            self._patch_reduced(importlib.import_module("hadspec.core"))
        except BaseException:
            self.restore()
            raise

    def _patch_reduced(self, core) -> None:
        # WeightProfile.reduced is a cached_property: only the first access
        # per profile runs (and is timed), later ones read the cache
        original = core.WeightProfile.__dict__["reduced"]
        wrapped = functools.cached_property(self._wrap("core.reduced", original.func))
        wrapped.__set_name__(core.WeightProfile, "reduced")
        self._patched.append((core.WeightProfile, "reduced", original))
        setattr(core.WeightProfile, "reduced", wrapped)

    def restore(self) -> None:
        """Put back every patched attribute, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def summarize(spans) -> dict:
    """Busy time, self time, call count and counter sums per span name,
    plus self time per layer, over the given spans."""
    selfs = self_times(spans)
    out: dict = defaultdict(float)
    for name, busy in busy_times(spans).items():
        out[f"{name}.busy_s"] = busy
    layer_self = defaultdict(float)
    for s, st in zip(spans, selfs):
        out[f"{s.name}.self_s"] += st
        out[f"{s.name}.calls"] += 1
        layer_self[s.layer] += st
        for key, val in s.counters.items():
            out[f"{s.name}.{key}"] += val
    for layer, st in layer_self.items():
        out[f"layer.{layer}.self_s"] = st
    return dict(out)
