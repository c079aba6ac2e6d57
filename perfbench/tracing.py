"""In-memory span tracing of heiscouple, installed from outside the package.

`Tracer.install()` replaces, for the duration of a traced iteration:

* every public function of every ``heiscouple`` module, wherever it is bound:
  as a module attribute, and under the names that ``from ... import``
  re-binds in other heiscouple modules (and in the package itself);
* the methods ``CouplingPolicy.next_regime`` and ``PathEnsemble.to_csv``;
* the module-bound ``linear_sum_assignment`` of each module that imports it;
* ``philox_stream``, whose Generator is returned behind a counting proxy;
* ``simulate.ThreadPoolExecutor``, by a pool that carries the submitting
  thread's current span into its workers, so worker spans keep their parent.

`uninstall()` puts every original back.  Nothing under ``src/`` is edited.

Each span records name, layer (the heiscouple module that defines the
function), parent span, start, end and thread.  A span's self time is its
duration minus the part of its interval that its children cover.
"""

import contextlib
import contextvars
import functools
import importlib
import inspect
import math
import os
import pkgutil
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from metrics import LAYERS

BENCH_LAYER = "bench"

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)

# (module, class, method, span name) of the traced methods
_METHODS = (
    ("coupling", "CouplingPolicy", "next_regime", "coupling.next_regime"),
    ("simulate", "PathEnsemble", "to_csv", "simulate.PathEnsemble.to_csv"),
)


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "thread", "label", "counts")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.label = None
        self.counts = None
        self.t0 = self.t1 = 0.0

    def add(self, key, value):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value


def _size(size):
    """(variates, rows) of a draw with the given numpy `size` argument."""
    if size is None:
        return 1, 0
    if not isinstance(size, (tuple, list)):
        return int(size), 0
    return math.prod(int(s) for s in size), (int(size[0]) if len(size) >= 2 else 0)


class CountingGenerator:
    """Proxy for a numpy Generator that counts draws into the current span.

    ``normals`` and ``uniforms`` count variates; ``rows`` counts the leading
    dimension of multi-dimensional normal draws (one row per proposed path or
    bridge).
    """

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        n, rows = _size(size)
        self._tracer.count("normals", n, rows)
        return self._gen.standard_normal(size, *args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        self._tracer.count("uniforms", _size(size)[0])
        return self._gen.random(size, *args, **kwargs)

    def uniform(self, low=0.0, high=1.0, size=None):
        self._tracer.count("uniforms", _size(size)[0])
        return self._gen.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _ContextThreadPool(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# per-function hooks: what a finished call adds to its span


def _hook_simulate_ensemble(span, ba, result):
    meta = result.meta
    span.label = f"{meta['scheme']}.{meta['policy']}.t{ba.arguments['threads']}"
    span.add("path_steps", int(meta["steps"]))
    span.add("clamps", int(meta["clamps"]))


def _hook_static_couple(span, ba, result):
    span.label = ba.arguments["plan"]
    span.add("samples", int(result.n_samples))


def _hook_translation(span, ba, result):
    span.label = "translation"
    span.add("samples", int(result.n_samples))


def _hook_bridge(span, ba, result):
    endpoints = math.prod(np.shape(ba.arguments["b"])[:-1])
    span.add("bridge_steps", int(endpoints) * int(ba.arguments["m_steps"]))


def _hook_rejection(span, ba, result):
    span.add("accepted", int(result.n_paths))


def _hook_run_experiment(span, ba, result):
    span.label = ba.arguments["name"]


def _hook_to_csv(span, ba, result):
    span.add("bytes", os.path.getsize(ba.arguments["path"]))


_HOOKS = {
    "simulate.simulate_ensemble": _hook_simulate_ensemble,
    "static.static_couple": _hook_static_couple,
    "static.baseline_translation_couple": _hook_translation,
    "static.sample_levy_area_given_endpoint": _hook_bridge,
    "estimators.excursion_moment_rejection": _hook_rejection,
    "experiments.run_experiment": _hook_run_experiment,
    "simulate.PathEnsemble.to_csv": _hook_to_csv,
}


class Tracer:
    """Span recorder plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._saved = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, layer=BENCH_LAYER):
        """A span around the benchmark's own code."""
        sp = Span(name, layer, _CURRENT.get())
        token = _CURRENT.set(sp)
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(sp)

    def count(self, kind, n, rows=0):
        sp = _CURRENT.get()
        if sp is None:
            return
        with self._lock:
            sp.add(kind, n)
            if rows:
                sp.add("rows", rows)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, layer, transform=None):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = Span(name, layer, _CURRENT.get())
            token = _CURRENT.set(sp)
            sp.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.t1 = time.perf_counter()
                _CURRENT.reset(token)
                tracer.spans.append(sp)
            if hook is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                hook(sp, ba, result)
            return transform(result) if transform is not None else result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import heiscouple

        modules = {"heiscouple": heiscouple}
        for info in pkgutil.iter_modules(heiscouple.__path__):
            full = f"heiscouple.{info.name}"
            modules[full] = importlib.import_module(full)

        wrappers = {}  # original function -> its wrapper, shared by all bindings
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("heiscouple.") or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    layer = home.split(".", 1)[1]
                    name = f"{layer}.{obj.__name__}"
                    transform = None
                    if name == "simulate.philox_stream":
                        transform = lambda gen: CountingGenerator(gen, self)  # noqa: E731
                    wrappers[obj] = self._wrap(obj, name, layer, transform)
                self._set(mod, attr, wrappers[obj])

        for layer, cls_name, meth, name in _METHODS:
            cls = getattr(modules[f"heiscouple.{layer}"], cls_name)
            self._set(cls, meth, self._wrap(getattr(cls, meth), name, layer))

        for full, mod in modules.items():
            lsa = vars(mod).get("linear_sum_assignment")
            if lsa is not None and full != "heiscouple":
                layer = full.split(".", 1)[1]
                self._set(mod, "linear_sum_assignment",
                          self._wrap(lsa, f"{layer}.linear_sum_assignment", layer))

        sim = modules["heiscouple.simulate"]
        if vars(sim).get("ThreadPoolExecutor") is ThreadPoolExecutor:
            self._set(sim, "ThreadPoolExecutor", _ContextThreadPool)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
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


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.t0, sp.t1))
    return {
        sp: (sp.t1 - sp.t0) - _covered(children[sp], sp.t0, sp.t1) if sp in children
        else sp.t1 - sp.t0
        for sp in spans
    }


def summarize(spans, elapsed):
    """Aggregate one traced iteration.

    Returns a dict with per-layer self time, per-name calls / self / inclusive
    time, per-(name, label) inclusive time and counts, and the coverage: the
    share of `elapsed` spent inside root spans of the named layers or the
    benchmark, minus the self time of spans from any other module.
    """
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    calls = defaultdict(int)
    name_self = defaultdict(float)
    name_incl = defaultdict(float)
    labeled = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(int))
    known = set(LAYERS) | {BENCH_LAYER}
    unknown_self = 0.0
    roots = []
    for sp in spans:
        st = selfs[sp]
        layer_self[sp.layer] += st
        calls[sp.name] += 1
        name_self[sp.name] += st
        name_incl[sp.name] += sp.t1 - sp.t0
        if sp.label is not None:
            labeled[(sp.name, sp.label)]["incl_s"] += sp.t1 - sp.t0
        if sp.counts:
            for key, val in sp.counts.items():
                counts[sp.name][key] += val
                if sp.label is not None:
                    labeled[(sp.name, sp.label)][key] += val
        if sp.layer not in known:
            unknown_self += st
        if sp.parent is None:
            roots.append((sp.t0, sp.t1))
    in_roots = _covered(roots, float("-inf"), float("inf"))
    return {
        "layer_self_s": dict(layer_self),
        "calls": dict(calls),
        "self_s": dict(name_self),
        "incl_s": dict(name_incl),
        "labeled": {k: dict(v) for k, v in labeled.items()},
        "counts": {k: dict(v) for k, v in counts.items()},
        "spans": len(spans),
        "coverage": (in_roots - unknown_self) / elapsed if elapsed > 0 else 0.0,
    }
