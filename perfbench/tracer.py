"""Spans around every public function of the program's layers, from outside.

`install` wraps each public function of the layer modules and rebinds every
`metriq` module namespace that imported it, wraps the `RngStream` methods on
the class, and swaps `tomography`'s thread pool for one whose tasks open a
span. `uninstall` restores the originals, so an untraced pass runs the
program exactly as shipped. Spans stay in memory; the caller writes them out.

Each thread keeps its own stack of open spans. A span opened on a thread
with no open span (a `run_prover` worker) nests under the innermost open
span of the client thread, which is blocked waiting for that worker.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import math
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "hilbert", "linalg", "rng", "ptsym", "channels", "dilation", "montecarlo", "tomography")
RNG_METHODS = ("derive", "words", "uniforms", "normals", "haar_states", "haar_unitary")
TASK = "tomography.run_prover.task"


class Span:
    __slots__ = ("name", "parent", "thread", "request", "start", "end", "attrs")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.request = request
        self.attrs = None

    def to_json(self, ids):
        return {"id": ids[id(self)], "parent": ids.get(id(self.parent)), "name": self.name,
                "thread": self.thread, "request": self.request,
                "start": self.start, "end": self.end, "attrs": self.attrs}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _rng_draw(args, kwargs, out):
    return {"count": int(_arg(args, kwargs, 1, "count")), "nbytes": int(getattr(out, "nbytes", 0))}


def _simulation(args, kwargs, out):
    return {"n": out.requested_successes, "attempts": out.total_copies_used}


def _run_prover(args, kwargs, out):
    n = int(_arg(args, kwargs, 3, "n"))
    exact = bool(_arg(args, kwargs, 5, "exact", False))
    sampled_inputs = 0 if exact else sum(1 for ratio, _ in out if ratio > 0.0)
    return {"kind": _arg(args, kwargs, 0, "model").kind, "n": n, "exact": exact,
            "successes": n * sampled_inputs}


def _hermitian_eig(args, kwargs, out):
    return {"dim": len(_arg(args, kwargs, 0, "matrix"))}


def _oracle(args, kwargs, out):
    side = len(_arg(args, kwargs, 0, "superop"))
    return {"samples": int(_arg(args, kwargs, 1, "samples", 1_000_000)), "dim": math.isqrt(side)}


ATTRS = {
    "rng.words": _rng_draw,
    "rng.uniforms": _rng_draw,
    "rng.normals": _rng_draw,
    "rng.haar_states": _rng_draw,
    "montecarlo.simulate_g_eta": _simulation,
    "montecarlo.simulate_pt": _simulation,
    "tomography.run_prover": _run_prover,
    "linalg.hermitian_eig": _hermitian_eig,
    "tomography.sampled_one_to_one": _oracle,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._local = threading.local()
        self._client_stack = []
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_of=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._client_stack[-1] if self._client_stack else None)
        span = Span(name, parent, self.request)
        stack.append(span)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL
        if attrs_of is not None:
            span.attrs = attrs_of(args, kwargs, out)
        return out

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the layers; call from the client thread."""
        self._client_stack = self._stack()
        namespaces = [m for n, m in list(sys.modules.items()) if n == "metriq" or n.startswith("metriq.")]
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"metriq.{layer}"]
            for attr, fn in list(vars(module).items()):
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and inspect.isfunction(value):
                    self._set(ns, attr, originals[id(value)])

        rng_cls = sys.modules["metriq.rng"].RngStream
        for meth in RNG_METHODS:
            self._set(rng_cls, meth, self._wrap(f"rng.{meth}", getattr(rng_cls, meth)))

        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call, TASK, fn, args, kwargs)

        self._set(sys.modules["metriq.tomography"], "ThreadPoolExecutor", TracedPool)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def _covered(span, kids):
    """Length of the union of the child intervals, clipped to the span."""
    total, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _under(span, name):
    """The nearest enclosing span called name (or, for "layer.", in that layer)."""
    node = span.parent
    while node is not None and not (node.name == name or name.endswith(".") and node.name.startswith(name)):
        node = node.parent
    return node


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans):
    """Per-layer metrics of one traced pass (see the README for each one)."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    busy, self_ms = defaultdict(float), defaultdict(float)
    for s in spans:
        dur = (s.end - s.start) * 1e3
        busy[s.name] += dur
        self_ms[s.name] += dur - _covered(s, kids[id(s)]) * 1e3

    def layer_self(layer):
        return sum(v for k, v in self_ms.items() if k.startswith(layer + "."))

    m = {}
    m["trace.spans"] = len(spans)
    for name in ("rng.words", "rng.uniforms", "rng.haar_states", "montecarlo.simulate_g_eta",
                 "montecarlo.simulate_pt", "tomography.reconstruct", "tomography.verify",
                 "tomography.one_to_one_norm", "tomography.sampled_one_to_one", "linalg.trace_norm",
                 "linalg.operator_norm", "linalg.matrix_exp_hermitian_generator",
                 "hilbert.validate_metric", "hilbert.validate_density", "dilation.build_dilation",
                 "dilation.postselect", "ptsym.build_pt_system", "channels.superoperator", "cli.main"):
        m[f"{name}.busy_ms"] = busy[name]
    for layer in ("montecarlo", "cli"):
        m[f"{layer}.self_ms"] = layer_self(layer)
    m["tomography.sampled_one_to_one.self_ms"] = self_ms["tomography.sampled_one_to_one"]

    uniforms = [s for s in spans if s.name == "rng.uniforms"]
    m["rng.uniforms.slots"] = sum(s.attrs["count"] for s in uniforms)
    m["rng.haar_states.states"] = sum(s.attrs["count"] for s in spans if s.name == "rng.haar_states")

    sims = [s for s in spans if s.name.startswith("montecarlo.simulate_")]
    attempts = sum(s.attrs["attempts"] for s in sims)
    successes = sum(s.attrs["n"] for s in sims)
    mc_slots = sum(s.attrs["count"] for s in uniforms if _under(s, "montecarlo.") is not None)
    m["montecarlo.attempts"] = attempts
    m["montecarlo.successes"] = successes
    m["montecarlo.slots"] = mc_slots
    m["montecarlo.success_ratio"] = _ratio(successes, attempts)
    m["montecarlo.slots_per_attempt"] = _ratio(mc_slots, attempts)

    provers = [s for s in spans if s.name == "tomography.run_prover"]
    sampled = {id(s) for s in provers if not s.attrs["exact"]}
    prover_slots = sum(s.attrs["count"] for s in uniforms
                       if id(_under(s, "tomography.run_prover")) in sampled)
    prover_successes = sum(s.attrs["successes"] for s in provers)
    m["tomography.run_prover.slots"] = prover_slots
    m["tomography.run_prover.successes"] = prover_successes
    m["tomography.slots_per_success"] = _ratio(prover_slots, prover_successes)
    wall = prover_busy = 0.0
    threads = 1
    for s in provers:
        tasks = [k for k in kids[id(s)] if k.name == TASK]
        wall += (s.end - s.start) * 1e3
        prover_busy += sum(k.end - k.start for k in tasks) * 1e3 if tasks else (s.end - s.start) * 1e3
        threads = max(threads, len({k.thread for k in tasks}))
    m["tomography.run_prover.wall_ms"] = wall
    m["tomography.run_prover.busy_ms"] = prover_busy
    m["tomography.run_prover.parallelism"] = _ratio(prover_busy, wall)
    m["tomography.run_prover.threads"] = threads

    oracle = [s for s in spans if s.name == "tomography.sampled_one_to_one"]
    oracle_ids = {id(s) for s in oracle}
    drawn = sum(s.attrs["nbytes"] for s in spans if s.name.startswith("rng.") and s.attrs
                and id(_under(s, "tomography.sampled_one_to_one")) in oracle_ids)
    # each probe also materializes its outer product, its image under the
    # map and the image's Hermitian part: three complex d x d arrays
    images = sum(s.attrs["samples"] * 3 * 16 * s.attrs["dim"] ** 2 for s in oracle)
    m["tomography.sampled_one_to_one.bytes_computed"] = drawn + images

    eig = [s for s in spans if s.name == "linalg.hermitian_eig"]
    for dim in (2, 3, 9):
        of_dim = [s for s in eig if s.attrs["dim"] == dim]
        m[f"linalg.hermitian_eig.d{dim}.calls"] = len(of_dim)
        m[f"linalg.hermitian_eig.d{dim}.busy_ms"] = sum(s.end - s.start for s in of_dim) * 1e3

    # the rows of the ROADMAP baseline table that this trace covers
    def per_call(key, chosen):
        m[f"{key}.calls"] = len(chosen)
        m[f"{key}.ms_per_call"] = _ratio(sum(s.end - s.start for s in chosen) * 1e3, len(chosen))

    per_call("tomography.sampled_one_to_one", oracle)
    per_call("linalg.hermitian_eig.d3", [s for s in eig if s.attrs["dim"] == 3])
    per_call("linalg.trace_norm", [s for s in spans if s.name == "linalg.trace_norm"])
    per_call("tomography.one_to_one_norm", [s for s in spans if s.name == "tomography.one_to_one_norm"])
    per_call("montecarlo.simulate_g_eta.n1e5",
             [s for s in sims if s.name == "montecarlo.simulate_g_eta" and s.attrs["n"] == 100_000])
    per_call("tomography.run_prover.honest_n1e3",
             [s for s in provers if s.attrs["kind"] == "honest" and not s.attrs["exact"]
              and s.attrs["n"] == 1_000])
    return m


def median_metrics(per_pass):
    """Metric-wise lower median over traced passes; counts repeat exactly."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
