"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module for the duration of a ``with`` block and records, per layer,
how many calls it took and its *self time*: a call's duration minus the
time covered by wrapped calls nested inside it.  Nothing in ``repro``
is edited; every wrapper is installed under each name a caller looks
up (``perfmodel`` imports ``hit_levels`` by name, so the
``repro.simulator.perfmodel.hit_levels`` binding is wrapped too) and
the original objects are put back when the block exits.

Stats are kept per *part* (``tracer.part = "tune"``) so the benchmark
can show which part of a run reached which layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

__all__ = ["LAYERS", "LayerTracer", "layer_metric_names"]

# layer name -> targets.  A target is "module:function" (wrapped in
# that module and wherever another repro module bound it, by any name),
# "module:Class.method" (wrapped on the class), "module:Class.*" (every
# public function defined on the class), "module:Class.*_seconds"
# (public functions with that suffix) or "module:*.route" (that method
# on every class of the module defining it).  Factories listed under
# kernels.trace_build return closures; the closures are what is timed.
LAYERS = {
    "core.compile": ["repro.core.threaded_loop:ThreadedLoop.__init__"],
    "core.enumerate": ["repro.core.batched:enumerate_inds"],
    "tpp.batched": ["repro.tpp.batched:batched_brgemm",
                    "repro.tpp.batched:batched_bias_add_col",
                    "repro.tpp.batched:batched_unary"],
    "kernels.gemm": ["repro.kernels.batched:run_gemm_batched"],
    "kernels.conv": ["repro.kernels.batched:run_conv_batched"],
    "kernels.spmm": ["repro.kernels.batched:run_spmm_batched"],
    "kernels.trace_build": ["repro.kernels.batched:gemm_trace_builder",
                            "repro.kernels.batched:mlp_layer_trace_builder",
                            "repro.kernels.batched:conv_trace_builder",
                            "repro.kernels.batched:spmm_trace_builder"],
    "simulator.capture": ["repro.simulator.memo:TraceCache.thread_trace"],
    "simulator.compile_trace": ["repro.simulator.reuse:compile_trace"],
    "simulator.hit_levels": ["repro.simulator.reuse:hit_levels"],
    "simulator.predict": ["repro.simulator.perfmodel:predict"],
    "simulator.engine": ["repro.simulator.engine:simulate"],
    "tuner.generate": ["repro.tuner.generator:generate_candidates"],
    "tuner.search": ["repro.tuner.search:search"],
    "tuner.features": ["repro.tuner.features:FeatureExtractor.vector",
                       "repro.tuner.features:FeatureExtractor.matrix"],
    "tuner.model": ["repro.tuner.model:RidgeCostModel.fit",
                    "repro.tuner.model:RidgeCostModel.predict",
                    "repro.tuner.model:RidgeCostModel.rank"],
    "serve.advance": ["repro.serve.server:ServeSimulator.advance"],
    "serve.step_price": ["repro.serve.cost:ServeCostModel.step_seconds"],
    "serve.batcher": ["repro.serve.batcher:ContinuousBatcher.plan"],
    "serve.kv_pool": ["repro.serve.kv_pool:PagedKvPool.*"],
    "workloads.opsim": ["repro.workloads.opsim:OpCostModel.*_seconds"],
    "fleet.loop": ["repro.fleet.cluster:FleetSimulator.run"],
    "fleet.route": ["repro.fleet.router:*.route"],
    "obs.metrics": ["repro.obs.context:ObsContext.inc",
                    "repro.obs.context:ObsContext.set_gauge",
                    "repro.obs.context:ObsContext.observe"],
}

_FACTORY_LAYERS = {"kernels.trace_build"}

#: counts and ratios reported beside the timed layers
EXTRA_METRICS = {
    "core.nest_cache.hit_ratio": "ratio",
    "kernels.fallback": "count",
    "simulator.accesses": "count",
    "simulator.trace_cache.hit_ratio": "ratio",
    "simulator.lru_fallback": "count",
    "tuner.guided.exact_evals": "count",
    "tuner.guided.model_evals": "count",
    "serve.steps_per_request": "ratio",
    "serve.step_price.hit_ratio": "ratio",
}


def layer_metric_names() -> dict:
    """Every per-layer metric name the traced run emits -> its unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


def _resolve(target: str) -> list:
    """``(owner, attribute name)`` pairs one target string names."""
    mod_name, _, path = target.partition(":")
    mod = importlib.import_module(mod_name)
    if "." not in path:
        # every binding of the function in a repro module, whatever the
        # importer called it (session.py imports simulate as _simulate)
        fn = getattr(mod, path)
        return [(m, name) for mod_name, m in sorted(sys.modules.items())
                if m is not None and mod_name.split(".")[0] == "repro"
                for name, value in sorted(vars(m).items()) if value is fn]
    cls_name, _, meth = path.partition(".")
    if cls_name == "*":
        return [(cls, meth) for _, cls in sorted(vars(mod).items())
                if inspect.isclass(cls) and cls.__module__ == mod.__name__
                and inspect.isfunction(cls.__dict__.get(meth))]
    cls = getattr(mod, cls_name)
    if meth == "*" or meth.startswith("*"):
        suffix = meth[1:]
        return [(cls, name) for name, obj in sorted(cls.__dict__.items())
                if inspect.isfunction(obj) and not name.startswith("_")
                and name.endswith(suffix)]
    return [(cls, meth)]


class LayerTracer:
    """Wraps :data:`LAYERS` while active; see the module docstring.

    ``stats[part][layer] = [calls, self_seconds]``; ``counts[part]``
    holds the extra counters (``simulator.accesses`` and the two
    fallback counts).  ``kernel_call`` is set by the benchmark around
    timed batched kernel calls: an interpreter ``ThreadedLoop.__call__``
    inside one is a fallback.
    """

    def __init__(self, layers: dict | None = None, clock=time.perf_counter):
        self.layers = LAYERS if layers is None else layers
        self.clock = clock
        self.part = "other"
        self.kernel_call = False
        self.stats: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list = []          # child-time accumulators
        self._memoized_depth = 0
        self._saved: list = []          # (owner, name, original)

    # -- timing -------------------------------------------------------
    def call(self, layer: str, fn, args, kwargs):
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            stack.pop()
            entry = self.stats[self.part][layer]
            entry[0] += 1
            entry[1] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

    def wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)
        return traced

    def _wrap_factory(self, layer: str, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap(layer, factory(*args, **kwargs))
        return make

    # -- install / restore ---------------------------------------------
    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, owner.__dict__[name]
                            if inspect.isclass(owner)
                            else getattr(owner, name)))
        setattr(owner, name, replacement)

    def __enter__(self):
        try:
            wrappers: dict = {}     # id(original) -> its one wrapper
            for layer, targets in self.layers.items():
                make = (self._wrap_factory if layer in _FACTORY_LAYERS
                        else self.wrap)
                for target in targets:
                    for owner, name in _resolve(target):
                        fn = getattr(owner, name)
                        if id(fn) not in wrappers:
                            wrappers[id(fn)] = make(layer, fn)
                        self._patch(owner, name, wrappers[id(fn)])
            self._install_counters()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _install_counters(self) -> None:
        from repro.core.threaded_loop import ThreadedLoop
        from repro.simulator import perfmodel, reuse
        tracer = self

        call = ThreadedLoop.__call__

        @functools.wraps(call)
        def loop_call(loop, *args, **kwargs):
            if tracer.kernel_call:
                tracer.counts[tracer.part]["kernels.fallback"] += 1
            return call(loop, *args, **kwargs)
        self._patch(ThreadedLoop, "__call__", loop_call)

        compile_trace = reuse.compile_trace   # already layer-wrapped

        @functools.wraps(compile_trace)
        def counted_compile(*args, **kwargs):
            out = compile_trace(*args, **kwargs)
            tracer.counts[tracer.part]["simulator.accesses"] += \
                out.n_accesses
            return out
        for owner, name in _resolve("repro.simulator.reuse:compile_trace"):
            self._patch(owner, name, counted_compile)

        memoized = perfmodel._predict_memoized

        @functools.wraps(memoized)
        def in_memoized(*args, **kwargs):
            tracer._memoized_depth += 1
            try:
                return memoized(*args, **kwargs)
            finally:
                tracer._memoized_depth -= 1
        self._patch(perfmodel, "_predict_memoized", in_memoized)

        lru = perfmodel.predict_traces

        @functools.wraps(lru)
        def lru_replay(*args, **kwargs):
            if tracer._memoized_depth:
                tracer.counts[tracer.part]["simulator.lru_fallback"] += 1
            return lru(*args, **kwargs)
        for owner, name in _resolve(
                "repro.simulator.perfmodel:predict_traces"):
            self._patch(owner, name, lru_replay)

    # -- results -------------------------------------------------------
    def totals(self) -> dict:
        """``{layer: (calls, self_s)}`` summed over parts."""
        out = {layer: [0, 0.0] for layer in self.layers}
        for per_part in self.stats.values():
            for layer, (calls, self_s) in per_part.items():
                out[layer][0] += calls
                out[layer][1] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def count(self, name: str) -> int:
        return sum(c.get(name, 0) for c in self.counts.values())
