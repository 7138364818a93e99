#!/usr/bin/env python3
"""Run the repository benchmark, or compare two sets of its results.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Every run executes three parts of the stack in one process (see
``perfbench/parts.py``): ``tune`` (exhaustive and guided tuning of a
2048^3 GEMM, plus the engine on the exhaustive top 5), ``kernels``
(the four paper kernel families on the batched backend, plus
builder-path predictions) and ``fleet`` (a steady and a flash-crowd
fleet run on hetero4).  The workload picks the inputs: ``paper`` is the
paper-scale BF16 problem on SPR; ``zen4`` tunes and predicts an FP32
GEMM for ZEN4 over a smaller pool, with shorter fleet traces.  Every
set-up and every timed repetition starts from empty process-global
caches and a fresh Session.

A run interleaves the parts in rounds, so every metric's samples spread
over the whole run, and reports each end-to-end metric as the median of
its samples.  Host times are process CPU seconds scaled by the host's
speed (``perfbench/host.py``): the shared host's neighbours swing its
speed by tens of percent, and interval-timer probes of fixed reference
work measure that swing; the record (``--out``) keeps the raw times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
parts once untraced and once with every layer wrapped, and prints the
per-layer metrics (raw CPU and wall times, no probes) plus the tracing
overhead.  The last line of standard output is the JSON result;
``--out FILE`` also writes the full record (samples, raw samples, host
speed, digests, provenance), which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: thread pools NumPy's BLAS/OpenMP backends read at import time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: one BLAS thread: the benchmark is a single process on a small shared
#: host, and one thread keeps the kernel timings steady
BLAS_THREADS = 1

SETUP_REPS = 3            # setup_s is the median of this many set-ups
EXHAUSTIVE_SHARE = 0.3    # of --seconds spent on exhaustive tunes, at most
MIN_ROUNDS = 1            # rounds of timed calls in a run, at least
KERNEL_REPS = 4           # kernel repetitions per round

END_TO_END = {
    "setup_s": "s",
    "tune_exhaustive_cands_per_s": "1/s",
    "tune_guided_s": "s",
    "engine_top5_s": "s",
    "tuned_gflops_sim": "GFLOP/s_modeled",
    "tune_guided_ratio": "ratio",
    "gemm_gflops": "GFLOP/s",
    "mlp_gflops": "GFLOP/s",
    "conv_gflops": "GFLOP/s",
    "spmm_gflops": "GFLOP/s",
    "predict_cold_s": "s",
    "fleet_steady_req_per_s": "1/s",
    "fleet_burst_req_per_s": "1/s",
    "fleet_burst_goodput_sim": "tok/s_modeled",
    "fleet_burst_ttft_p99_sim_s": "s_modeled",
}


def pin_threads() -> None:
    """Cap the BLAS/OpenMP pools at ``BLAS_THREADS`` (never above
    nproc); must run before NumPy is imported."""
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = n


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class Run:
    """One benchmark run: set-up, then passes over the three parts."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 sizes: dict | None = None, normalise: bool = True):
        from perfbench import parts
        from perfbench.host import HostMeter
        if sizes is None:
            if workload not in parts.SIZES:
                raise ValueError(f"unknown workload {workload!r}; expected "
                                 f"one of {sorted(parts.SIZES)}")
            sizes = parts.SIZES[workload]
        self.parts_mod = parts
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tune = parts.TunePart(sizes["tune"])
        self.kernels = parts.KernelsPart(sizes["kernels"])
        self.fleet = parts.FleetPart(sizes["fleet"])
        self.checks = parts.Checks()
        self.digests: dict = {}
        self.meter = HostMeter(normalise=normalise)
        for part in (self.tune, self.kernels, self.fleet):
            part.meter = self.meter

    # -- set-up -------------------------------------------------------
    def setup(self, reps: int = SETUP_REPS) -> tuple:
        """Set up *reps* times, each from empty process-global caches;
        the last set-up's objects are the ones measured.  Returns the
        normalised set-up times and the host-speed factor of the first."""
        pm = self.parts_mod
        times, factors = [], []

        def one():
            pm.clear_global_caches()
            for part in (self.tune, self.kernels, self.fleet):
                part.setup(self.seed)

        for _ in range(reps):
            pm.settle()
            with self.meter.window("mix") as win:
                _, raw = win.timed(one)
            self.meter.raw.setdefault("setup", []).append(raw)
            times.append(win.scale(raw))
            factors.append(win.factor())
        self.kernels.references()
        return times, factors[0]

    # -- one pass -----------------------------------------------------
    def _rep(self, name, rep, tracer, acc):
        from repro.core.cache import global_nest_cache
        pm = self.parts_mod
        pm.clear_global_caches()
        pm.settle()
        if tracer is not None:
            tracer.part = name
        cache = global_nest_cache()
        t0 = time.perf_counter()
        out = rep(self.checks)
        acc["part_s"][name] = acc["part_s"].get(name, 0.0) \
            + time.perf_counter() - t0
        acc["nest"][0] += cache.hits
        acc["nest"][1] += cache.misses
        if "_trace_cache" in out:
            acc["trace_cache"][0] += out["_trace_cache"][0]
            acc["trace_cache"][1] += out["_trace_cache"][1]
        for key, value in out.items():
            if not key.startswith("_"):
                acc["samples"].setdefault(key, []).append(value)
        return out

    def run_pass(self, tracer=None, minimum: int = MIN_ROUNDS,
                 fill: bool = True) -> dict:
        """The fleet's warm-up, then rounds of every timed call -- an
        exhaustive tune while those have taken less than
        ``EXHAUSTIVE_SHARE`` of ``seconds`` (always in the first round),
        then ``KERNEL_REPS`` kernel repetitions with the engine and a
        guided tune, both fleet runs and two cold predictions between
        them -- while the next round can end within ``seconds``, and at
        least *minimum* rounds (exactly *minimum* rounds and one
        exhaustive tune without *fill*).  Interleaving the parts spreads
        every metric's samples over the whole run."""
        acc = {"part_s": {}, "nest": [0, 0], "trace_cache": [0, 0],
               "samples": {}, "counts": {}}
        self.kernels.tracer = tracer
        t0 = time.perf_counter()
        self.fleet.warm_up(self.checks)
        t_rounds = time.perf_counter()
        n, t_ex, last = 0, 0.0, 0.0

        def kernels():
            out = self._rep("kernels", self.kernels.rep, tracer, acc)
            for name, dt in out["_times"].items():
                acc["samples"].setdefault(name, []).append(dt)

        # a round starts only if one as long as the last still ends in time
        while n < minimum or (fill and time.perf_counter() - t0 + last
                              <= self.seconds):
            t1 = time.perf_counter()
            if n == 0 or (fill and t_ex < EXHAUSTIVE_SHARE * self.seconds):
                out = self._rep("tune", self.tune.exhaustive, tracer, acc)
                t_ex += time.perf_counter() - t1
                self.digests.update(out["_digests"])
            for step in range(KERNEL_REPS):
                kernels()
                if step == 0:
                    out = self._rep("tune", self.tune.rep, tracer, acc)
                    acc["counts"].update(out["_counts"])
                elif step == 1:
                    out = self._rep("fleet", self.fleet.rep, tracer, acc)
                    self.digests.update(out["_digests"])
                    acc["fleet"] = out
                if step % 2 == 0:
                    self._rep("kernels", self.kernels.predict_rep, tracer,
                              acc)
            last = time.perf_counter() - t1
            n += 1
        self.kernels.tracer = None
        acc["wall_s"] = time.perf_counter() - t_rounds
        return acc

    # -- metrics ------------------------------------------------------
    def end_to_end(self, setup_s: float, res: dict) -> dict:
        """Every end-to-end metric: the median of its samples."""
        samples = res["samples"]
        m = {"setup_s": setup_s}
        for key in END_TO_END:
            if key in samples:
                m[key] = statistics.median(samples[key])
        for name in self.parts_mod.KERNELS:
            m[f"{name}_gflops"] = self.kernels.gflops(
                name, statistics.median(samples[name]))
        return {k: m[k] for k in END_TO_END}

    def per_layer(self, tracer, traced: dict, untraced: dict) -> dict:
        m = {}
        for layer, (calls, self_s) in tracer.totals().items():
            m[f"{layer}.calls"] = calls
            m[f"{layer}.self_s"] = self_s
        fleet = traced["fleet"]
        m.update({
            "core.nest_cache.hit_ratio": _ratio(*traced["nest"]),
            "kernels.fallback": tracer.count("kernels.fallback"),
            "simulator.accesses": tracer.count("simulator.accesses"),
            "simulator.trace_cache.hit_ratio":
                _ratio(*traced["trace_cache"]),
            "simulator.lru_fallback": tracer.count("simulator.lru_fallback"),
            "serve.steps_per_request":
                fleet["_steps"] / max(1, fleet["_requests"]),
            "serve.step_price.hit_ratio": _ratio(*fleet["_price"]),
        })
        m.update(traced["counts"])
        m["failed_frac"] = self.checks.failed / max(1, self.checks.attempted)
        m["tracing_overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        return m


def split_report(tracer, traced: dict) -> list:
    """Which part reached which layer: the lines to print, and whether
    the design's split holds (serve/fleet layers idle outside the fleet
    part; simulator/tuner self time under 1% of the fleet part)."""
    lines = []
    for part in ("tune", "kernels", "fleet"):
        stats = tracer.stats.get(part, {})
        top = sorted(stats.items(), key=lambda kv: -kv[1][1])[:6]
        lines.append(f"  {part:8s} {traced['part_s'].get(part, 0.0):8.2f} s: "
                     + ", ".join(f"{k} {v[1]:.2f}s/{v[0]}" for k, v in top))
    idle = sum(v[0] for part in ("tune", "kernels")
               for k, v in tracer.stats.get(part, {}).items()
               if k.startswith(("serve.", "fleet.")))
    fleet_s = traced["part_s"].get("fleet", 0.0)
    foreign = sum(v[1] for k, v in tracer.stats.get("fleet", {}).items()
                  if k.startswith(("simulator.", "tuner.")))
    share = foreign / fleet_s if fleet_s else 0.0
    lines.append(f"  split: serve/fleet calls outside fleet = {idle} "
                 f"({'ok' if idle == 0 else 'UNEXPECTED'}); "
                 f"simulator/tuner self time in fleet = {share:.2%} "
                 f"({'ok' if share < 0.01 else 'UNEXPECTED'})")
    return lines


def provenance(run: Run, args) -> dict:
    import numpy
    from perfbench.parts import PART_WHY
    why = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            why = {w["name"]: w["why"]
                   for w in json.load(fh).get("workloads", [])}
    except (OSError, ValueError, KeyError):
        pass
    return {"workload": run.workload, "seed": run.seed,
            "seconds": run.seconds, "trace": args.trace,
            "workload_why": why.get(run.workload, ""), "part_why": PART_WHY,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def execute(args, sizes=None) -> dict:
    """Run the benchmark for parsed *args*; returns the full record."""
    t_import = time.perf_counter()
    import perfbench.parts  # noqa: F401 -- numpy + the whole stack
    import_s = time.perf_counter() - t_import

    # traced runs report raw layer times; only end-to-end times are
    # normalised by the host's speed (perfbench/host.py)
    run = Run(args.workload, args.seed, args.seconds, sizes,
              normalise=not args.trace)
    with run.meter:
        setup_times, factor = run.setup()
        setup_s = import_s * factor + statistics.median(setup_times)
        rec = measure(run, args, setup_s)
    rec["samples"].update(setup_s=setup_times, import_s=import_s)
    rec["raw_samples"] = {"import_s": import_s, **run.meter.raw}
    rec["host_speed"] = run.meter.speed()
    return rec


def measure(run: Run, args, setup_s: float) -> dict:
    """The timed passes of a set-up run, and its record."""
    from perfbench.layers import LayerTracer, layer_metric_names
    notes = []
    if args.trace:
        # one round each, untraced then traced, so the walls compare
        untraced = run.run_pass(minimum=1, fill=False)
        tracer = LayerTracer()
        with tracer:
            traced = run.run_pass(tracer, minimum=1, fill=False)
        for name in ("kernels.fallback", "simulator.lru_fallback"):
            run.checks.check(tracer.count(name) == 0,
                             f"{name} = {tracer.count(name)}")
        metrics = run.per_layer(tracer, traced, untraced)
        units = layer_metric_names()
        units.update(failed_frac="fraction", tracing_overhead="ratio")
        notes = split_report(tracer, traced)
    else:
        untraced = run.run_pass()
        metrics = run.end_to_end(setup_s, untraced)
        units = END_TO_END
    return {
        "provenance": provenance(run, args),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "samples": dict(untraced["samples"]),
        "part_s": untraced["part_s"],
        "burst": untraced["fleet"]["_burst"],
        "digests": run.digests,
        "checks": {"attempted": run.checks.attempted,
                   "failed": run.checks.failed,
                   "failures": run.checks.failures},
        "notes": notes,
    }


def print_record(rec: dict) -> None:
    p = rec["provenance"]
    print(f"perfbench workload={p['workload']} seed={p['seed']} "
          f"seconds={p['seconds']} trace={p['trace']}")
    print(f"  why: {p['workload_why']}")
    for part, why in p["part_why"].items():
        print(f"  {part}: {why}")
    print(f"  host: nproc={p['nproc']} python={p['python']} "
          f"numpy={p['numpy']} blas_threads={p['threads']['OMP_NUM_THREADS']}")
    if rec["host_speed"]:
        print("  host speed (probe time / nominal): " + ", ".join(
            f"{k}={v:.3f}" for k, v in rec["host_speed"].items()))
    print("  part seconds: " + ", ".join(
        f"{k}={v:.2f}" for k, v in rec["part_s"].items()))
    print("  samples per metric: " + ", ".join(
        f"{k}={len(v)}" for k, v in rec["samples"].items()
        if isinstance(v, list)))
    q, kv, fo = rec["burst"]
    print(f"  burst: mean queue depth {q:.1f}, peak KV {kv:.0%}, "
          f"{fo} failovers")
    for name, m in rec["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, d in sorted(rec["digests"].items()):
        print(f"  digest {name} = {d}")
    for line in rec["notes"]:
        print(line)
    c = rec["checks"]
    print(f"  checks: {c['attempted'] - c['failed']}/{c['attempted']} passed")
    for what in c["failures"]:
        print(f"  FAILED: {what}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="paper")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record here")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two sets of --out records (files or "
                         "directories of them)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    if args.compare:
        from perfbench.compare import compare
        print(compare(*args.compare,
                      os.path.join(ROOT, "BENCHMARK.json")))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program to measure under "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    rec = execute(args)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
    print_record(rec)
    c = rec["checks"]
    print(json.dumps({"correct": c["failed"] == 0,
                      "attempted": c["attempted"], "failed": c["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
