"""Tuning throughput: the seed LRU-replay search vs the accelerated path.

The paper's pitch (Fig 1 Box B2/B3, Fig 4) only works if the perf model
is cheap enough to sweep thousands of candidates.  This bench measures
candidates/second of the Fig 4-style GEMM sweep across the paper's four
testbeds (the paper tunes each platform separately; traces are
machine-independent, so the memoized path captures each candidate once
and replays it vectorized everywhere):

* **seed**: per-candidate nest re-execution + per-access OrderedDict LRU
  replay (the pre-acceleration path, still the differential oracle);
* **fast**: `TraceCache` memoization + reuse-distance replay
  (`simulator.reuse`), bit-identical scores;
* **warm**: a re-run of the same sweep through an `EvalCache`, the
  persistent-cache warm-start a re-executed bench would see;
* **tune**: one-call `tune()` of the same GEMM as a kernel, which builds
  every candidate's traces with the kernel's vectorized trace builder
  instead of interpreting its nest.

Asserts the top-5 rankings are identical candidate-for-candidate, that
the fast path and the tune path each clear ``REPRO_TUNER_MIN_SPEEDUP``
(default 5x; CI's perf-smoke job uses 3x for flake headroom) against
the seed sweep, and emits BENCH_TUNER.json.
"""

from __future__ import annotations

import os
import time

from repro.bench import ExperimentTable
from repro.core import LoopSpecs
from repro.kernels.gemm import ParlooperGemm
from repro.platform import ADL, GVT3, SPR, ZEN4
from repro.simulator import TraceCache, brgemm_event
from repro.tpp.dtypes import DType
from repro.tuner import (EvalCache, TuningConstraints, generate_candidates,
                         tune)

MACHINES = [SPR, GVT3, ZEN4, ADL]   # the paper's four tuned testbeds
SIZES = [(1024, 1024, 1024), (2048, 2048, 2048)]
NUM_THREADS = 112
SAMPLE_THREADS = 2


def _workload(M, N, K, budget):
    bm = bn = bk = 64
    Kb, Mb, Nb = K // bk, M // bm, N // bn
    specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, Mb, 1), LoopSpecs(0, Nb, 1)]
    cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                             parallelizable=frozenset({"b", "c"}),
                             max_candidates=budget)
    cands = generate_candidates(specs, cons)

    def body(ind):
        ik, im, inn = ind
        return brgemm_event(SPR, DType.F32, bm, bn, bk, Kb,
                            [("A", im, k) for k in range(Kb)],
                            [("B", inn, k) for k in range(Kb)],
                            ("C", inn, im), beta=1.0, c_first_touch=True)

    return specs, cands, body, 2.0 * M * N * K


class _SprPricedGemm:
    """The sweep's GEMM as a :func:`tune` kernel.

    Like the hand-written sweep body, it prices every testbed's compute
    as SPR's, so the four tunes rank the same events as the seed sweep
    and share one trace per candidate.
    """

    def __init__(self, M, N, K, body):
        self._kern = ParlooperGemm(M, N, K, 64, 64, 64, k_step=K // 64,
                                   num_threads=NUM_THREADS)
        self.gemm_loop = self._kern.gemm_loop
        self.flops = self._kern.flops
        self.num_threads = NUM_THREADS
        self._body = body

    def sim_body(self, machine):
        return self._body

    def trace_builder(self, machine, loop=None):
        return self._kern.trace_builder(SPR, loop)


def _tune_sweep(kern, cands):
    """The same sweep through :func:`tune`; returns ({machine: report},
    secs)."""
    results = {}
    tc = TraceCache()
    t0 = time.perf_counter()
    for m in MACHINES:
        results[m.name] = tune(kern, machine=m, candidates=cands,
                               num_threads=NUM_THREADS,
                               sample_threads=SAMPLE_THREADS,
                               trace_cache=tc)
    return results, time.perf_counter() - t0


def _sweep(specs, cands, body, total_flops, trace_cache=None,
           eval_cache=None, workload_sig=None):
    """One multi-machine tuning sweep of the bare declaration with the
    hand-written body; returns ({machine: report}, secs)."""
    results = {}
    t0 = time.perf_counter()
    for m in MACHINES:
        results[m.name] = tune(specs, machine=m, sim_body=body,
                               candidates=cands, num_threads=NUM_THREADS,
                               sample_threads=SAMPLE_THREADS,
                               total_flops=total_flops,
                               trace_cache=trace_cache,
                               eval_cache=eval_cache,
                               workload_sig=workload_sig)
    return results, time.perf_counter() - t0


def _top5_labels(results):
    return {name: [o.candidate.label() for o in res.top(5)]
            for name, res in results.items()}


def test_tuner_throughput(benchmark, small_budget):
    min_speedup = float(os.environ.get("REPRO_TUNER_MIN_SPEEDUP", "5.0"))
    table = ExperimentTable(
        "Tuning throughput — Fig 4 GEMM sweep over SPR/GVT3/Zen4/ADL "
        "(candidates/s)",
        ["MxNxK", "cands", "seed c/s", "fast c/s", "speedup",
         "warm c/s", "tune c/s", "tune speedup", "top5"])
    budget = small_budget["tune_candidates"]
    speedups = []
    tune_speedups = []
    for (M, N, K) in SIZES:
        specs, cands, body, tf = _workload(M, N, K, budget)
        n_evals = len(cands) * len(MACHINES)

        seed_res, seed_s = _sweep(specs, cands, body, tf)
        fast_res, fast_s = _sweep(specs, cands, body, tf,
                                  trace_cache=TraceCache())
        sig = f"gemm-f32-{M}x{N}x{K}-nt{NUM_THREADS}-st{SAMPLE_THREADS}"
        ec = EvalCache()
        warm_cache = TraceCache()
        _sweep(specs, cands, body, tf, trace_cache=warm_cache,
               eval_cache=ec, workload_sig=sig)          # populate
        warm_res, warm_s = _sweep(specs, cands, body, tf,
                                  trace_cache=warm_cache,
                                  eval_cache=ec, workload_sig=sig)
        tune_res, tune_s = _tune_sweep(_SprPricedGemm(M, N, K, body),
                                       cands)

        tops_equal = (_top5_labels(seed_res) == _top5_labels(fast_res)
                      == _top5_labels(warm_res) == _top5_labels(tune_res))
        speedup = seed_s / fast_s
        speedups.append(speedup)
        tune_speedups.append(seed_s / tune_s)
        table.add(f"{M}x{N}x{K}", n_evals, n_evals / seed_s,
                  n_evals / fast_s, speedup, n_evals / warm_s,
                  n_evals / tune_s, seed_s / tune_s,
                  "yes" if tops_equal else "NO")

        assert tops_equal, "accelerated path changed the top-5 ranking"
        for name in seed_res:
            seed_scores = [o.score for o in seed_res[name].outcomes]
            assert seed_scores == \
                   [o.score for o in fast_res[name].outcomes], \
                   f"scores diverged on {name}"
            assert seed_scores == \
                   [o.score for o in tune_res[name].outcomes], \
                   f"tune() scores diverged on {name}"

    table.note(f"threshold: fast >= {min_speedup}x seed "
               f"(REPRO_TUNER_MIN_SPEEDUP)")
    table.note("traces are machine-independent: the fast path captures "
               "each candidate once and replays it on all four testbeds")
    table.note("tune: tune() builds traces with the kernel's vectorized "
               "builder; same threshold against seed")
    table.show()
    table.write_json("TUNER",
                     out_dir=os.environ.get("REPRO_BENCH_JSON_DIR", "."))

    assert max(speedups) >= min_speedup, \
        f"fast path {max(speedups):.1f}x < required {min_speedup}x"
    assert max(tune_speedups) >= min_speedup, \
        f"tune() {max(tune_speedups):.1f}x < required {min_speedup}x"

    # timed micro-run: the steady-state (all caches warm) evaluation rate
    specs, cands, body, tf = _workload(1024, 1024, 1024, 8)
    tc = TraceCache()
    _sweep(specs, cands, body, tf, trace_cache=tc)
    benchmark(lambda: _sweep(specs, cands, body, tf, trace_cache=tc))
