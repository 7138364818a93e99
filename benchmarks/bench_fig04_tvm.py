"""Figure 4: FP32 GEMM on SPR — PARLOOPER vs oneDNN vs TVM-Autoscheduler,
plus the tuning-time comparison.

Paper shape: PARLOOPER 1.24-1.76x faster on the small GEMMs, parity on
the large ones; PARLOOPER's outer-loop-only search is 2.3-500x faster to
tune than TVM's full-stack schedule search.
"""

import pytest

from repro.baselines import OneDnnBaseline, TvmAnsorBaseline
from repro.bench import PAPER, ExperimentTable
from repro.core import LoopSpecs
from repro.kernels import ParlooperGemm
from repro.platform import SPR
from repro.simulator import brgemm_event
from repro.tpp.dtypes import DType
from repro.tuner import TuningConstraints, tune

SIZES = [(512, 512, 512), (1024, 1024, 1024),
         (2048, 2048, 2048), (4096, 4096, 4096)]


def _tune_parlooper(M, N, K, budget):
    """PARLOOPER's own offline search over outer-loop configurations."""
    bm = bn = bk = 64
    Kb, Mb, Nb = K // bk, M // bm, N // bn
    specs = [LoopSpecs(0, Kb, Kb), LoopSpecs(0, Mb, 1), LoopSpecs(0, Nb, 1)]
    cons = TuningConstraints(max_occurrences={"a": 1, "b": 2, "c": 2},
                             parallelizable=frozenset({"b", "c"}),
                             max_candidates=budget)

    def body(ind):
        ik, im, inn = ind
        return brgemm_event(SPR, DType.F32, bm, bn, bk, Kb,
                            [("A", im, k) for k in range(Kb)],
                            [("B", inn, k) for k in range(Kb)],
                            ("C", inn, im), beta=1.0, c_first_touch=True)

    res = tune(specs, machine=SPR, sim_body=body, constraints=cons,
               num_threads=112, sample_threads=2,
               total_flops=2.0 * M * N * K)
    best = res.best.candidate
    kernel = ParlooperGemm(M, N, K, bm, bn, bk,
                           spec_string=best.spec_string,
                           block_steps=best.block_steps, num_threads=112)
    return kernel.simulate(SPR), res.wall_seconds


def test_fig4_tvm_comparison(benchmark, small_budget):
    table = ExperimentTable(
        "Fig 4 — FP32 GEMM on SPR (GFLOPS) + tuning time",
        ["MxNxK", "PARLOOPER", "oneDNN", "TVM", "PL/TVM",
         "PL tune (s)", "TVM tune (s)"])
    tvm = TvmAnsorBaseline(trials=1000)
    tvm_tune = tvm.tuning_report().total_seconds
    gaps = []
    for (M, N, K) in SIZES:
        pl, pl_tune = _tune_parlooper(M, N, K,
                                      small_budget["tune_candidates"])
        od = OneDnnBaseline().gemm(SPR, M, N, K, DType.F32)
        tv = tvm.gemm(SPR, M, N, K, DType.F32)
        gap = tv.seconds / pl.seconds
        gaps.append(gap)
        table.add(f"{M}x{N}x{K}", pl.gflops, od.gflops, tv.gflops, gap,
                  pl_tune, tvm_tune)
    table.note(f"paper: small-GEMM speedup {PAPER['fig4']['small_gemm_speedup']}"
               f", tuning speedup {PAPER['fig4']['tuning_speedup']}")
    table.show()

    # shape: small GEMMs favor PARLOOPER, large converge
    assert gaps[0] > gaps[-1]
    assert gaps[0] > 1.15
    assert gaps[-1] < 1.25

    benchmark(lambda: TvmAnsorBaseline(trials=16).gemm(
        SPR, 512, 512, 512, DType.F32))
