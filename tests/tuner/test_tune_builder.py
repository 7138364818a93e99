"""tune() through the kernels' vectorized trace builders.

A kernel's own ``sim_body`` has a vectorized twin, ``trace_builder``;
tune() builds every candidate's traces with it.  Passing the same body
explicitly (``sim_body=kernel.sim_body(machine)``) selects interpreter
capture instead, which makes it the oracle here: both paths must rank
every candidate identically, score for score, and the top of the
ranking must equal the scalar LRU replay (``trace_cache=None``).
"""

import numpy as np
import pytest

from repro.core import ThreadedLoop
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.spmm import ParlooperSpmm
from repro.obs import ObsConfig
from repro.platform import SPR, ZEN4
from repro.session import Session
from repro.simulator.memo import TraceCache
from repro.simulator.perfmodel import predict
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix
from repro.tuner import tune

SAMPLE_THREADS = 4


def _spmm():
    rng = np.random.default_rng(7)
    dense = rng.integers(-2, 3, size=(128, 128)).astype(np.float32)
    for (i, k) in [(0, 1), (0, 3), (2, 0), (2, 2), (5, 5), (7, 0),
                   (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6),
                   (7, 7)]:
        dense[i * 16:(i + 1) * 16, k * 16:(k + 1) * 16] = 0.0
    return ParlooperSpmm(BCSCMatrix.from_dense(dense, 16, 16), 64, bn=16,
                         num_threads=4)


CASES = {
    "gemm-bf16-spr": (lambda: ParlooperGemm(
        256, 256, 256, 32, 32, 32, k_step=2, dtype=DType.BF16,
        num_threads=8), SPR, 24),
    "gemm-f32-zen4": (lambda: ParlooperGemm(
        256, 256, 256, 32, 32, 32, k_step=1, dtype=DType.F32,
        num_threads=6), ZEN4, 24),
    "conv": (lambda: ParlooperConv(
        ConvSpec(N=2, C=32, K=32, H=6, W=6), bc=16, bk=16, w_step=2,
        num_threads=4), SPR, 16),
    "spmm": (_spmm, SPR, 16),
}


def _ranking(report):
    return [(o.candidate.label(), repr(o.score)) for o in report.outcomes]


def _tune(kern, machine, budget, **kw):
    return tune(kern, machine=machine, budget=budget,
                sample_threads=SAMPLE_THREADS, **kw)


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    make, machine, budget = CASES[request.param]
    return make(), machine, budget


class TestBuilderMatchesInterpreter:
    def test_full_ranking_equal(self, case):
        kern, machine, budget = case
        built = _tune(kern, machine, budget, trace_cache=TraceCache())
        interp = _tune(kern, machine, budget, trace_cache=TraceCache(),
                       sim_body=kern.sim_body(machine))
        assert len(built.outcomes) > 3
        assert _ranking(built) == _ranking(interp)

    def test_without_trace_cache(self, case):
        # no cache: built traces replay vectorized, the interpreter's
        # through the scalar LRU — still one ranking
        kern, machine, budget = case
        built = _tune(kern, machine, budget)
        interp = _tune(kern, machine, budget,
                       sim_body=kern.sim_body(machine))
        assert _ranking(built) == _ranking(interp)

    def test_top3_equal_scalar_oracle(self, case):
        kern, machine, budget = case
        report = _tune(kern, machine, budget, trace_cache=TraceCache())
        body = kern.sim_body(machine)
        flops = float(getattr(kern, "flops", 0)) or None
        specs = [v for v in vars(kern).values()
                 if isinstance(v, ThreadedLoop)][0].specs
        for o in report.top(3):
            loop = o.candidate.build_loop(specs,
                                          num_threads=kern.num_threads)
            ref = predict(loop, body, machine,
                          sample_threads=SAMPLE_THREADS,
                          total_flops=flops, trace_cache=None)
            assert ref.score == o.score and ref.seconds == o.seconds


class TestCaptureCounter:
    """``trace_capture{path=...}`` counts every TraceCache capture miss
    by path, so a fallback to interpreting the nest cannot stay silent."""

    def _session(self):
        return Session(SPR, obs=ObsConfig(tracing=False))

    def _gemm(self):
        return ParlooperGemm(128, 128, 128, 32, 32, 32, num_threads=4)

    def test_kernel_tune_never_interprets(self):
        for strategy in ("exhaustive", "screened", "guided"):
            ses = self._session()
            ses.tune(self._gemm(), budget=12, strategy=strategy)
            assert ses.metrics.value("trace_capture", path="builder") > 0
            assert ses.metrics.value("trace_capture", path="interp") == 0

    def test_explicit_sim_body_only_interprets(self):
        ses = self._session()
        kern = self._gemm()
        ses.tune(kern, budget=12, sim_body=kern.sim_body(SPR))
        assert ses.metrics.value("trace_capture", path="interp") > 0
        assert ses.metrics.value("trace_capture", path="builder") == 0
