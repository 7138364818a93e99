"""Block-Sparse x Dense GEMM via PARLOOPER — the paper's Listing 5 (§III-C).

Two logical loops drive the ``bcsc_spmm_tpp`` microkernel::

    a = block rows of sparse A     b = bn-wide panels of dense B/C

Each body call computes the full (bm x bn) C block from one A block row
(only its nonzero blocks) against the matching dense B blocks.  B may be
pre-formatted in VNNI layout for the low-precision paths (lines 3-4).
"""

from __future__ import annotations

import numpy as np

from ..core.inject import active_injector
from ..core.loop_spec import LoopSpecs
from ..core.threaded_loop import ThreadedLoop
from ..platform.machine import MachineModel
from ..simulator.cost import spmm_event
from ..simulator.engine import SimResult
from ..tpp.dtypes import DType, Precision
from ..tpp.sparse import BCSCMatrix, BlockSpMMTPP
from .abft import resolve_abft
from .common import as_dtype, divisible

__all__ = ["ParlooperSpmm", "DEFAULT_SPMM_SPEC"]

DEFAULT_SPMM_SPEC = "AB"


class ParlooperSpmm:
    """C = A_sparse x B_dense with BCSC block sparsity."""

    def __init__(self, a: BCSCMatrix, N: int, bn: int = 64,
                 dtype: DType = DType.F32, b_vnni: int = 1,
                 spec_string: str = DEFAULT_SPMM_SPEC,
                 num_threads: int | None = None,
                 block_steps=((), ()),
                 backend: str = "interp",
                 abft: str = "off"):
        divisible(N, bn, "N")
        self.abft = resolve_abft(abft)
        if self.abft != "off" and b_vnni != 1:
            raise ValueError(
                "abft checksums need the flat (b_vnni=1) B layout; "
                f"got b_vnni={b_vnni}")
        self.a = a
        self.N = N
        self.bn = bn
        self.Nb = N // bn
        self.dtype = dtype
        self.b_vnni = b_vnni
        self.spec_string = spec_string

        prec = Precision.of(dtype)
        self.spmm_tpp = BlockSpMMTPP(a.bm, bn, a.bk, beta=0.0,
                                     b_vnni=b_vnni, precision=prec)
        self.spmm_loop = ThreadedLoop(
            [LoopSpecs(0, a.n_block_rows, 1, block_steps[0]),
             LoopSpecs(0, self.Nb, 1, block_steps[1])],
            spec_string, num_threads=num_threads, backend=backend)
        self.backend = self.spmm_loop.backend
        self.num_threads = self.spmm_loop.num_threads
        self._sim_bodies: dict = {}
        # the body walks A's nonzero structure, which no shape tuple can
        # name — an owned sentinel keeps trace-cache keys collision-free
        self._a_token = object()

    # -- layout ------------------------------------------------------------
    def pack_b(self, b: np.ndarray) -> np.ndarray:
        if b.shape != (self.a.k, self.N):
            raise ValueError(
                f"B must be ({self.a.k},{self.N}), got {b.shape}")
        b = as_dtype(b, self.dtype)
        return BlockSpMMTPP.pack_b(np.ascontiguousarray(b), self.b_vnni)

    def alloc_c(self) -> np.ndarray:
        return np.zeros((self.a.m, self.N), dtype=self.dtype.np)

    # -- functional -------------------------------------------------------
    def __call__(self, B: np.ndarray, C: np.ndarray) -> np.ndarray:
        self._execute(B, C)
        if self.abft != "off":
            self._abft_finish(B, C)
        return C

    def _execute(self, B, C):
        if self.backend == "batched":
            from .batched import (record_backend_outcome, run_spmm_batched,
                                  spmm_batched_ok)
            ok, reason = spmm_batched_ok(self)
            if ok:
                record_backend_outcome("spmm", "lowered")
                run_spmm_batched(self, B, C)
                return
            record_backend_outcome("spmm", "fallback", reason)
        bm = self.a.bm

        def body(ind):
            i_m, i_n = ind[0], ind[1]
            self.spmm_tpp(self.a, B,
                          C[i_m * bm:(i_m + 1) * bm,
                            i_n * self.bn:(i_n + 1) * self.bn],
                          block_row=i_m, n_start=i_n * self.bn)

        injector = active_injector()
        if injector is not None:
            # each spmm body call is the final write of its C block
            injector.begin_call(
                lambda ind: C[ind[0] * bm:(ind[0] + 1) * bm,
                              ind[1] * self.bn:(ind[1] + 1) * self.bn])
        self.spmm_loop(body)

    def _abft_finish(self, B, C):
        from ..core.errors import SdcDetectedError
        from .abft import record_abft_outcome, spmm_check
        check = spmm_check(self, B, C)
        if not check.corrupt:
            return
        record_abft_outcome("spmm", "detected")
        if self.abft == "detect":
            raise SdcDetectedError(
                f"ABFT detected corruption: {check.describe()}",
                check=check)
        # the column checksum sums out M, so it detects but cannot locate
        # the bad row: recompute the nest once
        self._execute(B, C)
        record_abft_outcome("spmm", "recomputed")
        check = spmm_check(self, B, C)
        if check.corrupt:
            raise SdcDetectedError(
                "ABFT recompute is still corrupt: " + check.describe(),
                check=check)

    def run(self, b: np.ndarray) -> np.ndarray:
        C = self.alloc_c()
        self(self.pack_b(b), C)
        return C

    # -- performance ------------------------------------------------------
    @property
    def effective_flops(self) -> int:
        """Dense-equivalent flops (the paper's 'effective GFLOPS' y-axis
        in Fig 8 counts the full dense work)."""
        return 2 * self.a.m * self.a.k * self.N

    @property
    def actual_flops(self) -> int:
        return 2 * self.a.bm * self.a.bk * self.N * self.a.nnz_blocks

    def sim_body(self, machine: MachineModel):
        a = self.a

        def body(ind):
            i_m, i_n = ind[0], ind[1]
            cols = [kc for kc, _blk in a.row_blocks(i_m)]
            if not cols:
                return None
            a_keys = [("Asp", i_m, kc) for kc in cols]
            b_keys = [("B", kc, i_n) for kc in cols]
            return spmm_event(machine, self.dtype, a.bm, self.bn, a.bk,
                              len(cols), a_keys, b_keys,
                              ("C", i_m, i_n), beta=0.0)
        return body

    def _cached_sim_body(self, machine: MachineModel):
        body = self._sim_bodies.get(machine.name)
        if body is None:
            body = self._sim_bodies[machine.name] = self.sim_body(machine)
        return body

    def _body_key(self, machine: MachineModel) -> tuple:
        return ("ParlooperSpmm", self._a_token, self.N, self.bn,
                self.dtype, machine.name)

    def simulate(self, machine: MachineModel, session=None) -> SimResult:
        """Engine simulation through a session (the default one if None),
        so runs share its trace cache and report into its tracer."""
        from ..session import resolve_session
        return resolve_session(session).simulate(
            self.spmm_loop, self._cached_sim_body(machine), machine,
            body_key=self._body_key(machine))

    def predict(self, machine: MachineModel, session=None,
                sample_threads: int | None = None):
        """Box-B3 performance-model companion of :meth:`simulate`.

        Scored in *effective* (dense-equivalent) flops, like Fig 8."""
        from ..session import resolve_session
        return resolve_session(session).predict(
            self.spmm_loop, self._cached_sim_body(machine), machine,
            sample_threads=sample_threads,
            total_flops=float(self.effective_flops),
            body_key=self._body_key(machine),
            trace_builder=self.trace_builder(machine))

    def trace_builder(self, machine: MachineModel, loop=None):
        """``tid -> CompiledTrace`` of *loop* (default: this kernel's
        ``spmm_loop``), equal to compiling the interpreter's trace of
        :meth:`sim_body` but built vectorized."""
        from .batched import spmm_trace_builder   # looked up per call
        return spmm_trace_builder(self, machine, loop)

    def effective_gflops(self, machine: MachineModel, session=None) -> float:
        """Dense-equivalent throughput (Fig 8 y-axis)."""
        res = self.simulate(machine, session=session)
        return self.effective_flops / res.seconds / 1e9
