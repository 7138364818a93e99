"""Direct convolution via PARLOOPER/TPP — the paper's Listing 4 (§III-B).

Seven logical loops traverse the iteration space::

    a = N (minibatch)     b = Cb (input-channel blocks)
    c = Kb (output-channel blocks)   d = P (output rows, step h_step)
    e = Q (output cols, step w_step) f = R, g = S (filter taps)

The body folds ``c_step * r_step * s_step`` contraction steps into one
batch-reduce GEMM of shape (w_step pixels) x (bk out-channels) x (bc
in-channels); R = S = 1 convolutions degenerate to the stride-based
BRGEMM, others use gathered-address blocks (the offset-based variant of
the paper).

Tensor layouts (Listing 4 lines 1-3)::

    I[N][Cb][H][W][bc]    W[Kb][Cb][R][S][bc][bk]    O[N][Kb][P][Q][bk]

The input is expected *pre-padded* (physical padding, the common TPP/
LIBXSMM deployment choice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.inject import active_injector
from ..core.loop_spec import LoopSpecs
from ..core.threaded_loop import ThreadedLoop
from ..platform.machine import MachineModel
from ..simulator.cost import brgemm_event
from ..simulator.engine import SimResult
from ..tpp.dtypes import DType, Precision
from ..tpp.gemm import BRGemmTPP
from ..tpp.unary import ZeroTPP
from .abft import resolve_abft
from .common import as_dtype, divisible

__all__ = ["ConvSpec", "ParlooperConv", "DEFAULT_CONV_SPEC"]

#: untuned default: parallelize (minibatch x out-channel blocks)
DEFAULT_CONV_SPEC = "ACbdefg"


@dataclass(frozen=True)
class ConvSpec:
    """Shape of one convolution layer (paper notation, §III-B)."""

    N: int            # minibatch
    C: int            # input feature maps
    K: int            # output feature maps
    H: int            # padded input height
    W: int            # padded input width
    R: int = 3        # filter height
    S: int = 3        # filter width
    stride: int = 1

    @property
    def P(self) -> int:
        return (self.H - self.R) // self.stride + 1

    @property
    def Q(self) -> int:
        return (self.W - self.S) // self.stride + 1

    @property
    def flops(self) -> int:
        return 2 * self.N * self.K * self.C * self.P * self.Q \
            * self.R * self.S


class ParlooperConv:
    """Forward convolution kernel (Listing 4)."""

    def __init__(self, spec: ConvSpec, bc: int = 64, bk: int = 64,
                 w_step: int | None = None, c_step: int = 1,
                 dtype: DType = DType.F32,
                 spec_string: str = DEFAULT_CONV_SPEC,
                 num_threads: int | None = None,
                 block_steps=None,
                 backend: str = "interp",
                 abft: str = "off"):
        divisible(spec.C, bc, "C")
        divisible(spec.K, bk, "K")
        self.spec = spec
        self.bc, self.bk = bc, bk
        self.Cb, self.Kb = spec.C // bc, spec.K // bk
        self.w_step = spec.Q if w_step is None else w_step
        divisible(spec.Q, self.w_step, "Q")
        self.c_step = c_step
        divisible(self.Cb, c_step, "Cb")
        self.dtype = dtype
        self.spec_string = spec_string
        self.abft = resolve_abft(abft)

        prec = Precision.of(dtype)
        self.zero_tpp = ZeroTPP(self.w_step, bk, prec)
        # GEMM view: M = w_step pixels, N = bk out-channels, K = bc
        self.brgemm_tpp = BRGemmTPP(self.w_step, bk, bc, variant="address",
                                    beta=1.0, precision=prec)

        bs = block_steps or [()] * 7
        self.conv_loop = ThreadedLoop(
            [LoopSpecs(0, spec.N, 1, bs[0]),               # a: minibatch
             LoopSpecs(0, self.Cb, c_step, bs[1]),         # b: C blocks
             LoopSpecs(0, self.Kb, 1, bs[2]),              # c: K blocks
             LoopSpecs(0, spec.P, 1, bs[3]),               # d: out rows
             LoopSpecs(0, spec.Q, self.w_step, bs[4]),     # e: out cols
             LoopSpecs(0, spec.R, spec.R, bs[5]),          # f: filter rows
             LoopSpecs(0, spec.S, spec.S, bs[6])],         # g: filter cols
            spec_string, num_threads=num_threads, backend=backend)
        self.backend = self.conv_loop.backend
        self.num_threads = self.conv_loop.num_threads
        self._sim_bodies: dict = {}

    # -- layout ------------------------------------------------------------
    def pack_input(self, x: np.ndarray) -> np.ndarray:
        """(N, C, H, W) -> I[N][Cb][H][W][bc]."""
        n, c, h, w = x.shape
        blocked = x.reshape(n, self.Cb, self.bc, h, w) \
            .transpose(0, 1, 3, 4, 2)
        return np.ascontiguousarray(as_dtype(blocked, self.dtype))

    def pack_weights(self, wt: np.ndarray) -> np.ndarray:
        """(K, C, R, S) -> W[Kb][Cb][R][S][bc][bk]."""
        k, c, r, s = wt.shape
        blocked = wt.reshape(self.Kb, self.bk, self.Cb, self.bc, r, s) \
            .transpose(0, 2, 4, 5, 3, 1)
        return np.ascontiguousarray(as_dtype(blocked, self.dtype))

    def alloc_output(self) -> np.ndarray:
        sp = self.spec
        return np.zeros((sp.N, self.Kb, sp.P, sp.Q, self.bk),
                        dtype=self.dtype.np)

    def unpack_output(self, o: np.ndarray) -> np.ndarray:
        """O[N][Kb][P][Q][bk] -> (N, K, P, Q)."""
        return np.ascontiguousarray(o.transpose(0, 1, 4, 2, 3).reshape(
            self.spec.N, self.spec.K, self.spec.P, self.spec.Q))

    # -- functional -------------------------------------------------------
    def __call__(self, I: np.ndarray, Wt: np.ndarray, O: np.ndarray
                 ) -> np.ndarray:
        self._execute(I, Wt, O)
        if self.abft != "off":
            self._abft_finish(I, Wt, O)
        return O

    def _execute(self, I, Wt, O):
        if self.backend == "batched":
            from .batched import (conv_batched_ok, record_backend_outcome,
                                  run_conv_batched)
            ok, reason = conv_batched_ok(self)
            if ok:
                record_backend_outcome("conv", "lowered")
                run_conv_batched(self, I, Wt, O)
                return
            record_backend_outcome("conv", "fallback", reason)
        sp = self.spec
        st = sp.stride

        def body(ind):
            in_, ic, ik, ih, iw, ir, is_ = ind
            if ic == 0 and ir == 0 and is_ == 0:
                self.zero_tpp(O[in_][ik][ih, iw:iw + self.w_step])
            a_blocks = []
            b_blocks = []
            for c in range(ic, ic + self.c_step):
                for r in range(ir, ir + sp.R):
                    for s in range(is_, is_ + sp.S):
                        row = ih * st + r
                        col0 = iw * st + s
                        a_blocks.append(
                            I[in_, c, row,
                              col0:col0 + self.w_step * st:st, :])
                        b_blocks.append(Wt[ik, c, r, s])
            brcount = len(a_blocks)
            self.brgemm_tpp(a_blocks, b_blocks,
                            O[in_][ik][ih, iw:iw + self.w_step], brcount)

        injector = active_injector()
        if injector is not None:
            c_final = self.Cb - self.c_step
            ws = self.w_step
            injector.begin_call(
                lambda ind: O[ind[0]][ind[2]][ind[3], ind[4]:ind[4] + ws]
                if ind[1] == c_final else None)
        self.conv_loop(body)

    def _abft_finish(self, I, Wt, O):
        from ..core.errors import SdcDetectedError
        from .abft import conv_check, record_abft_outcome
        check = conv_check(self, I, Wt, O)
        if not check.corrupt:
            return
        record_abft_outcome("conv", "detected")
        if self.abft == "detect":
            raise SdcDetectedError(
                f"ABFT detected corruption: {check.describe()}",
                check=check)
        # the channel-sum checksum detects but cannot locate within the
        # summed-out axis: recompute the nest once
        self._execute(I, Wt, O)
        record_abft_outcome("conv", "recomputed")
        check = conv_check(self, I, Wt, O)
        if check.corrupt:
            raise SdcDetectedError(
                "ABFT recompute is still corrupt: " + check.describe(),
                check=check)

    def run(self, x: np.ndarray, wt: np.ndarray) -> np.ndarray:
        """Convenience: NCHW in, NKPQ out (input must be pre-padded)."""
        I = self.pack_input(x)
        W = self.pack_weights(wt)
        O = self.alloc_output()
        self(I, W, O)
        return self.unpack_output(O)

    # -- performance ------------------------------------------------------
    @property
    def flops(self) -> int:
        return self.spec.flops

    def sim_body(self, machine: MachineModel):
        sp = self.spec
        brcount = self.c_step * sp.R * sp.S

        def body(ind):
            in_, ic, ik, ih, iw, ir, is_ = ind
            # input rows touched: one slice per (c-block, input row)
            a_keys = [("I", in_, c, ih * sp.stride + r)
                      for c in range(ic, ic + self.c_step)
                      for r in range(sp.R)]
            b_keys = [("Wt", ik, c, r, s)
                      for c in range(ic, ic + self.c_step)
                      for r in range(sp.R) for s in range(sp.S)]
            return brgemm_event(
                machine, self.dtype, self.w_step, self.bk, self.bc,
                brcount, a_keys, b_keys, ("O", in_, ik, ih, iw),
                beta=1.0, c_first_touch=(ic == 0))
        return body

    def _cached_sim_body(self, machine: MachineModel):
        body = self._sim_bodies.get(machine.name)
        if body is None:
            body = self._sim_bodies[machine.name] = self.sim_body(machine)
        return body

    def _body_key(self, machine: MachineModel) -> tuple:
        return ("ParlooperConv", self.spec, self.bc, self.bk,
                self.w_step, self.c_step, self.dtype, machine.name)

    def simulate(self, machine: MachineModel, session=None) -> SimResult:
        """Engine simulation through a session (the default one if None),
        so runs share its trace cache and report into its tracer."""
        from ..session import resolve_session
        return resolve_session(session).simulate(
            self.conv_loop, self._cached_sim_body(machine), machine,
            body_key=self._body_key(machine))

    def predict(self, machine: MachineModel, session=None,
                sample_threads: int | None = None):
        """Box-B3 performance-model companion of :meth:`simulate`."""
        from ..session import resolve_session
        return resolve_session(session).predict(
            self.conv_loop, self._cached_sim_body(machine), machine,
            sample_threads=sample_threads, total_flops=float(self.flops),
            body_key=self._body_key(machine),
            trace_builder=self.trace_builder(machine))

    def trace_builder(self, machine: MachineModel, loop=None):
        """``tid -> CompiledTrace`` of *loop* (default: this kernel's
        ``conv_loop``), equal to compiling the interpreter's trace of
        :meth:`sim_body` but built vectorized."""
        from .batched import conv_trace_builder   # looked up per call
        return conv_trace_builder(self, machine, loop)
