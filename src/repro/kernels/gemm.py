"""GEMM written with PARLOOPER and TPPs — the paper's Listing 1.

The kernel body is expressed with exactly two TPPs (``zero_tpp`` and the
stride-based ``brgemm_tpp``) over the logical loop indices; all loop
instantiation decisions live in the ``loop_spec_string`` knob.  The same
object also produces the simulator description of itself (``sim_body``),
so functional runs and performance simulation share one source of truth
about what each body invocation touches.
"""

from __future__ import annotations

import numpy as np

from ..core.inject import active_injector
from ..core.loop_spec import LoopSpecs
from ..core.threaded_loop import ThreadedLoop
from ..platform.machine import MachineModel
from ..simulator.cost import brgemm_event, eltwise_event
from ..simulator.engine import SimResult
from ..tpp.dtypes import DType, Precision
from ..tpp.gemm import BRGemmTPP
from ..tpp.memory import Ptr
from ..tpp.unary import GeluTPP, ReluTPP, ZeroTPP
from ..tpp.binary import BiasAddColTPP
from .abft import resolve_abft
from .common import (alloc_blocked_c, divisible, pack_a_blocked,
                     pack_b_blocked, unpack_c_blocked)

__all__ = ["ParlooperGemm", "DEFAULT_GEMM_SPEC"]

#: a sensible untuned default: collapse the (M, N) block space
DEFAULT_GEMM_SPEC = "aBC"

_ACTIVATIONS = {"none": None, "relu": ReluTPP, "gelu": GeluTPP}


class ParlooperGemm:
    """C = A x B over blocked layouts, instantiated by a spec string.

    Logical loops (Listing 1): ``a`` = K blocks, ``b`` = M blocks,
    ``c`` = N blocks.  ``k_step`` folds that many K blocks into one
    batch-reduce call (``k_step = Kb`` turns the whole reduction into a
    single BRGEMM, the common tuned configuration).

    Parameters
    ----------
    activation / bias:
        Optional epilogue fused on the 2D block after the last K update
        (§III-A1) — this is how the MLP kernel extends GEMM.
    flat_b:
        Use a flat (non-blocked) B layout.  Functionally identical;
        the simulator charges the conflict-miss footprint inflation the
        paper attributes to oneDNN's layout at ld=4096 (§V-A1).
    backend:
        ``"interp"`` (default) runs one body call per iteration;
        ``"batched"`` lowers eligible nests to tile-level stacked NumPy
        (:mod:`repro.kernels.batched`), falling back to the interpreter
        otherwise.  Trace capture for :meth:`predict` is vectorized
        under either backend (:meth:`trace_builder`).
    """

    def __init__(self, M: int, N: int, K: int,
                 bm: int = 64, bn: int = 64, bk: int = 64,
                 k_step: int | None = None,
                 dtype: DType = DType.F32,
                 spec_string: str = DEFAULT_GEMM_SPEC,
                 num_threads: int | None = None,
                 block_steps=((), (), ()),
                 activation: str = "none",
                 bias: bool = False,
                 flat_b: bool = False,
                 backend: str = "interp",
                 abft: str = "off"):
        divisible(M, bm, "M")
        divisible(N, bn, "N")
        divisible(K, bk, "K")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"expected one of {sorted(_ACTIVATIONS)}")
        self.M, self.N, self.K = M, N, K
        self.bm, self.bn, self.bk = bm, bn, bk
        self.Mb, self.Nb, self.Kb = M // bm, N // bn, K // bk
        self.k_step = self.Kb if k_step is None else k_step
        if self.Kb % self.k_step:
            raise ValueError(
                f"k_step={self.k_step} must divide Kb={self.Kb}")
        self.dtype = dtype
        self.spec_string = spec_string
        self.activation = activation
        self.bias = bias
        self.flat_b = flat_b
        self.abft = resolve_abft(abft)

        prec = Precision.of(dtype)
        self.zero_tpp = ZeroTPP(bm, bn, prec)
        self.brgemm_tpp = BRGemmTPP(
            bm, bn, bk, stride_a=bm * bk, stride_b=bk * bn,
            beta=1.0, precision=prec)
        self.act_tpp = (_ACTIVATIONS[activation](bm, bn, prec)
                        if _ACTIVATIONS[activation] else None)
        self.bias_tpp = BiasAddColTPP(bm, bn, prec) if bias else None

        self.gemm_loop = ThreadedLoop(
            [LoopSpecs(0, self.Kb, self.k_step, block_steps[0]),
             LoopSpecs(0, self.Mb, 1, block_steps[1]),
             LoopSpecs(0, self.Nb, 1, block_steps[2])],
            spec_string, num_threads=num_threads, backend=backend)
        self.backend = self.gemm_loop.backend
        self.num_threads = self.gemm_loop.num_threads
        self._sim_bodies: dict = {}

    # -- layout ------------------------------------------------------------
    def pack_a(self, a: np.ndarray) -> np.ndarray:
        return pack_a_blocked(a, self.bm, self.bk, self.dtype)

    def pack_b(self, b: np.ndarray) -> np.ndarray:
        if self.flat_b:
            from .common import as_dtype
            return np.ascontiguousarray(as_dtype(b, self.dtype))
        return pack_b_blocked(b, self.bk, self.bn, self.dtype)

    def alloc_c(self) -> np.ndarray:
        return alloc_blocked_c(self.M, self.N, self.bm, self.bn, self.dtype)

    def unpack_c(self, cb: np.ndarray) -> np.ndarray:
        return unpack_c_blocked(cb)

    # -- functional execution ------------------------------------------------
    def __call__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                 bias_vec: np.ndarray | None = None) -> np.ndarray:
        """Run the kernel (Listing 1 lines 11-17).

        With ``abft != "off"`` the fused epilogue is deferred: the nest
        computes the *linear* C, the Huang–Abraham checksums verify (and
        in ``"correct"`` mode repair or recompute) it, and the identical
        per-block bias/activation TPPs are applied afterwards — the
        epilogue is not invertible, the linear part is.
        """
        if self.bias and bias_vec is None:
            raise ValueError("kernel was built with bias=True; pass bias_vec")
        defer = self.abft != "off" and (self.bias_tpp is not None
                                        or self.act_tpp is not None)
        self._execute(A, B, C, bias_vec, defer)
        if self.abft != "off":
            self._abft_finish(A, B, C, bias_vec, defer)
        return C

    def _execute(self, A, B, C, bias_vec, defer_epilogue=False):
        if self.backend == "batched":
            from .batched import (gemm_batched_ok, record_backend_outcome,
                                  run_gemm_batched)
            ok, reason = gemm_batched_ok(self)
            if ok:
                record_backend_outcome("gemm", "lowered")
                run_gemm_batched(self, A, B, C, bias_vec,
                                 defer_epilogue=defer_epilogue)
                return
            record_backend_outcome("gemm", "fallback", reason)
        last_k = self.Kb - self.k_step

        def body(ind):
            ik, im, in_ = ind[0], ind[1], ind[2]
            brcount = self.k_step
            c_blk = C[in_][im]
            if ik == 0:
                self.zero_tpp(c_blk)
            if self.flat_b:
                b_blocks = [B[k * self.bk:(k + 1) * self.bk,
                              in_ * self.bn:(in_ + 1) * self.bn]
                            for k in range(ik, ik + brcount)]
                a_blocks = [A[im, k] for k in range(ik, ik + brcount)]
                self._addr_brgemm(a_blocks, b_blocks, c_blk, brcount)
            else:
                self.brgemm_tpp(Ptr.of(A, im, ik), Ptr.of(B, in_, ik),
                                c_blk, brcount)
            if ik == last_k and not defer_epilogue:
                if self.bias_tpp is not None:
                    # per-output-feature bias: broadcast down the minibatch
                    self.bias_tpp(c_blk, bias_vec[im * self.bm:
                                                  (im + 1) * self.bm])
                if self.act_tpp is not None:
                    self.act_tpp(c_blk)

        injector = active_injector()
        if injector is not None:
            injector.begin_call(
                lambda ind: C[ind[2]][ind[1]]
                if ind[0] == last_k else None)
        self.gemm_loop(body)

    def _apply_epilogue(self, C, bias_vec):
        """The deferred fused epilogue, applied over the whole stacked
        tile set at once — elementwise identical to the fused path (the
        batched TPP equivalents round exactly like the per-block TPPs,
        and are far cheaper than Mb*Nb Python calls)."""
        if self.bias_tpp is None and self.act_tpp is None:
            return
        from ..tpp.batched import batched_bias_add_col, batched_unary
        prec = Precision.of(self.dtype)
        tiles = C.reshape(-1, self.bm, self.bn)
        stored = tiles
        if self.bias_tpp is not None:
            bias_blocks = np.asarray(bias_vec).reshape(self.Mb, self.bm)
            ims = np.tile(np.arange(self.Mb), self.Nb)
            stored = batched_bias_add_col(stored, bias_blocks[ims], prec)
        if self.act_tpp is not None:
            stored = batched_unary(stored, self.activation, prec)
        tiles[:] = stored

    def _abft_finish(self, A, B, C, bias_vec, defer):
        from ..core.errors import SdcDetectedError
        from .abft import (gemm_check, gemm_correct_single,
                           record_abft_outcome)
        check = gemm_check(self, A, B, C)
        if check.corrupt:
            record_abft_outcome("gemm", "detected")
            if self.abft == "detect":
                raise SdcDetectedError(
                    f"ABFT detected corruption: {check.describe()}",
                    check=check)
            if check.single:
                gemm_correct_single(self, A, B, C, check)
                if not gemm_check(self, A, B, C).corrupt:
                    record_abft_outcome("gemm", "corrected")
                    check = None
            if check is not None:
                # multi-element (or an unrepairable single): one clean
                # recompute of the whole nest
                self._execute(A, B, C, bias_vec, defer)
                record_abft_outcome("gemm", "recomputed")
                check = gemm_check(self, A, B, C)
                if check.corrupt:
                    raise SdcDetectedError(
                        "ABFT recompute is still corrupt: "
                        + check.describe(), check=check)
        if defer:
            self._apply_epilogue(C, bias_vec)

    def _addr_brgemm(self, a_blocks, b_blocks, c_blk, brcount):
        tpp = getattr(self, "_addr_tpp", None)
        if tpp is None:
            tpp = BRGemmTPP(self.bm, self.bn, self.bk, variant="address",
                            beta=1.0, precision=Precision.of(self.dtype))
            self._addr_tpp = tpp
        tpp(a_blocks, b_blocks, c_blk, brcount)

    def run_flat(self, a: np.ndarray, b: np.ndarray,
                 bias_vec: np.ndarray | None = None) -> np.ndarray:
        """Convenience: flat (M,K) x (K,N) in, flat (M,N) out."""
        A, B, C = self.pack_a(a), self.pack_b(b), self.alloc_c()
        self(A, B, C, bias_vec)
        return self.unpack_c(C)

    # -- performance ------------------------------------------------------
    @property
    def flops(self) -> int:
        return 2 * self.M * self.N * self.K

    def sim_body(self, machine: MachineModel,
                 b_footprint_scale: float | None = None):
        """Simulator description of one body invocation."""
        if b_footprint_scale is None:
            b_footprint_scale = self._conflict_scale()
        last_k = self.Kb - self.k_step

        def body(ind):
            ik, im, in_ = ind[0], ind[1], ind[2]
            a_keys = [("A", im, k) for k in range(ik, ik + self.k_step)]
            b_keys = [("B", in_, k) for k in range(ik, ik + self.k_step)]
            events = [brgemm_event(
                machine, self.dtype, self.bm, self.bn, self.bk, self.k_step,
                a_keys, b_keys, ("C", in_, im), beta=1.0,
                c_first_touch=(ik == 0),
                b_footprint_scale=b_footprint_scale)]
            if ik == last_k and (self.act_tpp or self.bias_tpp):
                events.append(eltwise_event(
                    machine, self.dtype, self.bm, self.bn,
                    [("C", in_, im)], ("C", in_, im),
                    flops_per_elem=2.0 if self.bias else 1.0))
            return events
        return body

    def _conflict_scale(self) -> float:
        """Cache-footprint inflation for flat-B with a large power-of-two
        leading dimension: columns of a B panel map to few sets, causing
        'extraneous cache-conflict misses' (§V-A1)."""
        if not self.flat_b:
            return 1.0
        ld = self.N
        if ld >= 2048 and (ld & (ld - 1)) == 0:
            return 2.1
        return 1.25

    def _cached_sim_body(self, machine: MachineModel, scale: float):
        """One closure per (machine, scale): repeated simulate/predict
        calls present a stable body identity to the trace cache."""
        key = (machine.name, scale)
        body = self._sim_bodies.get(key)
        if body is None:
            body = self._sim_bodies[key] = self.sim_body(machine, scale)
        return body

    def _body_key(self, machine: MachineModel, scale: float) -> tuple:
        """Trace-cache key naming everything the body's events depend on
        (so equal-shape kernel instances share captured traces)."""
        return ("ParlooperGemm", self.M, self.N, self.K,
                self.bm, self.bn, self.bk, self.k_step, self.dtype,
                self.activation, self.bias, scale, machine.name)

    def simulate(self, machine: MachineModel, session=None) -> SimResult:
        """Engine simulation through a session (the default one if None),
        so runs share its trace cache and report into its tracer."""
        from ..session import resolve_session
        sess = resolve_session(session)
        scale = self._conflict_scale()
        return sess.simulate(self.gemm_loop,
                             self._cached_sim_body(machine, scale),
                             machine,
                             body_key=self._body_key(machine, scale))

    def predict(self, machine: MachineModel, session=None,
                sample_threads: int | None = None):
        """Box-B3 performance-model companion of :meth:`simulate`
        (:class:`~repro.simulator.perfmodel.PerfPrediction`)."""
        from ..session import resolve_session
        sess = resolve_session(session)
        scale = self._conflict_scale()
        return sess.predict(self.gemm_loop,
                            self._cached_sim_body(machine, scale),
                            machine, sample_threads=sample_threads,
                            total_flops=float(self.flops),
                            body_key=self._body_key(machine, scale),
                            trace_builder=self.trace_builder(machine))

    def trace_builder(self, machine: MachineModel, loop=None):
        """``tid -> CompiledTrace`` of *loop* (default: this kernel's
        ``gemm_loop``; a tuning candidate passes its own), equal to
        compiling the interpreter's trace of :meth:`sim_body` but built
        vectorized, whatever the execution backend."""
        from .batched import gemm_trace_builder   # looked up per call
        return gemm_trace_builder(self, machine, self._conflict_scale(),
                                  loop)

    def with_spec(self, spec_string: str, block_steps=None,
                  num_threads=None) -> "ParlooperGemm":
        """Zero-code-change re-instantiation (the auto-tuning contract).

        The thread count carries over unless overridden — a retuned
        kernel must stay comparable to the one it replaces."""
        return ParlooperGemm(
            self.M, self.N, self.K, self.bm, self.bn, self.bk,
            k_step=self.k_step, dtype=self.dtype, spec_string=spec_string,
            num_threads=num_threads if num_threads is not None
            else self.num_threads,
            block_steps=block_steps if block_steps is not None
            else ((), (), ()),
            activation=self.activation, bias=self.bias, flat_b=self.flat_b,
            backend=self.backend, abft=self.abft)
