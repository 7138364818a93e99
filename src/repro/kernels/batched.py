"""Batched tile-level nest execution and vectorized trace capture.

The interpreter runs one Python ``body(ind)`` call per innermost
iteration.  This module lowers whole loop nests to *block-granular*
NumPy instead: :func:`~repro.core.batched.enumerate_inds` materializes
every index vector a thread visits (in the interpreter's exact emission
order), and the per-kernel executors below replay those iterations as a
handful of stacked einsum / fancy-index / slice-assign calls over whole
blocking levels — the LoopStack move of dispatching the nest to batched
tensor primitives rather than interpreting it.

Correctness contract (fuzz-verified per family, see
``tests/verify``):

* the batched executor performs, per output block, the same reduction
  updates in the same order as the serial interpreter — ascending
  reduction index within each thread, threads in tid order — with the
  same compute-precision casts and store-time down-conversions
  (:mod:`repro.tpp.batched`).  On integer-valued tensors the results
  are bit-identical; on general floats they agree to reduction-order
  tolerance.
* the trace builders, factories over each kernel's access declaration
  (:mod:`repro.kernels.access`), emit per thread a
  :class:`~repro.simulator.reuse.CompiledTrace` equal digest-for-digest
  to compiling the interpreter's trace of the same declaration's
  ``sim_body`` and of the hand-written reference body
  (:mod:`repro.verify.reference_bodies`).

Execution eligibility is decided by :func:`~repro.core.batched.
batchable` plus per-kernel layout gates; ineligible nests fall back to
the interpreter (counted on the ``batched_exec`` obs counter).  Trace
builders have no such gate: the round-robin chunk policy reproduces the
tracing context for every plan.
"""

from __future__ import annotations

import numpy as np

from ..core.batched import (BACKENDS, batchable, enumerate_inds,
                            resolve_backend)
from ..core.inject import active_injector
from ..obs.context import current as _obs
from ..tpp.batched import (batched_bias_add_col, batched_brgemm,
                           batched_unary)
from ..tpp.dtypes import from_compute

__all__ = ["BACKENDS", "resolve_backend", "record_backend_outcome",
           "run_gemm_batched", "run_conv_batched", "run_spmm_batched",
           "gemm_trace_builder", "mlp_layer_trace_builder",
           "conv_trace_builder", "spmm_trace_builder"]

#: cap on elements gathered per stacked call, so transient block stacks
#: stay cache-friendly instead of materializing the whole nest at once
_SLAB_ELEMS = 1 << 21


def record_backend_outcome(kernel: str, outcome: str,
                           reason: str = "") -> None:
    """Count a lowered/fallback dispatch decision on the obs registry."""
    obs = _obs()
    if obs.enabled:
        labels = {"kernel": kernel, "outcome": outcome}
        if reason:
            labels["reason"] = reason
        obs.inc("batched_exec", **labels)


def _slabs(sel: np.ndarray, elems_per_row: int):
    """Split a selection into slabs of bounded gather size."""
    step = max(1, _SLAB_ELEMS // max(1, elems_per_row))
    for s in range(0, sel.size, step):
        yield sel[s:s + step]


# ======================================================================
# batched execution
# ======================================================================

def run_gemm_batched(kern, A, B, C, bias_vec=None,
                     defer_epilogue: bool = False) -> np.ndarray:
    """Execute a :class:`~repro.kernels.gemm.ParlooperGemm` (blocked-B
    layout) with tile-level stacked BRGEMM calls.

    Threads run in tid order; within a thread, each ``k_step`` group is
    processed as one stacked gather → einsum → scatter.  Every C-block
    fiber sees its reduction updates in ascending-k order with the
    epilogue attached to the last one — the serial interpreter's exact
    per-fiber schedule.  ``defer_epilogue`` leaves C linear so ABFT can
    verify it first (the kernel applies the epilogue afterwards).
    """
    loop = kern.gemm_loop
    nt = loop.num_threads
    prec = kern.brgemm_tpp.precision
    ks = kern.k_step
    last_k = kern.Kb - ks
    elems = ks * kern.bm * kern.bk + ks * kern.bk * kern.bn
    bias_blocks = (None if bias_vec is None
                   else np.asarray(bias_vec).reshape(kern.Mb, kern.bm))
    injector = active_injector()
    if injector is not None:
        injector.begin_call()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid, dynamic="fcfs")
        if not inds.shape[0]:
            continue
        ik, im, in_ = inds[:, 0], inds[:, 1], inds[:, 2]
        for k0 in range(0, kern.Kb, ks):
            sel = np.nonzero(ik == k0)[0]
            if not sel.size:
                continue
            for part in _slabs(sel, elems):
                ims, ins = im[part], in_[part]
                a_blk = A[ims, k0:k0 + ks]
                b_blk = B[ins, k0:k0 + ks]
                if k0 == 0:
                    old = np.zeros((part.size, kern.bm, kern.bn),
                                   dtype=C.dtype)
                else:
                    old = C[ins, ims]
                stored = batched_brgemm(a_blk, b_blk, old,
                                        kern.brgemm_tpp.beta, prec)
                if k0 == last_k:
                    if not defer_epilogue:
                        if kern.bias_tpp is not None:
                            stored = batched_bias_add_col(
                                stored, bias_blocks[ims], prec)
                        if kern.act_tpp is not None:
                            stored = batched_unary(
                                stored, kern.activation, prec)
                    if injector is not None:
                        # final writes, in the interpreter's visit order
                        for r in range(part.size):
                            injector.maybe_flip(
                                stored[r],
                                (int(k0), int(ims[r]), int(ins[r])))
                C[ins, ims] = stored
    return C


def run_conv_batched(kern, I, Wt, O) -> np.ndarray:
    """Execute a :class:`~repro.kernels.conv.ParlooperConv` with stacked
    address-variant BRGEMM calls, gathering the ``c_step * R * S``
    input/weight blocks of every iteration via broadcast fancy indexing
    (no im2col copy of the full tensor)."""
    sp = kern.spec
    st = sp.stride
    loop = kern.conv_loop
    nt = loop.num_threads
    prec = kern.brgemm_tpp.precision
    cs, R, S, ws = kern.c_step, sp.R, sp.S, kern.w_step
    br = cs * R * S
    # per-br-column offsets in the interpreter's c-outer, r-mid, s-inner
    # gather order
    c_off = np.repeat(np.arange(cs, dtype=np.int64), R * S)
    r_off = np.tile(np.repeat(np.arange(R, dtype=np.int64), S), cs)
    s_off = np.tile(np.arange(S, dtype=np.int64), cs * R)
    wcols = np.arange(ws, dtype=np.int64) * st
    ocols = np.arange(ws, dtype=np.int64)
    elems = br * (ws * kern.bc + kern.bc * kern.bk)
    injector = active_injector()
    if injector is not None:
        injector.begin_call()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid, dynamic="fcfs")
        if not inds.shape[0]:
            continue
        # ascending (ic, ir, is_) groups: each O fiber sees its reduction
        # chunks in the serial interpreter's order
        red = (inds[:, 1] * (R + 1) + inds[:, 5]) * (S + 1) + inds[:, 6]
        # the r/s loops cover their whole range per call, so the last
        # reduction chunk of every O fiber is ic == Cb - c_step
        final_code = (kern.Cb - cs) * (R + 1) * (S + 1)
        for code in np.unique(red):
            sel = np.nonzero(red == code)[0]
            r0 = inds[sel[0]]
            ic, ir, is_ = int(r0[1]), int(r0[5]), int(r0[6])
            first = ic == 0 and ir == 0 and is_ == 0
            final = code == final_code
            cg = (ic + c_off)[None, :]
            for part in _slabs(sel, elems):
                n_i = inds[part, 0]
                ikk = inds[part, 2]
                ih = inds[part, 3]
                iw = inds[part, 4]
                rows = (ih * st + ir)[:, None] + r_off[None, :]
                col0 = (iw * st + is_)[:, None] + s_off[None, :]
                a_blk = I[n_i[:, None, None], cg[:, :, None],
                          rows[:, :, None],
                          col0[:, :, None] + wcols[None, None, :]]
                b_blk = Wt[ikk[:, None], cg,
                           (ir + r_off)[None, :], (is_ + s_off)[None, :]]
                oidx = iw[:, None] + ocols[None, :]
                if first:
                    old = np.zeros((part.size, ws, kern.bk), dtype=O.dtype)
                else:
                    old = O[n_i[:, None], ikk[:, None], ih[:, None], oidx]
                stored = batched_brgemm(a_blk, b_blk, old,
                                        kern.brgemm_tpp.beta, prec)
                if injector is not None and final:
                    for r in range(part.size):
                        injector.maybe_flip(
                            stored[r], tuple(int(v) for v in inds[part[r]]))
                O[n_i[:, None], ikk[:, None], ih[:, None], oidx] = stored
    return O


def run_spmm_batched(kern, B, C) -> np.ndarray:
    """Execute a :class:`~repro.kernels.spmm.ParlooperSpmm` (flat-B
    layout, beta = 0) with row-block-grouped stacked matmuls.

    Iterations are grouped by nonzero count so each group is a dense
    ``(x, bm, bk) @ (x, bk, bn)`` stack; the accumulation stays
    sequential over the j-th nonzero, matching the microkernel's
    ``acc = acc + a @ b`` chain order."""
    a = kern.a
    bm, bk, bn = a.bm, a.bk, kern.bn
    prec = kern.spmm_tpp.precision
    comp = prec.comp.np
    counts = np.diff(a.row_ptr)
    loop = kern.spmm_loop
    nt = loop.num_threads
    rowc = np.arange(bm, dtype=np.int64)
    colc = np.arange(bn, dtype=np.int64)
    bkc = np.arange(bk, dtype=np.int64)
    elems = bm * bk + bk * bn + bm * bn
    injector = active_injector()
    if injector is not None:
        injector.begin_call()
    for tid in range(nt):
        inds = enumerate_inds(loop.plan, nt, tid, dynamic="fcfs")
        if not inds.shape[0]:
            continue
        i_m, i_n = inds[:, 0], inds[:, 1]
        c_nnz = counts[i_m]
        for c in np.unique(c_nnz):
            sel = np.nonzero(c_nnz == c)[0]
            for part in _slabs(sel, int(c) * elems + elems):
                ims, ins = i_m[part], i_n[part]
                acc = np.zeros((part.size, bm, bn), dtype=comp)
                base = a.row_ptr[ims]
                cols = (ins * bn)[:, None] + colc[None, :]
                for j in range(int(c)):
                    q = base + j
                    kc = a.col_idx[q]
                    a_blk = a.values[a.perm[q]].astype(comp, copy=False)
                    b_blk = B[(kc * bk)[:, None, None] + bkc[None, :, None],
                              cols[:, None, :]]
                    acc = acc + np.matmul(a_blk, b_blk)
                stored = from_compute(acc, prec.out).astype(C.dtype,
                                                            copy=False)
                if injector is not None:
                    for r in range(part.size):
                        injector.maybe_flip(
                            stored[r], (int(ims[r]), int(ins[r])))
                C[(ims * bm)[:, None, None] + rowc[None, :, None],
                  cols[:, None, :]] = stored
    return C


# ======================================================================
# vectorized trace builders
# ======================================================================

def gemm_trace_builder(kern, machine, loop=None):
    """``tid -> CompiledTrace`` of *loop* (a re-instantiation of the
    kernel's loop declarations, e.g. a tuning candidate's; default
    ``kern.gemm_loop``) from the kernel's access declaration."""
    return kern.declaration(machine).builder(loop or kern.gemm_loop)


def mlp_layer_trace_builder(mlp, l: int, machine):
    """``tid -> CompiledTrace`` of MLP layer *l*."""
    return mlp.layer_declaration(l, machine).builder(
        mlp.layers[l].gemm.gemm_loop)


def conv_trace_builder(kern, machine, loop=None):
    """As :func:`gemm_trace_builder`, default ``kern.conv_loop``."""
    return kern.declaration(machine).builder(loop or kern.conv_loop)


def spmm_trace_builder(kern, machine, loop=None):
    """As :func:`gemm_trace_builder`, default ``kern.spmm_loop``."""
    return kern.declaration(machine).builder(loop or kern.spmm_loop)


# ======================================================================
# eligibility gates
# ======================================================================

def gemm_batched_ok(kern) -> tuple:
    if kern.flat_b:
        return False, "flat-B layout gathers per-iteration address blocks"
    return batchable(kern.gemm_loop.plan, kern.gemm_loop.num_threads,
                     kern.gemm_loop.execution)


def conv_batched_ok(kern) -> tuple:
    return batchable(kern.conv_loop.plan, kern.conv_loop.num_threads,
                     kern.conv_loop.execution)


def spmm_batched_ok(kern) -> tuple:
    if kern.b_vnni != 1:
        return False, "VNNI-packed B requires per-block re-layout"
    if kern.spmm_tpp.beta != 0.0:
        return False, "nonzero beta accumulation is not lowered"
    return batchable(kern.spmm_loop.plan, kern.spmm_loop.num_threads,
                     kern.spmm_loop.execution)
