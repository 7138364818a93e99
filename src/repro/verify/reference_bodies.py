"""Hand-written simulator bodies: the oracle for the access declarations
(:mod:`repro.kernels.access`).  They say per index, through the
:mod:`repro.simulator.cost` event builders, what each declaration says
vectorized, so a declaration bug shows as a digest mismatch in the
batched-backend tests and the fuzzer.  No production path calls them.
"""

from __future__ import annotations

from ..simulator.cost import brgemm_event, eltwise_event, spmm_event

__all__ = ["gemm_body", "conv_body", "spmm_body"]


def gemm_body(g, machine, names=("A", "B", "C")):
    """A ParlooperGemm body under tensor *names* (an MLP layer's are
    ``W{l}, ACT{l}, ACT{l+1}``): BRGEMM over ``k_step`` blocks, then the
    fused epilogue's eltwise event on the last K step."""
    a, b, c = names
    scale = g._conflict_scale()
    last_k = g.Kb - g.k_step
    epilogue = g.act_tpp is not None or g.bias_tpp is not None

    def body(ind):
        ik, im, in_ = ind[0], ind[1], ind[2]
        a_keys = [(a, im, k) for k in range(ik, ik + g.k_step)]
        b_keys = [(b, in_, k) for k in range(ik, ik + g.k_step)]
        events = [brgemm_event(
            machine, g.dtype, g.bm, g.bn, g.bk, g.k_step,
            a_keys, b_keys, (c, in_, im), beta=1.0,
            c_first_touch=(ik == 0), b_footprint_scale=scale)]
        if ik == last_k and epilogue:
            events.append(eltwise_event(
                machine, g.dtype, g.bm, g.bn, [(c, in_, im)], (c, in_, im),
                flops_per_elem=2.0 if g.bias else 1.0))
        return events
    return body


def conv_body(kern, machine):
    """A ParlooperConv body: one BRGEMM over ``c_step * R * S`` blocks."""
    sp = kern.spec
    brcount = kern.c_step * sp.R * sp.S

    def body(ind):
        in_, ic, ik, ih, iw, ir, is_ = ind
        # input rows touched: one slice per (c-block, input row)
        a_keys = [("I", in_, c, ih * sp.stride + r)
                  for c in range(ic, ic + kern.c_step)
                  for r in range(sp.R)]
        b_keys = [("Wt", ik, c, r, s)
                  for c in range(ic, ic + kern.c_step)
                  for r in range(sp.R) for s in range(sp.S)]
        return brgemm_event(
            machine, kern.dtype, kern.w_step, kern.bk, kern.bc,
            brcount, a_keys, b_keys, ("O", in_, ik, ih, iw),
            beta=1.0, c_first_touch=(ic == 0))
    return body


def spmm_body(kern, machine):
    """A ParlooperSpmm body: one block row's nonzero blocks against their
    B blocks; ``None`` for an empty block row."""
    a = kern.a

    def body(ind):
        i_m, i_n = ind[0], ind[1]
        cols = [kc for kc, _blk in a.row_blocks(i_m)]
        if not cols:
            return None
        a_keys = [("Asp", i_m, kc) for kc in cols]
        b_keys = [("B", kc, i_n) for kc in cols]
        return spmm_event(machine, kern.dtype, a.bm, kern.bn, a.bk,
                          len(cols), a_keys, b_keys, ("C", i_m, i_n),
                          beta=0.0)
    return body
