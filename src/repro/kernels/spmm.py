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
from ..simulator.cost import brgemm_fpc
from ..tpp.dtypes import DType, Precision
from ..tpp.sparse import BCSCMatrix, BlockSpMMTPP
from .abft import resolve_abft
from .access import DeclaredKernel, Declaration, Group, Term
from .common import as_dtype, divisible

__all__ = ["ParlooperSpmm", "spmm_accesses", "DEFAULT_SPMM_SPEC"]

DEFAULT_SPMM_SPEC = "AB"


def spmm_accesses(kern, machine: MachineModel):
    """The :class:`Declaration` of one SpMM body ``(i_m, i_n)``: the
    nonzero A blocks of block row ``i_m`` (ascending column), their B
    blocks and the C write (beta = 0).  A block row without nonzeros
    makes no access, so no event."""
    a = kern.a
    bm, bk, bn, nb = a.bm, a.bk, kern.bn, kern.dtype.nbytes
    ptr, col_idx = a.row_ptr.tolist(), a.col_idx.tolist()
    cols = [col_idx[p:q] for p, q in zip(ptr, ptr[1:])]
    width = max(map(len, cols), default=0) or 1
    # each block row's nonzero block columns, padded and masked
    kc = Term(0, rows=[c + [0] * (width - len(c)) for c in cols])
    valid = Term(0, rows=[[j < len(c) for j in range(width)] for c in cols])
    i_m, i_n = Term(0), Term(1)
    return Declaration(
        [Group("Asp", (i_m, kc), bm * bk * nb, mask=valid),
         Group("B", (kc, i_n), bk * bn * nb, mask=valid),
         Group("C", (i_m, i_n), bm * bn * nb, write=True,
               mask=Term(0, rows=[[len(c) > 0] for c in cols]))],
        [(Term(0, rows=[[2.0 * bm * bn * bk * len(c)] for c in cols]),
          Term(0, rows=[[brgemm_fpc(machine, kern.dtype, bm, bn, bk,
                                 max(1, len(c)))] for c in cols]))],
        ("spmm", kern._a_token, kern.N, bn, kern.dtype, machine.name))


class ParlooperSpmm(DeclaredKernel):
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
        if self._lowered(B, C):
            return
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

    def run(self, b: np.ndarray) -> np.ndarray:
        C = self.alloc_c()
        self(self.pack_b(b), C)
        return C

    # -- performance ------------------------------------------------------
    _accesses = spmm_accesses
    _loop = "spmm_loop"
    _family = "spmm"
    #: scored in dense-equivalent flops, like the Fig 8 y-axis
    _flops_attr = "effective_flops"

    @property
    def effective_flops(self) -> int:
        """Dense-equivalent flops (the paper's 'effective GFLOPS' y-axis
        in Fig 8 counts the full dense work)."""
        return 2 * self.a.m * self.a.k * self.N

    @property
    def actual_flops(self) -> int:
        return 2 * self.a.bm * self.a.bk * self.N * self.a.nnz_blocks

    def effective_gflops(self, machine: MachineModel, session=None) -> float:
        """Dense-equivalent throughput (Fig 8 y-axis)."""
        res = self.simulate(machine, session=session)
        return self.effective_flops / res.seconds / 1e9
