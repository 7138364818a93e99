"""Event builders: turn TPP invocations into simulator BodyEvents.

The cost of a BRGEMM is predicted "by accounting for the relative cache
bandwidths and the compute-peak of the platform" (§II-E): compute cycles
come from the microkernel's effective FLOP/cycle (which folds in AMX/MMLA
accumulation-chain efficiency — the Fig 8 mechanism), memory cycles from
where each operand slice currently resides.
"""

from __future__ import annotations

from ..platform.machine import MachineModel
from ..tpp.backend.dispatch import dispatch_brgemm
from ..tpp.backend.isa import ISA_SPECS
from ..tpp.dtypes import DType
from .trace import Access, BodyEvent

__all__ = ["brgemm_fpc", "eltwise_fpc", "brgemm_event", "spmm_event",
           "eltwise_event", "bandwidth_event"]


def brgemm_fpc(machine: MachineModel, dtype: DType, bm: int, bn: int,
               bk: int, brcount: int) -> float:
    """FLOP/cycle of the BRGEMM microkernel the shape dispatches to."""
    return dispatch_brgemm(machine.isa_for(dtype), dtype, bm, bn, bk,
                           brcount).flops_per_cycle()


def eltwise_fpc(machine: MachineModel) -> float:
    """FLOP/cycle of an elementwise/normalisation TPP: the vector pipes
    at roughly half FMA throughput (one op per lane rather than a fused
    two)."""
    return ISA_SPECS[machine.isa_for(DType.F32)].flops_per_cycle(
        DType.F32) / 2.0


def brgemm_event(machine: MachineModel, dtype: DType,
                 bm: int, bn: int, bk: int, brcount: int,
                 a_keys, b_keys, c_key, beta: float = 1.0,
                 c_first_touch: bool = False,
                 b_footprint_scale: float = 1.0) -> BodyEvent:
    """Event for one stride/offset BRGEMM invocation.

    ``a_keys``/``b_keys`` are the slice keys of the *brcount* A and B
    blocks; ``b_footprint_scale > 1`` models layouts that suffer conflict
    misses (flat B with large power-of-two leading dimension, §V-A1).
    """
    nb = dtype.nbytes
    accesses = []
    a_bytes = bm * bk * nb
    b_bytes = bk * bn * nb
    for k in a_keys:
        accesses.append(Access(k, a_bytes))
    for k in b_keys:
        accesses.append(Access(k, b_bytes,
                               footprint=int(b_bytes * b_footprint_scale),
                               cost_scale=b_footprint_scale))
    c_bytes = bm * bn * nb
    if beta != 0.0 and not c_first_touch:
        accesses.append(Access(c_key, c_bytes))
    accesses.append(Access(c_key, c_bytes, write=True))
    return BodyEvent(
        accesses=tuple(accesses),
        flops=2.0 * bm * bn * bk * brcount,
        flops_per_cycle=brgemm_fpc(machine, dtype, bm, bn, bk, brcount),
    )


def spmm_event(machine: MachineModel, dtype: DType,
               bm: int, bn: int, bk: int, nnz_blocks: int,
               a_keys, b_keys, c_key,
               beta: float = 0.0) -> BodyEvent:
    """Event for one Block-SpMM microkernel call over a block row.

    Only the *nonzero* A blocks and their matching B blocks are touched —
    the bandwidth saving that makes SpMM win at high sparsity (Fig 8).
    The accumulation chain per AMX/FMA instruction is ``bk`` (the sparsity
    block's K depth), so small blocks pay the systolic-underfill penalty.
    """
    nb = dtype.nbytes
    accesses = []
    for k in a_keys:
        accesses.append(Access(k, bm * bk * nb))
    for k in b_keys:
        accesses.append(Access(k, bk * bn * nb))
    c_bytes = bm * bn * nb
    if beta != 0.0:
        accesses.append(Access(c_key, c_bytes))
    accesses.append(Access(c_key, c_bytes, write=True))
    return BodyEvent(
        accesses=tuple(accesses),
        flops=2.0 * bm * bn * bk * nnz_blocks,
        flops_per_cycle=brgemm_fpc(machine, dtype, bm, bn, bk,
                                   max(1, nnz_blocks)),
    )


def eltwise_event(machine: MachineModel, dtype: DType, m: int, n: int,
                  in_keys, out_key, flops_per_elem: float = 1.0,
                  reads_output: bool = False) -> BodyEvent:
    """Event for an elementwise/normalisation TPP over an (m, n) block,
    priced at :func:`eltwise_fpc`."""
    nb = dtype.nbytes
    accesses = [Access(k, m * n * nb) for k in in_keys]
    if reads_output:
        accesses.append(Access(out_key, m * n * nb))
    accesses.append(Access(out_key, m * n * nb, write=True))
    return BodyEvent(
        accesses=tuple(accesses),
        flops=flops_per_elem * m * n,
        flops_per_cycle=eltwise_fpc(machine),
    )


def bandwidth_event(key: tuple, nbytes: int, write: bool = False
                    ) -> BodyEvent:
    """Pure data-movement event (weight streaming, embedding lookups)."""
    return BodyEvent(
        accesses=(Access(key, nbytes, write=write),),
        flops=0.0,
        flops_per_cycle=1.0,
    )
