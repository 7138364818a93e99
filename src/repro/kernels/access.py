"""Block-level access declarations, one per kernel family (§II-E).

Traces "register accesses of full tensor slices".  Each family declares
the slices its body touches once (a :class:`Declaration`): per access
group, each key position is a term of the logical loop indices
(a :class:`Term`).  A term evaluates per index in
plain Python, for the ``sim_body`` that interpreter capture, the engine
and the race detector call, and per ``(n, num_loops)`` index array in
NumPy, for the vectorized ``tid -> CompiledTrace`` builder.  Slice keys
``(tensor, *block_indices)`` pack into int64 codes, mixed radix over the
maxima of each tensor's index arrays, so nothing is decoded per family.
The hand-written bodies both derivations are checked against are
:mod:`repro.verify.reference_bodies`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from ..core.batched import enumerate_inds
from ..simulator.reuse import CompiledTrace
from ..simulator.trace import Access, BodyEvent

__all__ = ["Term", "Group", "Declaration", "DeclaredKernel"]


class Term:
    """A per-column index term of an access group.  For column ``c``:
    ``rows[ind[loop]][c]`` when a lookup table *rows* is given, else
    ``coef * ind[loop] + offsets[c]``, or ``offsets[c]`` alone when
    *loop* is None.  ``Term(j)`` is logical index ``j`` itself."""

    def __init__(self, loop=None, offsets=(0,), coef=1, rows=None):
        self.loop, self.offsets, self.coef = loop, list(offsets), coef
        self.rows = rows

    def row(self, ind) -> list:
        """The term's values at one index, in plain Python."""
        if self.rows is not None:
            return self.rows[ind[self.loop]]
        if self.loop is None:
            return self.offsets
        v = self.coef * ind[self.loop]
        return [v + o for o in self.offsets]

    def column(self, inds: np.ndarray) -> np.ndarray:
        """The term's values at each row of *inds*, broadcastable to
        ``(n, width)``."""
        if self.rows is not None:
            return self._table[inds[:, self.loop]]
        if self.loop is None:
            return self._table
        return inds[:, self.loop:self.loop + 1] * self.coef + self._table

    @property
    def width(self) -> int:
        """How many columns (slices) the term spans."""
        return self._table.shape[1]

    @cached_property
    def _table(self) -> np.ndarray:
        return np.array(self.offsets if self.rows is None else self.rows,
                        ndmin=2)


@dataclass(frozen=True)
class Group:
    """Same-kind slice accesses of one event: the tensor, one term per
    key position, bytes moved, cache footprint (0 = ``nbytes``),
    transfer cost scale, whether they write, the event slot and a
    term of booleans saying which are made (None: all)."""

    tensor: str
    key: tuple
    nbytes: int
    footprint: int = 0
    cost_scale: float = 1.0
    write: bool = False
    event: int = 0
    mask: object = None


class Declaration:
    """One family's block accesses: the groups in emission order, per
    event slot a ``(flops, FLOP/cycle)`` term pair (an event exists
    where it makes an access), and the trace-cache ``key`` naming
    everything the accesses depend on.  Terms evaluate per index in
    plain Python (:attr:`body`) and per index array in NumPy
    (:meth:`compile`)."""

    def __init__(self, groups, events, key: tuple):
        gs = self.groups = tuple(groups)
        self.events, self.key = tuple(events), key
        self._tensors = tuple(dict.fromkeys(g.tensor for g in gs))
        self._tensor_of = [self._tensors.index(g.tensor) for g in gs]

    def builder(self, loop):
        """``tid -> CompiledTrace`` of *loop*, equal to compiling the
        interpreter's trace of :attr:`body` (dynamic chunks dealt
        round-robin, as the tracing context deals them)."""
        plan, nt = loop.plan, loop.num_threads
        return lambda tid: self.compile(
            enumerate_inds(plan, nt, tid, dynamic="roundrobin"), tid)

    def compile(self, inds: np.ndarray, tid: int) -> CompiledTrace:
        """The compiled trace of one thread visiting *inds* in order."""
        n = inds.shape[0]
        if n == 0:
            e, i = np.empty(0), np.empty(0, np.int64)
            return CompiledTrace(tid, i, e, e, i, e.astype(bool), i, e, e,
                                 0, (), inds)
        columns: dict = {}              # each term evaluated once

        def column(term):
            a = columns.get(id(term))
            if a is None:
                a = columns[id(term)] = term.column(inds)
            return a
        index = [[column(t) for t in g.key] for g in self.groups]
        mask = [g.mask and column(g.mask) for g in self.groups]
        col, slot, spans, starts, consts = self._layout

        # radix = 1 + max index, per tensor and key position
        top, hi_of = {}, {}
        for t, ix in zip(self._tensor_of, index):
            hi = [hi_of[id(a)] if id(a) in hi_of
                  else hi_of.setdefault(id(a), int(a.max()) + 1) for a in ix]
            top[t] = list(map(max, top.get(t, hi), hi))
        radices = [tuple(top[t]) for t in range(len(self._tensors))]
        sizes = [math.prod(r) for r in radices]
        if sum(sizes) >= 1 << 62:
            raise OverflowError("slice keys exceed the int64 code space")
        offsets = [0, *accumulate(sizes[:-1])]
        codes = np.empty((n, col.size), dtype=np.int64)
        sel = np.ones((n, col.size), dtype=bool)
        for t, ix, m, (lo, hi) in zip(self._tensor_of, index, mask, spans):
            code = ix[0]
            for a, r in zip(ix[1:], radices[t][1:]):
                code = code * r + a
            codes[:, lo:hi] = code + offsets[t] if offsets[t] else code
            if m is not None:
                sel[:, lo:hi] = m

        # events, row-major over (iteration, slot); slots span columns
        P = np.logical_or.reduceat(sel, starts, axis=1)
        F, C = np.empty(P.shape), np.empty(P.shape)
        for s, (f, c) in enumerate(self.events):
            F[:, s:s + 1], C[:, s:s + 1] = column(f), column(c)
        pf = P.ravel()
        ev_flops, ev_fpc = F.ravel()[pf], C.ravel()[pf]
        # elementwise BodyEvent.compute_cycles
        cycles = np.where(ev_flops > 0,
                          ev_flops / np.maximum(ev_fpc, 1e-9), 0.0)

        key_ids, seen = _intern(codes[sel])
        at = np.broadcast_to(col, sel.shape)[sel]      # column of access
        nbytes, footprint, cost_scale, write = (c[at] for c in consts)
        tensors = self._tensors
        return CompiledTrace(
            tid=tid, key_ids=key_ids, nbytes=nbytes, cost_scale=cost_scale,
            footprint=footprint, write=write,
            event_of=(np.cumsum(pf) - 1).reshape(P.shape)[:, slot][sel],
            compute_cycles=cycles,
            flops=ev_flops, n_events=int(ev_flops.size),
            key_table=lambda: _decode(seen, tensors, offsets, radices),
            event_ind=np.repeat(inds, P.sum(axis=1), axis=0))

    @cached_property
    def _layout(self) -> tuple:
        """Column layout of one iteration row: column ids, event slots,
        group spans, slot starts and the per-column group constants."""
        gs = self.groups
        widths = [max(t.width for t in g.key) for g in gs]
        ends = list(accumulate(widths))
        slot = np.repeat([g.event for g in gs], widths)
        consts = [np.repeat(np.array(values, dtype), widths)
                  for values, dtype in (
                      ([g.nbytes for g in gs], float),
                      ([g.footprint or g.nbytes for g in gs], np.int64),
                      ([g.cost_scale for g in gs], float),
                      ([g.write for g in gs], bool))]
        return (np.arange(ends[-1]), slot, list(zip([0] + ends[:-1], ends)),
                np.searchsorted(slot, np.arange(len(self.events))), consts)

    @cached_property
    def body(self):
        """The per-index simulator body, in plain Python.  Accesses are
        immutable, so each distinct one is built once and shared."""
        slots = [[] for _ in self.events]
        for g in self.groups:
            slots[g.event].append((g.tensor, g.key, g.mask, g.nbytes,
                                   g.write, g.footprint or g.nbytes,
                                   g.cost_scale, {}))

        def body(ind):
            events = []
            for (flops, fpc), members in zip(self.events, slots):
                accs = []
                for tensor, key, mask, nb, wr, fp, cs, made in members:
                    vals = [t.row(ind) for t in key]
                    if mask is not None:
                        vals.append(mask.row(ind))
                    w = max(map(len, vals))
                    rows = zip(*(v * w if len(v) < w else v for v in vals))
                    if mask is not None:
                        rows = (r[:-1] for r in rows if r[-1])
                    for k in rows:
                        acc = made.get(k)
                        if acc is None:
                            acc = made[k] = Access((tensor,) + k, nb, wr,
                                                   fp, cs)
                        accs.append(acc)
                if accs:
                    events.append(BodyEvent(tuple(accs), flops.row(ind)[0],
                                            fpc.row(ind)[0]))
            return events or None
        return body


def _intern(flat: np.ndarray) -> tuple:
    """First-appearance interning of key codes, the vectorized twin of
    ``compile_trace``'s ``dict.setdefault`` walk: the key ids and the
    distinct codes in id order."""
    uniq, first, inv = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inv.reshape(-1)], uniq[order]


def _decode(codes: np.ndarray, tensors, offsets, radices) -> tuple:
    """Slice-key tuples of *codes*, with Python ints so they print and
    hash exactly like the interpreter's keys."""
    keys = [None] * codes.size
    t_of = np.searchsorted(offsets, codes, side="right") - 1
    for t, name in enumerate(tensors):
        pos = np.nonzero(t_of == t)[0]
        idx = np.unravel_index(codes[pos] - offsets[t], radices[t])
        for p, k in zip(pos.tolist(), zip(*(a.tolist() for a in idx))):
            keys[p] = (name,) + k
    return tuple(keys)


class DeclaredKernel:
    """Plumbing shared by the declared kernel families.  A subclass sets
    ``_accesses`` (the function declaring it), ``_loop`` (its loop
    attribute), ``_flops_attr`` (what predictions are scored in) and
    ``_family`` (naming its trace builder, batched gate and executor in
    :mod:`repro.kernels.batched`, and its ABFT check)."""

    _flops_attr = "flops"

    def declaration(self, machine, *args) -> Declaration:
        """``self._accesses(machine, *args)``, built once per machine
        name: repeated runs present one body and key to the trace cache."""
        decls = self.__dict__.setdefault("_decls", {})
        key = (machine.name,) + args
        if key not in decls:
            decls[key] = self._accesses(machine, *args)
        return decls[key]

    def sim_body(self, machine):
        """Simulator description of one body invocation."""
        return self.declaration(machine).body

    def trace_builder(self, machine, loop=None):
        """``tid -> CompiledTrace`` of *loop* (default: this kernel's; a
        tuning candidate passes its own), equal to compiling the
        interpreter's trace of :meth:`sim_body`, whatever the backend."""
        from . import batched       # the factory is looked up per call
        return getattr(batched, f"{self._family}_trace_builder")(
            self, machine, loop)

    def _abft_finish(self, *args):
        """Checksum-verify the output of ``_execute(*args)``.  The conv
        and SpMM checksums sum out an axis, so they detect but cannot
        locate a bad element: a detection recomputes the nest once."""
        from ..core.errors import SdcDetectedError
        from . import abft
        check = getattr(abft, f"{self._family}_check")(self, *args)
        if not check.corrupt:
            return
        abft.record_abft_outcome(self._family, "detected")
        if self.abft == "detect":
            raise SdcDetectedError(
                f"ABFT detected corruption: {check.describe()}",
                check=check)
        self._execute(*args)
        abft.record_abft_outcome(self._family, "recomputed")
        check = getattr(abft, f"{self._family}_check")(self, *args)
        if check.corrupt:
            raise SdcDetectedError(
                "ABFT recompute is still corrupt: " + check.describe(),
                check=check)

    def _lowered(self, *args, **kwargs) -> bool:
        """Run on ``backend="batched"`` when the nest lowers, counting the
        decision on ``batched_exec``; False leaves it to the interpreter."""
        if self.backend != "batched":
            return False
        from . import batched
        ok, reason = getattr(batched, f"{self._family}_batched_ok")(self)
        batched.record_backend_outcome(
            self._family, "lowered" if ok else "fallback", reason)
        if ok:
            getattr(batched, f"run_{self._family}_batched")(
                self, *args, **kwargs)
        return ok

    def simulate(self, machine, session=None):
        """Engine simulation through a session (the default one if None),
        so runs share its trace cache and report into its tracer."""
        from ..session import resolve_session
        decl = self.declaration(machine)
        return resolve_session(session).simulate(
            getattr(self, self._loop), decl.body, machine,
            body_key=decl.key)

    def predict(self, machine, session=None,
                sample_threads: int | None = None):
        """Box-B3 performance-model companion of :meth:`simulate`."""
        from ..session import resolve_session
        decl = self.declaration(machine)
        return resolve_session(session).predict(
            getattr(self, self._loop), decl.body, machine,
            sample_threads=sample_threads,
            total_flops=float(getattr(self, self._flops_attr)),
            body_key=decl.key, trace_builder=self.trace_builder(machine))
