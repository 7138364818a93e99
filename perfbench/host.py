"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings
by tens of percent -- up to twice as slow -- in bursts from under a
second to minutes, with its neighbours' load; a swing moves every
timing of the same kind of work together.  While a :class:`HostMeter`
runs, an interval timer interrupts the program every ``PERIOD_S``
seconds with a *probe*: two tiny fixed workloads of this directory,
``py`` (objects, dicts and a heap, like the tuner, serve and fleet
loops) and ``np`` (small BLAS matmuls and small-array calls, like the
vectorized simulator), each timed.  A timed call's own time excludes
the probes that ran inside it, and is reported scaled to a host on
which the probes take their nominal time::

    seconds = (cpu - probe time) * nominal / mean(probe time of the window)

The window is the call itself plus ``BRACKET`` probes taken right
before and right after it, so short calls are scaled too.  ``mix``
scales by the geometric mean of ``py`` and ``np``, for calls that do
both kinds of work.  ``mem`` is a heavier probe -- streaming over
arrays larger than L2, then matmuls -- taken only in the brackets of
the calls it scales: the batched kernels that stream large blocks, whose
speed follows the shared cache and memory bandwidth rather than the
core's.

Times are process CPU seconds, so a descheduled process does not read
slow either.  The probes never change with the program, so a slower
program still reads slower; a slower host does not.  The raw times are
kept beside the normalised ones in the run record.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
import time

import numpy as np

__all__ = ["HostMeter", "Window", "KINDS", "NOMINAL_S"]

#: fixed scales of the order of each probe's time on an idle 2-vCPU Xeon
#: (Sapphire Rapids, KVM guest) with Python 3.11 and NumPy 2.4 on one
#: BLAS thread: normalised times read as seconds on a host where the
#: probes take exactly these times
NOMINAL_S = {"py": 3.2e-4, "np": 3.0e-4, "mem": 1.2e-3}
KINDS = ("py", "mix", "mem")
PERIOD_S = 0.02        # interval between probes while a meter runs
BRACKET = 4            # probes taken right before and right after a call
MEM_BRACKET = 2        # of those, how many also time ``mem``


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight

    def score(self, scale):
        return self.weight * scale + (self.key & 3)


def _py_work(n: int) -> int:
    """Interpreter work: objects, method calls, dicts, a heap, a sort."""
    table: dict = {}
    heap: list = []
    acc = 0
    for i in range(n):
        item = _Item(i % 61, (i * 7919) % 1009)
        table[item.key] = table.get(item.key, 0) + item.score(3)
        heapq.heappush(heap, (item.weight, i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0]
        acc += len(f"{item.key}:{item.weight}")
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return acc + ranked[0][0]


_MAT = (np.arange(96 * 96, dtype=np.float32) % 7.0).reshape(96, 96)
_ROWS = _MAT[:16]
# a preallocated product: the probe's time must not depend on the state
# of the allocator, which the program's own large arrays change
_PROD = np.empty_like(_MAT)


def _np_work(n: int) -> float:
    """Array work: BLAS matmuls and small-array calls."""
    acc = 0.0
    for _ in range(n):
        np.matmul(_MAT, _MAT, out=_PROD)
        acc += float(_PROD[0, 0])
    for row in _ROWS[:n]:
        acc += float(np.maximum(row + 1.0, 2.0).max())
    return acc


# 8 MiB arrays, past the core's L2: the kernels stream blocks through
# the shared L3 and memory, and their speed follows that bandwidth
_STREAM = np.ones(1 << 20)
_STREAM_OUT = np.empty_like(_STREAM)


def _mem_work(n: int) -> float:
    """Streaming work: *n* passes over the 8 MiB arrays, then matmuls."""
    for _ in range(n):
        np.add(_STREAM, 1.0, out=_STREAM_OUT)
    return _np_work(6) + float(_STREAM_OUT[-1])


# kind -> (work, size timed, size of the untimed warm-up that first
# brings the probe's code and data back into the caches the program
# evicted).  ``py`` and ``np`` are light and run on every probe; ``mem``
# takes milliseconds and runs only around calls scaled by it.
_PROBES = {"py": (_py_work, 240, 16), "np": (_np_work, 16, 2),
           "mem": (_mem_work, 1, 1)}
_LIGHT = ("py", "np")


class Window:
    """One timed stretch scaled by one kind of probe: the probes around
    and inside it, and the raw times of the calls made in it (without
    the probes' time)."""

    def __init__(self, meter: "HostMeter", kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.meter = meter
        self.kind = kind
        self.first = self.last = 0       # probe indices of the window

    def timed(self, fn):
        """``(fn(), raw seconds)``; raw excludes probe time."""
        m = self.meter
        spent, t0 = m.spent, m.clock()
        out = fn()
        return out, (m.clock() - t0) - (m.spent - spent)

    def probe_time(self, kind: str) -> float:
        """Mean time of the window's probes of *kind*."""
        return statistics.fmean(p[kind] for p in
                                self.meter.probes[self.first:self.last]
                                if kind in p)

    def factor(self) -> float:
        """nominal / probe time; 1.0 without normalisation."""
        if not self.meter.normalise:
            return 1.0
        kinds = _LIGHT if self.kind == "mix" else (self.kind,)
        return math.prod(NOMINAL_S[k] / self.probe_time(k)
                         for k in kinds) ** (1.0 / len(kinds))

    def scale(self, raw_s: float) -> float:
        return raw_s * self.factor()


class HostMeter:
    """Times calls and scales them by the host's speed (module doc).

    Use as a context manager: the interval timer runs inside the block.
    ``HostMeter(normalise=False)`` takes no probes and returns raw
    times, for traced runs (a probe would land in some layer's self
    time), tests and smoke runs.
    """

    def __init__(self, normalise: bool = True, clock=time.process_time):
        self.normalise = normalise
        self.clock = clock
        self.probes: list = []       # {"py": s, "np": s} per probe
        self.spent = 0.0             # seconds spent in probes
        self.raw: dict = {}          # label -> raw seconds, as timed
        self._busy = False
        self._running = False
        self._old_handler = None

    # -- probes -------------------------------------------------------
    def _probe(self, kinds=_LIGHT) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()     # a collection would walk the program's heap
        t_in = self.clock()
        try:
            out = {}
            for kind in kinds:
                work, size, warm = _PROBES[kind]
                work(warm)
                t0 = self.clock()
                work(size)
                out[kind] = self.clock() - t0
            self.probes.append(out)
        finally:
            if enabled:
                gc.enable()
            self.spent += self.clock() - t_in
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def __enter__(self) -> "HostMeter":
        if self.normalise and not self._running:
            self._old_handler = signal.signal(signal.SIGALRM,
                                              self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            self._running = True
        return self

    def __exit__(self, *exc) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self._running = False

    def _bracket(self, kind: str) -> None:
        """``BRACKET`` probes now; the first ``MEM_BRACKET`` of them also
        time ``mem`` when the window is scaled by it."""
        if self.normalise:
            for i in range(BRACKET):
                heavy = kind == "mem" and i < MEM_BRACKET
                self._probe(_LIGHT + ("mem",) if heavy else _LIGHT)

    # -- timing -------------------------------------------------------
    def window(self, kind: str) -> "_WindowContext":
        """``with meter.window(kind) as w:`` -- time calls with
        ``w.timed`` and scale them with ``w.scale`` once the block has
        closed."""
        return _WindowContext(self, kind)

    def timed(self, fn, kind: str, label: str | None = None):
        """``(fn(), seconds)`` with *seconds* normalised by *kind*."""
        with self.window(kind) as w:
            out, raw = w.timed(fn)
        if label is not None:
            self.raw.setdefault(label, []).append(raw)
        return out, w.scale(raw)

    def speed(self) -> dict:
        """Median probe time over the run, per kind, as a share of
        nominal (1.0 = the nominal host; 1.3 = 30% slower)."""
        return {k: statistics.median(times) / NOMINAL_S[k]
                for k in _PROBES
                if (times := [p[k] for p in self.probes if k in p])}


class _WindowContext:
    def __init__(self, meter: HostMeter, kind: str):
        self.meter = meter
        self.win = Window(meter, kind)

    def __enter__(self) -> Window:
        self.meter._bracket(self.win.kind)
        self.win.first = max(0, len(self.meter.probes) - BRACKET)
        return self.win

    def __exit__(self, *exc) -> None:
        self.meter._bracket(self.win.kind)
        self.win.last = len(self.meter.probes)
