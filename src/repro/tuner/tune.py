"""One-call tuning: ``tune(kernel, machine=..., strategy=...)``.

The one public tuning entry point.  Give it a kernel (anything exposing
``sim_body(machine)``, ``flops`` and a
:class:`~repro.core.threaded_loop.ThreadedLoop` attribute — every
``repro.kernels`` class qualifies) or a bare spec declaration list, pick
a strategy, and get a :class:`~repro.tuner.search.TuneReport` back.  It
enumerates the candidates, builds the evaluators, and runs the sweep.

Strategies:

* ``"exhaustive"`` — every enumerated candidate through the exact
  evaluator (:func:`repro.tuner.search.search`);
* ``"screened"`` — successive halving in the same sweep: a cheap
  perf-model pass scores everything, only the best ``screen_keep``
  fraction reaches the exact evaluator;
* ``"guided"`` — the learned path (:func:`repro.tuner.guided.
  guided_search`): ridge cost model screens the pool and a beam search
  over spec-edit actions spends exact evaluations only on survivors.

Kernels that also expose ``trace_builder(machine, loop)`` (GEMM, conv
and SpMM do) have each candidate's traces built vectorized from its
plan by the perf-model evaluator — no nest interpretation, identical
scores.  An explicit ``sim_body=`` (or a bare spec list) keeps
interpreter capture of that body.

Evaluators are interchangeable under the :class:`Evaluator` protocol —
pass ``evaluator="perfmodel"``/``"engine"`` for the stock ones or any
``candidate -> TuneOutcome`` callable (carry a ``.verifier`` attribute
to support ``verify=True``).
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace
from typing import Protocol, runtime_checkable

from ..core.loop_spec import LoopSpecs
from ..core.threaded_loop import ThreadedLoop
from ..obs.context import current as _obs
from .constraints import TuningConstraints
from .features import FeatureExtractor
from .generator import generate_candidates
from .guided import guided_search
from .search import (TuneOutcome, TuneReport, engine_evaluator,
                     perfmodel_evaluator, search)

__all__ = ["Evaluator", "TuneReport", "tune"]


@runtime_checkable
class Evaluator(Protocol):
    """What a tuning strategy needs from a scorer: ``candidate ->
    TuneOutcome``.  The stock factories
    (:func:`~repro.tuner.search.perfmodel_evaluator`,
    :func:`~repro.tuner.search.engine_evaluator`) additionally attach a
    ``.verifier`` used by ``verify=True``; custom evaluators may too."""

    def __call__(self, candidate) -> TuneOutcome: ...


def _kernel_loop(kernel) -> ThreadedLoop:
    loops = [v for _, v in sorted(vars(kernel).items())
             if isinstance(v, ThreadedLoop)]
    if not loops:
        raise TypeError(
            f"{type(kernel).__name__} holds no ThreadedLoop — pass the "
            "spec declarations (list of LoopSpecs) and sim_body= instead")
    return loops[0]


def _default_constraints(base_specs) -> TuningConstraints:
    chars = [chr(ord("a") + i) for i in range(len(base_specs))]
    return TuningConstraints(
        max_occurrences={c: 2 for c in chars},
        parallelizable=frozenset(chars[1:] or chars))


def tune(kernel_or_specs, *, machine=None, sim_body=None,
         constraints: TuningConstraints | None = None,
         candidates=None, budget: int | None = None,
         strategy: str = "exhaustive", evaluator="perfmodel",
         num_threads: int | None = None,
         sample_threads: int | None = 4,
         total_flops: float | None = None,
         verify=False, top_k: int | None = None,
         workers: int | None = None, screen_keep: float = 0.5,
         model=None, exact_budget: int | None = None,
         beam_width: int = 4, max_rounds: int = 3,
         trace_cache=None, eval_cache=None,
         workload_sig: str | None = None) -> TuneReport:
    """Tune *kernel_or_specs* on *machine* and rank the outcomes.

    Parameters
    ----------
    kernel_or_specs:
        A kernel object (``sim_body(machine)`` + ``flops`` + a
        ThreadedLoop attribute, optionally ``trace_builder(machine,
        loop)``) or a list of :class:`~repro.core.loop_spec.LoopSpecs`
        (then pass *sim_body*).
    sim_body:
        Overrides a kernel's own body; traces are then captured by
        interpreting each candidate's nest with it.
    machine:
        Target :class:`~repro.platform.machine.MachineModel` (required).
    constraints / budget / candidates:
        The search space: explicit *candidates* win; otherwise the space
        is enumerated from *constraints* (sensible defaults per the
        declaration when omitted) capped at *budget* candidates.
    strategy:
        ``"exhaustive"`` | ``"screened"`` | ``"guided"`` (see module
        docstring).
    evaluator:
        ``"perfmodel"`` | ``"engine"`` | any :class:`Evaluator`.
    verify:
        ``True`` runs race detection before evaluation (racy candidates
        land in ``report.racy``); a callable supplies custom logic.
    model / exact_budget / beam_width / max_rounds:
        Guided-strategy knobs (a pre-trained
        :class:`~repro.tuner.model.RidgeCostModel` skips the bootstrap).
    trace_cache / eval_cache / workload_sig:
        Session caches.  *eval_cache* warm-starts scoring and absorbs
        every valid outcome, also those scored in forked *workers*; it
        needs *workload_sig* to key entries.
    """
    t0 = time.perf_counter()
    if machine is None:
        raise ValueError("tune() needs machine=")
    if strategy not in ("exhaustive", "screened", "guided"):
        raise ValueError(
            f"unknown strategy {strategy!r}: expected 'exhaustive', "
            "'screened' or 'guided'")

    # resolve the kernel protocol vs bare declarations
    trace_builder = None
    if isinstance(kernel_or_specs, (list, tuple)) and all(
            isinstance(s, LoopSpecs) for s in kernel_or_specs):
        base_specs = tuple(kernel_or_specs)
        if sim_body is None:
            raise ValueError(
                "tune(specs, ...) needs sim_body= (kernel objects carry "
                "their own)")
    else:
        kernel = kernel_or_specs
        loop = _kernel_loop(kernel)
        base_specs = tuple(loop.specs)
        if sim_body is None:
            sim_body = kernel.sim_body(machine)
            # the kernel's own body has a vectorized twin: build each
            # candidate's traces with it instead of interpreting the nest
            make_builder = getattr(kernel, "trace_builder", None)
            if make_builder is not None:
                trace_builder = functools.partial(make_builder, machine)
        if total_flops is None:
            total_flops = float(getattr(kernel, "flops", 0)) or None
        if num_threads is None:
            num_threads = kernel.num_threads

    if constraints is None:
        constraints = _default_constraints(base_specs)
    if budget is not None and constraints.max_candidates != budget:
        constraints = replace(constraints, max_candidates=budget)
    if candidates is None:
        candidates = generate_candidates(base_specs, constraints)
    else:
        candidates = list(candidates)

    def make_evaluator(kind):
        if kind == "perfmodel":
            return perfmodel_evaluator(
                base_specs, sim_body, machine, num_threads=num_threads,
                sample_threads=sample_threads, total_flops=total_flops,
                trace_cache=trace_cache, trace_builder=trace_builder)
        if kind == "engine":
            return engine_evaluator(
                base_specs, sim_body, machine, num_threads=num_threads,
                trace_cache=trace_cache)
        if callable(kind):
            return kind
        raise ValueError(
            f"evaluator must be 'perfmodel', 'engine' or a callable, "
            f"got {kind!r}")

    exact = make_evaluator(evaluator)
    if eval_cache is not None:
        if workload_sig is None:
            raise ValueError("eval_cache= needs workload_sig= to key "
                             "entries")
        cached = eval_cache.wrap(exact, machine, workload_sig)
        cached.verifier = getattr(exact, "verifier", None)
        exact = cached

    with _obs().span("tune", strategy=strategy,
                     candidates=len(candidates)):
        if strategy == "guided":
            extractor = FeatureExtractor(base_specs=base_specs,
                                         machine=machine,
                                         num_threads=num_threads)
            report = guided_search(
                candidates, exact, extractor, base_specs, constraints,
                model=model, exact_budget=exact_budget,
                beam_width=beam_width, max_rounds=max_rounds, top_k=top_k,
                verify=verify)
        else:
            # "screened": the perf model with thread sampling scores first
            screen = (make_evaluator("perfmodel")
                      if strategy == "screened" else None)
            report = search(candidates, exact, top_k=top_k,
                            workers=workers, screen=screen,
                            screen_keep=screen_keep, verify=verify)
    if eval_cache is not None:
        # stores made by forked workers die with them; the outcomes
        # come back, so record them in the parent
        eval_cache.record(report, machine, workload_sig)
    return replace(report, wall_seconds=time.perf_counter() - t0)
