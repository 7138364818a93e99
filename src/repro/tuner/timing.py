"""Tuning-cost accounting (the Fig 4 "tuning time" axis).

A search's cost has two parts the paper compares stacks on: the
*harness* cost of generating/evaluating candidates (our wall clock) and
the *projected benchmarking* cost — what actually running every
candidate on hardware would take (kernel time x repetitions, which is
what TVM's 2.3-500x longer tuning is made of).  :class:`TuningCost`
derives both from a :class:`~repro.tuner.search.TuneReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .search import TuneReport

__all__ = ["TuningCost"]


@dataclass(frozen=True)
class TuningCost:
    """Cost of one tuning run."""

    evaluated: int
    skipped: int
    #: wall-clock of the search harness itself (model/engine evaluation)
    wall_seconds: float
    #: projected cost of benchmarking every valid candidate on hardware
    projected_bench_seconds: float
    repeats: int
    #: candidates dropped by the successive-halving screen stage
    pruned: int = 0
    #: per-skip diagnostics ("spec: error"), from ``TuneReport.failures``
    failure_reasons: tuple = ()
    #: candidates excluded by ``tune(verify=...)``
    racy: int = 0
    #: per-racy-candidate diagnostics, from ``TuneReport.racy`` (each a
    #: "spec: RaceReport; ..." line)
    race_reports: tuple = ()

    @classmethod
    def from_search(cls, report: TuneReport,
                    repeats: int = 10) -> "TuningCost":
        """Account a finished sweep; *repeats* is how many times an
        offline benchmark would time each candidate."""
        bench = sum(o.seconds for o in report.outcomes
                    if o.valid and o.seconds != float("inf"))
        reasons = tuple(f"{f.candidate.spec_string}: {f.error}"
                        for f in report.failures)
        races = tuple(rc.describe() for rc in report.racy)
        return cls(evaluated=report.n_exact_evals,
                   skipped=report.n_skipped,
                   wall_seconds=report.wall_seconds,
                   projected_bench_seconds=bench * repeats,
                   repeats=repeats, pruned=report.n_pruned,
                   failure_reasons=reasons,
                   racy=len(report.racy), race_reports=races)

    @property
    def per_candidate_seconds(self) -> float:
        if self.evaluated == 0:
            return 0.0
        return self.wall_seconds / self.evaluated

    def speedup_over(self, other: "TuningCost") -> float:
        """How much cheaper this tuning run is than *other* (projected
        hardware benchmarking cost ratio, the paper's comparison)."""
        if self.projected_bench_seconds <= 0:
            return float("inf")
        return other.projected_bench_seconds / self.projected_bench_seconds

    def describe(self) -> str:
        pruned = f", {self.pruned} pruned" if self.pruned else ""
        racy = f", {self.racy} racy" if self.racy else ""
        return (f"{self.evaluated} candidates ({self.skipped} skipped"
                f"{pruned}{racy}) | "
                f"harness {self.wall_seconds:.2f}s | projected bench "
                f"{self.projected_bench_seconds:.2f}s @ {self.repeats} "
                f"repeats")
