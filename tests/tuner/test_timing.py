"""Tests for tuning-cost accounting (the Fig 4 tuning-time axis)."""

import pytest

from repro.tuner import TuningCost
from repro.tuner.search import TuneOutcome, TuneReport


def outcome(seconds, valid=True):
    return TuneOutcome(candidate=None, score=1.0 / seconds,
                       seconds=seconds, valid=valid)


def result(outcomes, wall=1.0, skipped=0):
    return TuneReport(strategy="exhaustive", outcomes=tuple(outcomes),
                      n_candidates=len(outcomes) + skipped, n_model_evals=0,
                      n_exact_evals=len(outcomes), n_pruned=0,
                      n_skipped=skipped, n_racy=0, wall_seconds=wall)


class TestFromSearch:
    def test_projects_bench_cost_from_valid_outcomes(self):
        r = result([outcome(0.1), outcome(0.2)], wall=0.5)
        c = TuningCost.from_search(r, repeats=10)
        assert c.projected_bench_seconds == pytest.approx(3.0)
        assert c.wall_seconds == 0.5
        assert c.evaluated == 2

    def test_invalid_and_infinite_candidates_excluded(self):
        r = result([outcome(0.1), outcome(5.0, valid=False),
                    outcome(float("inf"))])
        c = TuningCost.from_search(r, repeats=2)
        assert c.projected_bench_seconds == pytest.approx(0.2)

    def test_per_candidate_seconds(self):
        c = TuningCost.from_search(result([outcome(0.1)] * 4, wall=2.0))
        assert c.per_candidate_seconds == pytest.approx(0.5)
        empty = TuningCost.from_search(result([], wall=1.0))
        assert empty.per_candidate_seconds == 0.0


class TestComparison:
    def test_speedup_over_slower_tuner(self):
        fast = TuningCost.from_search(result([outcome(0.1)]), repeats=10)
        slow = TuningCost.from_search(result([outcome(0.1)] * 50),
                                      repeats=10)
        assert fast.speedup_over(slow) == pytest.approx(50.0)

    def test_zero_cost_speedup_is_infinite(self):
        free = TuningCost.from_search(result([]))
        other = TuningCost.from_search(result([outcome(1.0)]))
        assert free.speedup_over(other) == float("inf")

    def test_describe_mentions_the_parts(self):
        c = TuningCost.from_search(result([outcome(0.1)], wall=0.25,
                                          skipped=3), repeats=7)
        text = c.describe()
        assert "1 candidates" in text and "3 skipped" in text
        assert "@ 7 repeats" in text
