"""Tests of the benchmark's own code: self-time arithmetic, wrapper
restoration, host-speed normalisation, the compare verdicts, refusal
without a program, and a smoke-size run that emits every metric
BENCHMARK.json names.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q`` from the
repository root.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from perfbench import host, parts, run
from perfbench.compare import verdict
from perfbench.layers import LAYERS, LayerTracer, _resolve

ROOT = run.ROOT


class StepClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = StepClock()
    tracer = LayerTracer(layers={}, clock=clock)

    def inner():
        clock.now += 3.0

    def middle():
        clock.now += 1.0
        w_inner()
        clock.now += 0.5
        w_inner()            # same layer twice: both covered by middle

    def outer():
        clock.now += 2.0
        w_middle()
        clock.now += 4.0

    w_inner = tracer.wrap("inner", inner)
    w_middle = tracer.wrap("middle", middle)
    w_outer = tracer.wrap("outer", outer)
    tracer.part = "p"
    w_outer()
    stats = tracer.stats["p"]
    assert stats["inner"] == [2, 6.0]
    assert stats["middle"] == [1, 1.5]
    assert stats["outer"] == [1, 6.0]
    # self times partition the outermost call's duration
    assert sum(v[1] for v in stats.values()) == clock.now


def test_recursive_calls_of_one_layer_are_not_double_counted():
    clock = StepClock()
    tracer = LayerTracer(layers={}, clock=clock)

    def rec(n):
        clock.now += 1.0
        if n:
            w_rec(n - 1)

    w_rec = tracer.wrap("rec", rec)
    w_rec(3)
    assert tracer.stats["other"]["rec"] == [4, 4.0]


def _targets():
    return [(owner, name, owner.__dict__.get(name, getattr(owner, name)))
            for targets in LAYERS.values() for t in targets
            for owner, name in _resolve(t)]


def test_wrappers_are_installed_and_restored():
    import repro.session as session
    import repro.simulator.perfmodel as perfmodel
    from repro.core.threaded_loop import ThreadedLoop
    before = _targets()
    assert len(before) > len(LAYERS)
    # a function imported by name is wrapped where its caller looks it up,
    # also under another name
    assert any(owner is perfmodel and name == "hit_levels"
               for owner, name, _ in before)
    assert any(owner is session and name == "_simulate"
               for owner, name, _ in before)
    call = ThreadedLoop.__call__
    with LayerTracer():
        assert all(getattr(owner, name) is not orig
                   for owner, name, orig in before)
    assert all(owner.__dict__.get(name, getattr(owner, name)) is orig
               for owner, name, orig in before)
    assert ThreadedLoop.__call__ is call

    with pytest.raises(RuntimeError):
        with LayerTracer():
            raise RuntimeError("boom")
    assert all(owner.__dict__.get(name, getattr(owner, name)) is orig
               for owner, name, orig in before)


class FakeMeter(host.HostMeter):
    """A meter on a hand-advanced clock whose probes take fixed times
    (*slow* times nominal) and advance the clock by *cost*."""

    def __init__(self, slow, cost=0.0):
        super().__init__(clock=StepClock())
        self.slow, self.cost = slow, cost

    def _probe(self, kinds=host._LIGHT):
        self.probes.append({k: self.slow[k] * host.NOMINAL_S[k]
                            for k in kinds})
        self.clock.now += self.cost
        self.spent += self.cost


def test_timed_calls_scale_by_the_probes_around_them():
    meter = FakeMeter({"py": 2.0, "np": 0.5, "mem": 4.0})

    def call():
        meter.clock.now += 1.0

    assert meter.timed(call, "py", "x")[1] == pytest.approx(0.5)
    assert meter.timed(call, "mix")[1] == pytest.approx(1.0)
    assert meter.timed(call, "mem")[1] == pytest.approx(0.25)
    assert meter.raw == {"x": [1.0]}
    # a window holds the probes right before and right after it; only
    # mem windows pay for mem probes
    with meter.window("mem") as win:
        win.timed(call)
    window = meter.probes[win.first:win.last]
    assert len(window) == 2 * host.BRACKET
    assert sum("mem" in p for p in window) == 2 * host.MEM_BRACKET
    assert meter.speed() == pytest.approx({"py": 2.0, "np": 0.5,
                                           "mem": 4.0})
    with pytest.raises(ValueError):
        meter.window("gpu")


def test_probe_time_inside_a_call_is_not_the_calls():
    meter = FakeMeter({"py": 1.0, "np": 1.0}, cost=0.25)

    def call():
        meter.clock.now += 1.0
        meter._probe()           # as the interval timer would
        meter.clock.now += 1.0

    out, seconds = meter.timed(call, "py")
    assert seconds == pytest.approx(2.0)


def test_raw_meter_takes_no_probes_and_installs_no_timer():
    meter = host.HostMeter(normalise=False, clock=StepClock())
    handler = signal.getsignal(signal.SIGALRM)
    with meter:
        assert signal.getsignal(signal.SIGALRM) is handler

        def call():
            meter.clock.now += 3.0

        assert meter.timed(call, "mix")[1] == 3.0
    assert meter.probes == [] and meter.speed() == {}


def test_interval_timer_probes_and_is_restored():
    handler = signal.getsignal(signal.SIGALRM)
    meter = host.HostMeter()
    with meter:
        assert signal.getsignal(signal.SIGALRM) == meter._on_alarm
        _, seconds = meter.timed(lambda: sum(range(3_000_000)), "py")
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.probes) > 2 * host.BRACKET    # some came by timer
    assert seconds > 0 and set(meter.speed()) == {"py", "np"}


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(parent, [80.0, 81.0, 79.0], "higher", 0.1) == "worse"
    assert verdict(parent, [120.0, 121.0, 119.0], "higher", 0.1) == "better"
    assert verdict(parent, [100.2, 99.8, 100.1], "higher", 0.1) \
        == "unchanged"
    assert verdict(parent, [80.0, 81.0, 79.0], "lower", 0.1) == "better"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert verdict(noisy, [105.0, 95.0, 100.0], "higher", 0.1) \
        == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


SMOKE = {"tune": parts.TuneSize(dim=256, block=64, threads=8, pool=20),
         "kernels": parts.KernelSize(gemm=128, mlp_width=64, mlp_batch=32,
                                     conv_hw=8, conv_batch=1, spmm=128,
                                     spmm_n=64, threads=2),
         "fleet": parts.FleetSize(steady_requests=30, burst_requests=200)}


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[key]}
    args = argparse.Namespace(workload="zen4", seed=3, seconds=0.1,
                              trace=trace, out=None)
    rec = run.execute(args, sizes=SMOKE)
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == expected
    assert rec["checks"]["failed"] == 0, rec["checks"]["failures"]
    assert rec["checks"]["attempted"] > 0
    assert set(rec["digests"]) == {"tune_top5", "fleet_steady",
                                   "fleet_burst"}
    if trace:
        m = rec["metrics"]
        assert m["kernels.fallback"]["value"] == 0
        assert m["simulator.lru_fallback"]["value"] == 0
        assert m["serve.advance.calls"]["value"] > 0
        assert m["simulator.predict.calls"]["value"] > 0
        assert m["simulator.engine.calls"]["value"] > 0
