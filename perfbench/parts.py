"""The three parts every benchmark run executes: ``tune``, ``kernels``
and ``fleet``.

Each part has a ``setup`` (inputs from the seed, kernels, cost models,
warm-up calls; timed as ``setup_s``) and a ``rep`` (one timed
repetition).  A rep starts from a fresh :class:`repro.Session`, times
only calls into the program through the part's ``meter`` (a
:class:`perfbench.host.HostMeter`, which scales each time by the host's
speed; the kind of probe -- ``py``, ``mix`` or ``mem`` -- follows the
call's kind of work), and checks every output after its timer stops.
``Checks`` counts the checks attempted and failed.

Thread counts are explicit everywhere: ``default_num_threads()`` reads
``OMP_NUM_THREADS``, which the runner pins for NumPy, so leaving a
count implicit would change the modeled problem with the host.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from perfbench.host import HostMeter
from repro import Session
from repro.core.batched import clear_enumeration_cache
from repro.core.cache import global_nest_cache
from repro.fleet import FlashCrowdTrace, PoissonTrace
from repro.kernels.conv import ConvSpec, ParlooperConv
from repro.kernels.gemm import ParlooperGemm
from repro.kernels.mlp import ParlooperMlp
from repro.kernels.spmm import ParlooperSpmm
from repro.obs import ObsConfig
from repro.platform import SPR, ZEN4
from repro.platform.machine import MachineModel
from repro.resilience import (FleetFaultPlan, ReplicaFault, ResilienceConfig,
                              check_fleet_invariants)
from repro.simulator.perfmodel import predict as scalar_predict
from repro.tpp.dtypes import DType
from repro.tpp.sparse import BCSCMatrix
from repro.tuner.tune import _default_constraints
from repro.workloads import LlmConfig

#: why each part is in the benchmark (printed with every run)
PART_WHY = {
    "tune": "trace capture, compile_trace and hit_levels do most of the "
            "work while serving and numeric kernels stay idle; guided "
            "tuning makes few exact evaluations, so trace-capture and "
            "learned-model changes show up separately",
    "kernels": "core.batched, tpp.batched and kernels.batched do nearly "
               "all the work and the simulator is reached through the "
               "vectorized trace builders, not interpreter capture",
    "fleet": "the serve step loop, step pricing and obs gauges do nearly "
             "all the work; steady is decode-dominated with an empty "
             "queue, burst is event-dense with a replica death",
}

OBS = ObsConfig(tracing=False)       # metrics on (for counters), no spans


def clear_global_caches() -> None:
    """Empty the process-global caches, as a fresh process has them: the
    global NestCache and the core.batched enumeration cache.  Every set-up
    and every timed repetition starts with this, so repetitions are
    treated alike whatever ran before them."""
    global_nest_cache().clear()
    clear_enumeration_cache()


def sha256_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _small_ints(rng, shape):
    """Values in [-2, 2]: every sum stays exact in float32, so outputs
    compare with ``array_equal`` under any summation order."""
    return rng.integers(-2, 3, size=shape).astype(np.float32)


# -- tune -----------------------------------------------------------------

@dataclass(frozen=True)
class TuneSize:
    dim: int = 2048
    block: int = 64
    dtype: DType = DType.BF16
    machine: MachineModel = SPR
    threads: int = 56                # modeled threads
    pool: int = 500


class TunePart:
    """Exhaustive tune of a GEMM over a fixed candidate pool, the engine
    on its top 5, then a guided tune of the same pool."""

    name = "tune"

    def __init__(self, size: TuneSize = TuneSize()):
        self.size = size
        self.meter = HostMeter(normalise=False)

    def setup(self, seed: int) -> None:
        s = self.size
        self.kernel = ParlooperGemm(s.dim, s.dim, s.dim, s.block, s.block,
                                    s.block, dtype=s.dtype,
                                    num_threads=s.threads)
        # the pool is the default subsample of the spec space; it does
        # not depend on the seed, so every modeled tuning output (and
        # its digest) repeats across runs
        self.constraints = replace(
            _default_constraints(self.kernel.gemm_loop.specs),
            max_candidates=s.pool)
        self.ranking = None          # the first exhaustive tune's top 5

    def exhaustive(self, checks: Checks) -> dict:
        """The exhaustive tune; keeps its top 5 for :meth:`rep`."""
        s = self.size
        ses = Session(s.machine, obs=OBS)
        report, t_ex = self.meter.timed(lambda: ses.tune(
            self.kernel, constraints=self.constraints,
            num_threads=s.threads), "mix", "tune_exhaustive")
        self.exhaustive_best = report.best.score
        self.top5 = report.top(5)

        ranking = [(o.candidate.label(), repr(o.score)) for o in self.top5]
        if self.ranking is None:
            # scalar LRU oracle, once per run: the memoized vectorized
            # scores must match it bit for bit
            body = self.kernel.sim_body(s.machine)
            specs = self.kernel.gemm_loop.specs
            for o in report.top(3):
                loop = o.candidate.build_loop(specs, num_threads=s.threads)
                ref = scalar_predict(loop, body, s.machine, sample_threads=4,
                                     total_flops=float(self.kernel.flops),
                                     trace_cache=None)
                checks.check(ref.score == o.score,
                             f"tune: {o.candidate.label()} score "
                             f"{o.score!r} != scalar oracle {ref.score!r}")
            self.ranking = ranking
        else:
            checks.check(ranking == self.ranking,
                         "tune: exhaustive ranking changed between "
                         "repetitions")
        return {
            "tune_exhaustive_cands_per_s": report.n_candidates / t_ex,
            "_trace_cache": (ses.trace_cache.hits, ses.trace_cache.misses),
            "_digests": {"tune_top5": sha256_json(ranking)},
        }

    def rep(self, checks: Checks) -> dict:
        """The engine on the exhaustive top 5, then a guided tune, each
        from its own fresh Session."""
        s = self.size
        ses = Session(s.machine, obs=OBS)
        sims, t_eng = self.meter.timed(lambda: [
            self.kernel.with_spec(o.candidate.spec_string,
                                  block_steps=o.candidate.block_steps)
            .simulate(s.machine, session=ses) for o in self.top5],
            "py", "engine_top5")
        hits, misses = ses.trace_cache.hits, ses.trace_cache.misses
        ses = Session(s.machine, obs=OBS)
        guided, t_g = self.meter.timed(lambda: ses.tune(
            self.kernel, constraints=self.constraints,
            num_threads=s.threads, strategy="guided"), "mix", "tune_guided")
        for r in sims:
            checks.check(math.isfinite(r.gflops) and r.gflops > 0,
                         f"tune: engine gave {r.gflops!r} GFLOP/s")
        return {
            "tune_guided_s": t_g,
            "engine_top5_s": t_eng,
            "tuned_gflops_sim": max(r.gflops for r in sims),
            "tune_guided_ratio": guided.best.score / self.exhaustive_best,
            "_counts": {"tuner.guided.exact_evals": guided.n_exact_evals,
                        "tuner.guided.model_evals": guided.n_model_evals},
            "_trace_cache": (hits + ses.trace_cache.hits,
                             misses + ses.trace_cache.misses),
        }


# -- kernels --------------------------------------------------------------

@dataclass(frozen=True)
class KernelSize:
    gemm: int = 1024
    mlp_width: int = 1024
    mlp_batch: int = 512
    conv_hw: int = 56
    conv_batch: int = 2
    conv_channels: int = 64
    spmm: int = 1024
    spmm_n: int = 512
    spmm_block: int = 32
    spmm_density: float = 0.1
    threads: int = 4
    machine: MachineModel = SPR      # target of the predictions


KERNELS = ("gemm", "mlp", "conv", "spmm")
#: back-to-back calls timed as one sample (its time is per call): the
#: short kernels get enough work per sample to average out the host
CALLS = {"gemm": 1, "mlp": 1, "conv": 8, "spmm": 12}
#: the probe each kernel's time is scaled by (perfbench/host.py): the
#: dense kernels stream large operands and follow the memory bandwidth
#: (``mem``); the block-sparse SpMM's short calls are mostly per-block
#: call overhead and follow the core (``mix``).  Chosen by measuring each
#: kernel's run-to-run spread under each probe on a shared 2-vCPU host.
PROBE = {"gemm": "mem", "mlp": "mem", "conv": "mem", "spmm": "mix"}


class KernelsPart:
    """The four paper kernel families on the batched backend, warm
    (:meth:`rep`), and their builder-path predictions from a cold Session
    (:meth:`predict_rep`)."""

    name = "kernels"

    def __init__(self, size: KernelSize = KernelSize()):
        self.size = size
        self.meter = HostMeter(normalise=False)
        self.tracer = None           # a LayerTracer marks kernel calls

    def setup(self, seed: int) -> None:
        s = self.size
        rng = np.random.default_rng((seed, 1))
        nt = s.threads

        gemm = ParlooperGemm(s.gemm, s.gemm, s.gemm, 32, 32, 32, k_step=4,
                             num_threads=nt, backend="batched")
        a, b = _small_ints(rng, (s.gemm, s.gemm)), \
            _small_ints(rng, (s.gemm, s.gemm))
        A, B, C = gemm.pack_a(a), gemm.pack_b(b), gemm.alloc_c()

        self.mlp_args = ([s.mlp_width] * 4, s.mlp_batch)
        self.mlp_kw = dict(bm=16, bn=16, bk=16, dtype=DType.BF16,
                           num_threads=nt, seed=seed)
        mlp = ParlooperMlp(*self.mlp_args, backend="batched", **self.mlp_kw)
        x = _small_ints(rng, (s.mlp_width, s.mlp_batch))

        cs = ConvSpec(N=s.conv_batch, C=s.conv_channels, K=s.conv_channels,
                      H=s.conv_hw + 2, W=s.conv_hw + 2)
        conv = ParlooperConv(cs, num_threads=nt, backend="batched")
        xi = _small_ints(rng, (cs.N, cs.C, cs.H, cs.W))
        wt = _small_ints(rng, (cs.K, cs.C, cs.R, cs.S))
        I, Wt, O = conv.pack_input(xi), conv.pack_weights(wt), \
            conv.alloc_output()

        # exactly round(density * nb^2) nonzero blocks, wherever the seed
        # puts them: the work per call is the same for every seed
        nb = s.spmm // s.spmm_block
        mask = np.zeros(nb * nb, dtype=bool)
        mask[rng.choice(nb * nb, round(s.spmm_density * nb * nb),
                        replace=False)] = True
        mask = mask.reshape(nb, nb)
        dense = _small_ints(rng, (s.spmm, s.spmm)) * np.kron(
            mask, np.ones((s.spmm_block, s.spmm_block), np.float32))
        spmm = ParlooperSpmm(
            BCSCMatrix.from_dense(dense, s.spmm_block, s.spmm_block),
            s.spmm_n, num_threads=nt, backend="batched")
        bs = _small_ints(rng, (s.spmm, s.spmm_n))
        Bs, Cs = spmm.pack_b(bs), spmm.alloc_c()

        self.inputs = {"gemm": (a, b), "mlp": (x,), "conv": (xi, wt, cs),
                       "spmm": (dense, bs)}
        # (call, output as a dense array, flops)
        self.cases = {
            "gemm": (lambda: gemm(A, B, C), lambda: gemm.unpack_c(C),
                     gemm.flops),
            "mlp": (lambda: mlp.forward(x), None, mlp.flops),
            "conv": (lambda: conv(I, Wt, O), lambda: conv.unpack_output(O),
                     conv.flops),
            "spmm": (lambda: spmm(Bs, Cs), lambda: Cs,
                     spmm.effective_flops),
        }
        self.kernels = {"gemm": gemm, "mlp": mlp, "conv": conv,
                        "spmm": spmm}
        # warm-up: one call of each and one cold-Session predict of each
        for name in KERNELS:
            self.cases[name][0]()
        warm = Session(obs=OBS)
        for name in KERNELS:
            self.kernels[name].predict(s.machine, session=warm)

    def references(self) -> None:
        """Expected outputs, computed once per run and not part of
        set-up: NumPy in float64 for GEMM, conv and SpMM (exact on small
        integers), the interpreter backend for the BF16 MLP."""
        a, b = self.inputs["gemm"]
        (x,) = self.inputs["mlp"]
        xi, wt, cs = self.inputs["conv"]
        dense, bs = self.inputs["spmm"]
        win = np.lib.stride_tricks.sliding_window_view(
            xi.astype(np.float64), (cs.R, cs.S), axis=(2, 3))
        self.refs = {
            "gemm": (a.astype(np.float64) @ b).astype(np.float32),
            "mlp": ParlooperMlp(*self.mlp_args, **self.mlp_kw).forward(x),
            "conv": np.einsum("ncpqrs,kcrs->nkpq", win, wt)
            .astype(np.float32),
            "spmm": (dense.astype(np.float64) @ bs).astype(np.float32),
        }

    def rep(self, checks: Checks) -> dict:
        times, outs = {}, {}
        for name in KERNELS:
            call, calls = self.cases[name][0], CALLS[name]
            if self.tracer is not None:
                self.tracer.kernel_call = True
            try:
                with self.meter.window(PROBE[name]) as win:
                    outs[name], raw = win.timed(
                        lambda: [call() for _ in range(calls)][-1])
            finally:
                if self.tracer is not None:
                    self.tracer.kernel_call = False
            times[name] = win.scale(raw) / calls
            self.meter.raw.setdefault(name, []).append(raw / calls)
        for name in KERNELS:
            output = self.cases[name][1]
            got = output() if output is not None else outs[name]
            checks.check(bool(np.array_equal(got, self.refs[name])),
                         f"kernels: {name} output differs from reference")
        return {"_times": times}

    def predict_rep(self, checks: Checks) -> dict:
        """The four builder-path predictions from a cold Session."""
        ses = Session(obs=OBS)
        preds, t_pred = self.meter.timed(lambda: [
            self.kernels[name].predict(self.size.machine, session=ses)
            for name in KERNELS], "mix", "predict_cold")
        for name, p in zip(KERNELS, preds):
            checks.check(math.isfinite(p.seconds) and p.seconds > 0,
                         f"kernels: {name} predict gave {p.seconds!r}")
        return {"predict_cold_s": t_pred,
                "_trace_cache": (ses.trace_cache.hits,
                                 ses.trace_cache.misses)}

    def gflops(self, name: str, seconds: float) -> float:
        return self.cases[name][2] / seconds / 1e9


# -- fleet ----------------------------------------------------------------

#: the tiny 4-layer decoder of benchmarks/bench_fleet.py
TINY = LlmConfig("tiny", layers=4, hidden=256, heads=8, intermediate=1024,
                 vocab=8192)
RESILIENCE = ResilienceConfig(deadline_s=2.0, degrade=None)


#: the fleet traces do not depend on the run's seed: every modeled fleet
#: output (and its digest) repeats across runs, and the host time of a
#: run measures the same simulated work
TRACE_SEED = 42


@dataclass(frozen=True)
class FleetSize:
    steady_requests: int = 120
    burst_requests: int = 5000


class FleetPart:
    """Two Session.fleet runs on hetero4: a steady Poisson trace and a
    flash crowd during which replica 0 dies."""

    name = "fleet"

    def __init__(self, size: FleetSize = FleetSize()):
        self.size = size
        self.meter = HostMeter(normalise=False)

    def _fleet(self, ses, faults):
        return ses.fleet(TINY, machines="hetero4", router="least_kv_loaded",
                         faults=faults, resilience=RESILIENCE,
                         mem_fraction=0.001, costs=self.costs)

    def setup(self, seed: int) -> None:
        s = self.size
        self.traces = {
            "steady": (PoissonTrace(
                seed=TRACE_SEED, n_requests=s.steady_requests, rate_rps=150.0,
                mean_prompt=128, max_prompt=1024, mean_new_tokens=256,
                max_new_tokens=1024), None),
            "burst": (FlashCrowdTrace(
                seed=TRACE_SEED, n_requests=s.burst_requests, base_rps=600.0,
                flash_at_s=2.0, flash_len_s=3.0, flash_mult=8.0,
                mean_prompt=768, max_prompt=4096, prompt_sigma=1.3,
                mean_new_tokens=48, max_new_tokens=256),
                FleetFaultPlan(seed=TRACE_SEED, deaths=(
                    ReplicaFault(replica=0, at_s=2.5),))),
        }
        # per-machine cost models (engine-priced anchors), built and
        # warmed here and shared by every repetition
        self.costs = {}
        for trace, faults in self.traces.values():
            warm = replace(trace, n_requests=50)
            self._fleet(Session(obs=OBS), faults).run(warm,
                                                      keep_requests=False)
        self.warm = False

    def warm_up(self, checks: Checks) -> None:
        """One untimed repetition before the first timed one: the full
        traces fill the shared cost models' step-price caches, which the
        50-request set-up runs leave partly cold, so every timed
        repetition sees them equally warm."""
        if not self.warm:
            self.rep(checks)
            self.warm = True

    def rep(self, checks: Checks) -> dict:
        out = {"_digests": {}, "_steps": 0, "_requests": 0,
               "_price": [0, 0]}
        for kind, (trace, faults) in self.traces.items():
            ses = Session(obs=OBS)
            fleet = self._fleet(ses, faults)
            report, dt = self.meter.timed(
                lambda: fleet.run(trace, keep_requests=False), "py",
                f"fleet_{kind}")
            s = report.summary
            checks.check(check_fleet_invariants(fleet, report) == [],
                         f"fleet {kind}: invariant violations")
            checks.check(s.n_terminal == s.n_injected,
                         f"fleet {kind}: {s.n_terminal} terminal of "
                         f"{s.n_injected} injected")
            # the price-cache counters measure how warm the shared cost
            # models are, not modeled behaviour, so the digest skips them
            snap = {k: v for k, v in ses.metrics.snapshot().items()
                    if not k.startswith("serve_price_cache")}
            out[f"fleet_{kind}_req_per_s"] = s.n_terminal / dt
            out["_digests"][f"fleet_{kind}"] = sha256_json(
                {"summary": s.to_dict(), "metrics": snap})
            out["_steps"] += sum(r.n_steps for r in report.replica_reports)
            out["_requests"] += s.n_injected
            out["_price"][0] += ses.metrics.value("serve_price_cache",
                                                  kind="hit")
            out["_price"][1] += ses.metrics.value("serve_price_cache",
                                                  kind="miss")
            if kind == "burst":
                out["fleet_burst_goodput_sim"] = s.goodput_tokens_per_s
                out["fleet_burst_ttft_p99_sim_s"] = s.ttft_p99_s
                out["_burst"] = (s.mean_queue_depth, s.peak_kv_occupancy,
                                 s.n_failovers)
        return out


#: the workloads.  Both keep the working sets large: on a shared host,
#: cache-resident shapes swing with the neighbours' cache use far more
#: than the program's own speed does.
SIZES = {
    "paper": {"tune": TuneSize(), "kernels": KernelSize(),
              "fleet": FleetSize()},
    "zen4": {"tune": TuneSize(dtype=DType.F32, machine=ZEN4, threads=16,
                              pool=150),
             "kernels": KernelSize(machine=ZEN4),
             "fleet": FleetSize(steady_requests=60, burst_requests=1500)},
}


def settle() -> None:
    """Between repetitions: collect garbage outside the timers."""
    gc.collect()
