"""The public API surface, asserted exactly.

``repro.__all__`` is a contract: additions and removals must be
deliberate (update the snapshot here *and* the DESIGN.md migration
notes).  The 1.0 deprecation shims (``nthreads=``, the top-level
``search``/``generate_candidates``) were removed in 1.1; the old
spellings must stay gone.
"""

import importlib
import inspect
import warnings

import pytest

import repro
from repro.platform import SPR
from repro.serve import ServeCostModel
from repro.tpp.dtypes import DType
from repro.workloads import BERT_BASE, LlmConfig, OpCostModel
from repro.workloads.bert import bert_inference_performance
from repro.workloads.sparse_bert import sparse_bert_inference

API_SNAPSHOT = [
    # facade
    "Session", "ObsConfig", "default_session",
    # core
    "ThreadedLoop", "LoopSpecs", "SpecError",
    # kernels
    "ParlooperGemm", "ParlooperMlp", "ParlooperConv", "ParlooperSpmm",
    "ConvSpec",
    # tpp
    "BRGemmTPP", "BCSCMatrix", "DType", "Precision", "Ptr",
    # platform
    "MachineModel", "SPR", "GVT3", "ZEN4", "ADL",
    # simulator (default-session wrappers)
    "simulate", "predict",
    # serve
    "ServeSimulator", "TrafficGenerator",
    # fleet
    "FleetSimulator",
    # tuner
    "TuningConstraints", "TuneReport", "tune",
    # verify
    "verify_nest", "detect_races", "check_coverage", "run_fuzz",
    "VerificationError",
    "__version__",
]


class TestAllSnapshot:
    def test_exact_all(self):
        assert repro.__all__ == API_SNAPSHOT

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_deprecation_layer_is_gone(self):
        assert not hasattr(repro, "ParlooperDeprecationWarning")
        with pytest.raises(ImportError):
            importlib.import_module("repro._compat")
        assert repro.__version__ == "1.1.0"


class TestSessionFacade:
    def test_module_wrappers_match_session_results(self):
        g = repro.ParlooperGemm(256, 256, 256, num_threads=4)
        module_pred = repro.predict(g.gemm_loop, g.sim_body(SPR), SPR,
                                    total_flops=float(g.flops))
        sess_pred = g.predict(SPR, session=repro.Session(machine=SPR))
        assert module_pred.seconds == sess_pred.seconds
        assert module_pred.total_flops == sess_pred.total_flops

    def test_default_session_is_shared(self):
        assert repro.default_session() is repro.default_session()

    def test_kernel_methods_accept_explicit_session(self):
        sess = repro.Session(machine=SPR)
        g = repro.ParlooperGemm(256, 256, 256, num_threads=4)
        a = g.simulate(SPR)
        b = g.simulate(SPR, session=sess)
        assert a.seconds == b.seconds


class TestNthreadsShims:
    """The ``nthreads=`` shims were removed in 1.1: the old spelling is
    an unknown keyword everywhere, and ``num_threads`` never warns."""

    def test_opcostmodel_kwarg(self):
        with pytest.raises(TypeError, match="nthreads"):
            OpCostModel(SPR, nthreads=8)

    def test_opcostmodel_property_alias(self):
        cost = OpCostModel(SPR, num_threads=8)
        assert not hasattr(cost, "nthreads")
        assert cost.num_threads == 8

    def test_servecostmodel_kwarg(self):
        tiny = LlmConfig("tiny", layers=2, hidden=128, heads=4,
                         intermediate=512, vocab=512)
        with pytest.raises(TypeError, match="nthreads"):
            ServeCostModel(SPR, config=tiny, dtype=DType.BF16, nthreads=8)

    def test_bert_inference_kwarg(self):
        with pytest.raises(TypeError, match="nthreads"):
            bert_inference_performance(BERT_BASE, SPR, nthreads=8)

    def test_sparse_bert_kwarg(self):
        with pytest.raises(TypeError, match="nthreads"):
            sparse_bert_inference(BERT_BASE, SPR, sparsity=0.7, nthreads=8)

    def test_both_spellings_is_a_type_error(self):
        with pytest.raises(TypeError):
            OpCostModel(SPR, nthreads=8, num_threads=8)
        with pytest.raises(TypeError):
            bert_inference_performance(BERT_BASE, SPR, nthreads=8,
                                       num_threads=8)

    def test_new_spelling_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            OpCostModel(SPR, num_threads=8)
            bert_inference_performance(BERT_BASE, SPR, num_threads=8)


class TestTunerShims:
    """The top-level tuning shims were removed in 1.1: ``tune()`` is the
    one public tuning entry point.  Enumeration stays public as
    ``repro.tuner.generate_candidates``; the sweep behind ``tune()``
    lives on as ``repro.tuner.search.search``."""

    CONSTRAINTS = repro.TuningConstraints(
        max_occurrences={"a": 1, "b": 1, "c": 1},
        parallelizable=frozenset("b"), max_candidates=8)

    def _pool(self):
        from repro.tuner import generate_candidates
        g = repro.ParlooperGemm(128, 128, 128, num_threads=4)
        return g, list(generate_candidates(g.gemm_loop.specs,
                                           self.CONSTRAINTS))

    def test_top_level_generate_candidates_is_gone(self):
        assert not hasattr(repro, "generate_candidates")
        assert "generate_candidates" in repro.tuner.__all__

    def test_top_level_search_is_gone(self):
        import repro.session
        assert not hasattr(repro, "search")
        assert not hasattr(repro.session, "search")
        assert not hasattr(repro.Session, "search")
        for name in ("search", "guided_search", "SearchResult",
                     "GuidedResult"):
            assert name not in repro.tuner.__all__, name
        for name in ("guided_search", "SearchResult", "GuidedResult"):
            assert not hasattr(repro.tuner, name), name
        # repro.tuner.search names the submodule, not the sweep function
        assert inspect.ismodule(repro.tuner.search)

    def test_tuner_module_spellings_never_warn(self):
        from repro.tuner import TuneOutcome
        from repro.tuner.search import search
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _, cands = self._pool()
            search(cands, lambda c: TuneOutcome(c, 1.0, 1.0))

    def test_session_tune_never_warns(self):
        g = repro.ParlooperGemm(128, 128, 128, num_threads=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = repro.Session(machine=SPR).tune(
                g, constraints=self.CONSTRAINTS)
        assert report.strategy == "exhaustive"
        assert report.best.valid
