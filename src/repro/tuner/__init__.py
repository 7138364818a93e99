"""Auto-tuning infrastructure (Fig 1 Box B2, §II-D): constrained
loop_spec_string generation, evaluators, and the learned path — feature
extraction, ridge cost model, model-guided beam search — all behind the
one public tuning entry point, :func:`~repro.tuner.tune.tune`, which
returns a :class:`~repro.tuner.search.TuneReport` for every strategy."""

from .constraints import TuningConstraints, prefix_products, prime_factors
from .evalcache import EvalCache
from .features import FEATURE_VERSION, FeatureExtractor
from .generator import Candidate, generate_candidates
from .guided import edit_neighbors
from .model import ModelVersionError, RidgeCostModel
from .online import OnlineTuner, TuneDecision
from .search import (RacyCandidate, SearchFailure, TuneOutcome, TuneReport,
                     engine_evaluator, perfmodel_evaluator, race_verifier)
from .timing import TuningCost
from .tune import Evaluator, tune

__all__ = [
    "TuningConstraints", "prime_factors", "prefix_products",
    "Candidate", "generate_candidates",
    "TuneOutcome", "SearchFailure", "RacyCandidate",
    "perfmodel_evaluator", "engine_evaluator", "race_verifier",
    "EvalCache", "TuningCost",
    "FEATURE_VERSION", "FeatureExtractor",
    "RidgeCostModel", "ModelVersionError",
    "edit_neighbors",
    "OnlineTuner", "TuneDecision",
    "Evaluator", "TuneReport", "tune",
]
