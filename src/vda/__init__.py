"""Speech transmission analysis: metrics, feature errors, and gap decomposition."""

from .corpus import (
    AlignedPair,
    AudioSignal,
    ConditionLabel,
    CorpusManifest,
    align,
    load_wav,
    parse_manifest,
    resample,
    validate_manifest,
    write_manifest,
)
from .features import ErrorVector, FeatureVector, extract_features, feature_error
from .metrics import MetricReport, evaluate_pair
from .model import (
    OaxacaDecomposition,
    Observations,
    RegressionFit,
    build_design_matrix,
    decomposition_table,
    fit_interactions,
    fit_ols,
    oaxaca_decompose,
    significance_band,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "AudioSignal",
    "ConditionLabel",
    "CorpusManifest",
    "ErrorVector",
    "FeatureVector",
    "MetricReport",
    "OaxacaDecomposition",
    "Observations",
    "RegressionFit",
    "align",
    "build_design_matrix",
    "decomposition_table",
    "evaluate_pair",
    "extract_features",
    "feature_error",
    "fit_interactions",
    "fit_ols",
    "load_wav",
    "oaxaca_decompose",
    "parse_manifest",
    "resample",
    "significance_band",
    "validate_manifest",
    "write_manifest",
]
