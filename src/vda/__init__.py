"""Speech transmission analysis: metrics, feature errors, and gap decomposition.

The package namespace is lazy (PEP 562): ``import vda`` loads no submodule,
and each name of ``__all__`` is imported from its home module on first use,
so that a process loads only the modules whose code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(("AlignedPair", "AudioSignal", "ConditionLabel", "CorpusManifest", "align",
                     "load_wav", "parse_manifest", "resample", "validate_manifest",
                     "write_manifest"), "corpus"),
    **dict.fromkeys(("ErrorVector", "FeatureVector", "extract_features", "feature_error"),
                    "features"),
    **dict.fromkeys(("MetricReport", "evaluate_pair"), "metrics"),
    **dict.fromkeys(("OaxacaDecomposition", "Observations", "RegressionFit",
                     "build_design_matrix", "decomposition_table", "fit_interactions", "fit_ols",
                     "oaxaca_decompose", "significance_band"), "model"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
