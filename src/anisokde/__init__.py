"""Anisotropic kernel density estimation with per-point bandwidth selection.

The estimator picks a separate bandwidth vector per evaluation point from
a dyadic lattice, driven entirely by the data; companion modules verify
the selector's pointwise error bound against exact quadrature, classify
minimax rate regimes, build hard synthetic densities, and run Monte-Carlo
risk experiments.

Importing the package loads `errors` (and numpy) only. Each public name,
and each submodule as an attribute, imports its home module on first
access (PEP 562), so a run compiles only the modules it calls.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# home module -> its public names
_PUBLIC = {
    "bandwidths": ("Bandwidth", "BandwidthGrid", "build_grid"),
    "densities": (
        "TrueDensity", "build_f_theta", "build_perturbed", "flat_top_density",
        "sample", "smooth_product_density", "strong_maximal", "tail_quasi_norm",
        "vg_packing",
    ),
    "errors": (
        "ConfigError", "ConstructionFailureError", "EfficiencyError",
        "InvalidParameterError", "NumericError", "VerificationError",
    ),
    "estimator": (
        "Dataset", "EstimationSetup", "KappaPolicy", "PointwiseFit",
        "build_dataset", "estimate_on_grid", "kappa_default", "make_setup",
        "select_and_estimate",
    ),
    "kernels": ("build_base", "build_composite", "build_majorant", "build_product"),
    "oracle": (
        "assert_oracle_inequality", "bias", "bias_bar", "bias_norm_scaling",
        "check_proportional", "majorant_true", "oracle_terms", "residual_chi",
        "residual_zeta",
    ),
    "quadrature": ("GridSpec",),
    "regimes": ("ClassSpec", "TailSpec", "classify", "classify_tail", "embedding", "theta_star"),
    "risk": (
        "ExperimentPlan", "RiskReport", "default_grid", "fit_rate",
        "lp_norm_on_grid", "oracle_gap", "risk_replicate", "run_plan",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]

# every module imports errors, and callers catch its exceptions
globals().update((name, getattr(errors, name)) for name in _PUBLIC["errors"])


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
