"""Inductance of multilayer rectangular planar windings.

Estimation via a monomial model, coefficient fitting from labeled winding
datasets, and inductance maximization under geometric constraints.

Each public name loads from its module on first use (PEP 562), so importing
one module, such as ``planarwind.geometry``, loads none of the others.
"""

import importlib

__version__ = "0.1.0"

# The public names, under the module that defines each; __all__ follows this order.
_EXPORTS = {
    "geometry": (
        "GeometryError", "IncompleteGeometryError", "InfeasibleGeometryError",
        "OrientationError", "WindingGeometry", "canonicalize", "inner_side", "mean_side",
        "meets_min_inner",
    ),
    "estimator": (
        "COEFFICIENT_NAMES", "DEFAULT_COEFFICIENTS", "MOHAN_COEFFICIENTS", "MU0",
        "SIMPLIFIED_COEFFICIENTS", "CoefficientSet", "inductance", "inductance_from_dims",
        "inductance_square", "mohan_inductance", "mohan_inductance_um",
    ),
    "dataset": (
        "CSV_HEADER", "NOMINAL_GRID_COUNTS", "SOURCES", "GridSpec", "Sample",
        "SampleFileError", "SplitAssignment", "dataset_a_spec", "dataset_b_spec",
        "dataset_c_spec", "default_corpus", "generate_grid", "read_csv", "read_geometry_csv",
        "split_train_eval", "synth_labels", "write_csv", "write_geometry_csv",
    ),
    "regression": (
        "FEATURE_NAMES", "CoefficientDispersion", "FitReport", "RankDeficiencyError",
        "build_design_matrix", "evaluate", "fit_and_evaluate", "fit_ols", "repeated_fit",
    ),
    "optimizer": (
        "BOUND_KEYS", "DEFAULT_RESOLUTION", "InfeasibleProblemError", "OptimizationProblem",
        "OptimizationResult", "RestartRecord", "brute_force_max", "default_problem",
        "feasible", "maximize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """Load a public name from its module, and keep it here for later lookups."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
