"""Fitting the monomial model to labeled windings, and error reporting.

Taking log10 of the model turns it into a linear relation

    log10(L) = c0 + a1*log10(D1) + ... + a8*log10(N_L) + a9*(N_L-1)*log10(O)

with intercept c0 = log10(a0 * mu0), so the coefficients follow from
ordinary least squares on a design matrix of logged dimensions.  The layer
gap enters through the single regressor x9 = (N_L - 1) * log10(O), which is
exactly zero for single-layer rows (where no gap exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dataset import Sample, split_train_eval
from .estimator import COEFFICIENT_NAMES, MU0, CoefficientSet, inductance, require_in_range
from .estimator import inductance_from_dims
from .geometry import is_integer, mean_side

FEATURE_NAMES = (
    "intercept",
    "log10_D1",
    "log10_D2",
    "log10_Dbar1",
    "log10_Dbar2",
    "log10_w",
    "log10_s",
    "log10_NT",
    "log10_NL",
    "gap_term",
)


class RankDeficiencyError(ValueError):
    """Design matrix does not identify all model coefficients."""

    def __init__(self, rank: int, columns: Sequence[str]):
        self.rank = rank
        self.columns = tuple(columns)
        super().__init__(
            f"design matrix has rank {rank} < {len(FEATURE_NAMES)}; "
            f"dependent columns: {', '.join(columns)} "
            f"(the corpus does not vary these independently)"
        )


class _Columns:
    """The fields of a list of samples, each pulled out once as a list.

    Lists of floats, not per-row tuples: floats are not tracked by the
    garbage collector, so building these triggers no collections over the
    samples still alive.
    """

    def __init__(self, samples: Sequence[Sample]):
        geometries = [sample.geometry for sample in samples]
        self.D1 = [g.D1 for g in geometries]
        self.D2 = [g.D2 for g in geometries]
        self.d1 = [g.d1 for g in geometries]
        self.d2 = [g.d2 for g in geometries]
        self.w = [g.w for g in geometries]
        self.s = [g.s for g in geometries]
        self.NT = [g.n_turns for g in geometries]
        self.NL = [g.n_layers for g in geometries]
        self.gap = [g.layer_gap for g in geometries]
        self.L_ref = [sample.L_ref for sample in samples]


def build_design_matrix(samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix (with leading intercept column) and response vector.

    Row i holds, after the intercept, log10 of D1, D2, Dbar1, Dbar2, w, s,
    N_T and N_L of sample i, then (N_L - 1) * log10(O), exactly 0 for a
    single layer; y[i] is log10 of its label.  Logs are taken with
    math.log10, which np.log10 does not match in the last bit.
    """
    if len(samples) == 0:
        raise ValueError("no samples")
    c = _Columns(samples)
    L_ref = np.array(c.L_ref)
    bad = np.flatnonzero(~((L_ref > 0.0) & np.isfinite(L_ref)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"sample {i}: L_ref must be positive and finite, got {c.L_ref[i]}")
    log10 = math.log10
    X = np.empty((len(samples), len(FEATURE_NAMES)))
    X[:, 0] = 1.0
    X[:, 1] = list(map(log10, c.D1))
    X[:, 2] = list(map(log10, c.D2))
    # NumPy adds and halves exactly as Python floats do; only the log
    # must stay per element.
    X[:, 3] = list(map(log10, mean_side(np.array(c.D1), np.array(c.d1)).tolist()))
    X[:, 4] = list(map(log10, mean_side(np.array(c.D2), np.array(c.d2)).tolist()))
    X[:, 5] = list(map(log10, c.w))
    X[:, 6] = list(map(log10, c.s))
    X[:, 7] = list(map(log10, c.NT))
    X[:, 8] = list(map(log10, c.NL))
    X[:, 9] = [0.0 if nl == 1 else (nl - 1) * log10(gap) for nl, gap in zip(c.NL, c.gap)]
    y = np.array(list(map(log10, c.L_ref)))
    return X, y


def fit_ols(X: np.ndarray, y: np.ndarray, label: str = "ols") -> CoefficientSet:
    """Least-squares coefficients from a design matrix.

    Solves min ||X c - y|| via SVD and maps the intercept back to the
    prefactor, a0 = 10**c0 / mu0.

    Raises:
        ValueError: on shape mismatch or too few rows to identify the model.
        RankDeficiencyError: if the columns are linearly dependent; the
            error names the dependent columns, found by pivoted QR.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"X must have {len(FEATURE_NAMES)} columns, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if X.shape[0] <= X.shape[1]:
        raise ValueError(
            f"need more than {X.shape[1]} samples to identify the model, got {X.shape[0]}"
        )
    solution, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        from scipy.linalg import qr

        _, _, pivots = qr(X, mode="economic", pivoting=True)
        dependent = sorted(FEATURE_NAMES[j] for j in pivots[rank:])
        raise RankDeficiencyError(rank, dependent)
    # Column j of X carries a_j (FEATURE_NAMES); the intercept gives a0.
    return CoefficientSet(10.0 ** solution[0] / MU0, *solution[1:].tolist(), label=label)


@dataclass(frozen=True)
class FitReport:
    """Evaluation of a coefficient set against labeled windings.

    Errors are relative deviations in percent,

        e = (L_ref - L_model) / L_ref * 100

    so positive means the model underestimates.  The histogram is a tuple
    of (lo, hi, count) bins of width bin_width_pct centered on zero,
    contiguous from the lowest to the highest populated bin, each covering
    [lo, hi).  exceedance_by_NL counts samples with |e| above the report's
    threshold, keyed by layer count.  n_train and seed describe the fit
    that produced the coefficients; repeats is the number of fit repeats
    behind the report, 0 for an evaluation of externally given
    coefficients.
    """

    coefficients: CoefficientSet
    mean_error_pct: float
    std_error_pct: float
    mae_pct: float
    threshold_pct: float
    histogram: tuple[tuple[float, float, int], ...]
    exceedance_by_NL: dict
    n_train: int = 0
    n_eval: int = 0
    seed: Optional[int] = None
    repeats: int = 0

    def to_mapping(self) -> dict:
        return {
            "coefficients": self.coefficients.to_mapping(),
            "mean_error_pct": self.mean_error_pct,
            "std_error_pct": self.std_error_pct,
            "mae_pct": self.mae_pct,
            "threshold_pct": self.threshold_pct,
            "histogram": [[lo, hi, count] for lo, hi, count in self.histogram],
            "exceedance_by_NL": {str(k): v for k, v in sorted(self.exceedance_by_NL.items())},
            "n_train": self.n_train,
            "n_eval": self.n_eval,
            "seed": self.seed,
            "repeats": self.repeats,
        }


def error_pct(sample: Sample, coefficients: CoefficientSet) -> float:
    """Relative deviation of the model from the label, in percent."""
    L_model = inductance(sample.geometry, coefficients)
    return (sample.L_ref - L_model) / sample.L_ref * 100.0


def _histogram(errors: np.ndarray, bin_width_pct: float) -> tuple[tuple[float, float, int], ...]:
    # Bin k is centered at k * width; assignment is half-open on the right.
    k = np.floor(errors / bin_width_pct + 0.5).astype(int)
    kmin, kmax = int(k.min()), int(k.max())
    counts = np.bincount(k - kmin, minlength=kmax - kmin + 1)
    return tuple(
        ((i + kmin - 0.5) * bin_width_pct, (i + kmin + 0.5) * bin_width_pct, int(c))
        for i, c in enumerate(counts)
    )


def _check_report_settings(threshold_pct: float, bin_width_pct: float) -> None:
    """Raise ValueError unless the settings of :func:`evaluate` are in range."""
    if not 0.0 < bin_width_pct < math.inf:
        raise ValueError(f"bin_width_pct must be positive and finite, got {bin_width_pct}")
    if not 0.0 <= threshold_pct < math.inf:
        raise ValueError(f"threshold_pct must be >= 0 and finite, got {threshold_pct}")


def evaluate(
    samples: Sequence[Sample],
    coefficients: CoefficientSet,
    threshold_pct: float = 5.0,
    bin_width_pct: float = 0.5,
) -> FitReport:
    """Error statistics of a coefficient set on labeled windings; model L must be in (0, inf)."""
    if len(samples) == 0:
        raise ValueError("no samples to evaluate")
    _check_report_settings(threshold_pct, bin_width_pct)
    c = _Columns(samples)
    layers = np.array(c.NL)
    L_model = np.empty(len(samples))
    # Float columns, N_T too: an int array cannot take a negative integer
    # exponent.  None (no gap, single layer) becomes NaN and is never read.
    columns = [np.array(v, dtype=float) for v in (c.D1, c.D2, c.d1, c.d2, c.w, c.s, c.NT)]
    gaps = np.array(c.gap, dtype=float)
    layer_counts = np.unique(layers).tolist()
    # The kernel takes one layer count per call.
    for nl in layer_counts:
        rows = layers == nl
        L_model[rows] = inductance_from_dims(
            *(column[rows] for column in columns), nl,
            gaps[rows] if nl > 1 else None, coefficients=coefficients,
        )
    require_in_range(L_model)
    L_ref = np.array(c.L_ref)
    errors = (L_ref - L_model) / L_ref * 100.0
    exceedance = {
        nl: int(np.sum((np.abs(errors) > threshold_pct) & (layers == nl)))
        for nl in layer_counts
    }
    return FitReport(
        coefficients=coefficients,
        mean_error_pct=float(errors.mean()),
        std_error_pct=float(errors.std()),
        mae_pct=float(np.abs(errors).mean()),
        threshold_pct=threshold_pct,
        histogram=_histogram(errors, bin_width_pct),
        exceedance_by_NL=exceedance,
        n_eval=len(samples),
    )


def fit_and_evaluate(
    samples: Sequence[Sample],
    fraction: float = 0.8,
    seed: int = 0,
    threshold_pct: float = 5.0,
    bin_width_pct: float = 0.5,
) -> tuple[CoefficientSet, FitReport]:
    """Split, fit on the training side, evaluate on the held-out side."""
    _check_report_settings(threshold_pct, bin_width_pct)
    split = split_train_eval(samples, fraction, seed)
    train = [samples[i] for i in split.train]
    held_out = [samples[i] for i in split.eval]
    X, y = build_design_matrix(train)
    coefficients = fit_ols(X, y, label=f"ols seed={seed} n_train={len(train)}")
    report = evaluate(held_out, coefficients, threshold_pct, bin_width_pct)
    report = replace(report, n_train=len(train), seed=seed, repeats=1)
    return coefficients, report


@dataclass(frozen=True)
class CoefficientDispersion:
    """Per-coefficient mean, population std and max-min spread across repeats."""

    mean: dict
    std: dict
    spread: dict

    def to_mapping(self) -> dict:
        return {"mean": dict(self.mean), "std": dict(self.std), "spread": dict(self.spread)}


def repeated_fit(
    samples: Sequence[Sample],
    fraction: float = 0.8,
    base_seed: int = 0,
    repeats: int = 1,
    threshold_pct: float = 5.0,
    bin_width_pct: float = 0.5,
) -> tuple[list[tuple[CoefficientSet, FitReport]], CoefficientDispersion]:
    """Repeat the split-fit-evaluate cycle with derived seeds.

    Repeat i uses seed base_seed + i.  The dispersion summary shows how much
    the recovered coefficients move with the split, which is the cheap check
    that a fit is not an artifact of one particular shuffle.
    """
    if not (is_integer(repeats) and repeats >= 1):
        raise ValueError(f"repeats must be an integer >= 1, got {repeats!r}")
    results = []
    for i in range(repeats):
        coefficients, report = fit_and_evaluate(
            samples, fraction, base_seed + i, threshold_pct, bin_width_pct
        )
        report = replace(report, repeats=int(repeats))
        results.append((coefficients, report))
    stacked = np.array([c.as_tuple() for c, _ in results])
    dispersion = CoefficientDispersion(
        mean={name: float(v) for name, v in zip(COEFFICIENT_NAMES, stacked.mean(axis=0))},
        std={name: float(v) for name, v in zip(COEFFICIENT_NAMES, stacked.std(axis=0))},
        spread={name: float(v) for name, v in
                zip(COEFFICIENT_NAMES, stacked.max(axis=0) - stacked.min(axis=0))},
    )
    return results, dispersion
