"""Fitting the monomial model to labeled windings, and error reporting.

Taking log10 of the model turns it into a linear relation

    log10(L) = c0 + a1*log10(D1) + ... + a8*log10(N_L) + a9*(N_L-1)*log10(O)

with intercept c0 = log10(a0 * mu0), so the coefficients follow from
ordinary least squares on a design matrix of logged dimensions.  The layer
gap enters through the single regressor x9 = (N_L - 1) * log10(O), which is
exactly zero for single-layer rows (where no gap exists).  A row depends only
on its own winding, so :func:`repeated_fit` builds one design matrix per
corpus and takes each split's training rows from it.  The design matrix
and :func:`evaluate` start from one read of the samples into columns, each
field of each sample read once; N_L stays exact, as its distinct counts
(Python ints) and each row's index into them.  A corpus from a parameter
sweep holds a few values per dimension, so the design matrix takes one
log10 per distinct value of each dimension column, count and gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dataset import Sample, split_train_eval
from .estimator import COEFFICIENT_NAMES, MU0, CoefficientSet, require_in_range
from .estimator import inductance_from_dims
from .geometry import inner_side, is_integer, mean_side

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


def _columns(samples: Sequence[Sample]):
    """The samples' fields as arrays, each field of each sample read once.

    Returns (D1, D2, d1, d2, w, s, N_T), the gaps (NaN for one layer) and
    L_ref as float arrays, then the distinct N_L in ascending order, the
    Python ints themselves, and each row's index into them.  The inner
    sides come from :func:`inner_side` on the columns, the same operations
    in the same order as a winding's own d1 and d2, so every value is
    bit-identical to theirs.  N_T is a float column: an int array cannot
    take a negative integer exponent.
    """
    n = len(samples)
    geometries = [sample.geometry for sample in samples]
    # np.fromiter takes None, the gap of a single layer, as NaN.
    D1, D2, w, s, n_turns, gaps = (np.fromiter(values, float, n) for values in (
        (g.D1 for g in geometries), (g.D2 for g in geometries), (g.w for g in geometries),
        (g.s for g in geometries), (g.n_turns for g in geometries),
        (g.layer_gap for g in geometries),
    ))
    L_ref = np.fromiter((sample.L_ref for sample in samples), float, n)
    layers = [g.n_layers for g in geometries]
    counts = sorted(set(layers))
    index = np.fromiter(map({nl: k for k, nl in enumerate(counts)}.__getitem__, layers), np.intp, n)
    d1, d2 = inner_side(D1, n_turns, w, s), inner_side(D2, n_turns, w, s)
    return (D1, D2, d1, d2, w, s, n_turns), gaps, L_ref, counts, index


def _log10_by_value(values: np.ndarray) -> np.ndarray:
    """math.log10 of each value, called once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.fromiter(map(math.log10, distinct.tolist()), float, distinct.size)[inverse]


def build_design_matrix(samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix (with leading intercept column) and response vector.

    Row i holds, after the intercept, log10 of D1, D2, Dbar1, Dbar2, w, s,
    N_T and N_L of sample i, then (N_L - 1) * log10(O), exactly 0 for a
    single layer; y[i] is log10 of its label.  Logs are taken with
    math.log10, which np.log10 does not match in the last bit: once per
    distinct value for the eight dimension columns and the gap, which hold
    a few values each in a corpus from a parameter sweep, and once per row
    for the label.  N_L - 1 is converted to a float once per distinct count.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    (D1, D2, d1, d2, w, s, n_turns), gaps, L_ref, counts, index = _columns(samples)
    bad = np.flatnonzero(~((L_ref > 0.0) & np.isfinite(L_ref)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"sample {i}: L_ref must be positive and finite, got {samples[i].L_ref}")
    X = np.empty((n, len(FEATURE_NAMES)))
    X[:, 0] = 1.0
    for j, values in enumerate((D1, D2, mean_side(D1, d1), mean_side(D2, d2), w, s, n_turns), 1):
        X[:, j] = _log10_by_value(values)
    # math.log10 of a count and float(N_L - 1) take the exact int, as the
    # per-row math.log10(N_L) and (N_L - 1) * log10(O) do.
    X[:, 8] = np.fromiter(map(math.log10, counts), float, len(counts))[index]
    steps = np.array([float(nl - 1) for nl in counts])[index]
    X[:, 9] = np.where(steps > 0.0, steps * _log10_by_value(gaps), 0.0)
    y = np.fromiter(map(math.log10, L_ref.tolist()), float, n)
    return X, y


def fit_ols(X: np.ndarray, y: np.ndarray, label: str = "ols") -> CoefficientSet:
    """Least-squares coefficients from a design matrix.

    Solves min ||X c - y|| via SVD and maps the intercept back to the
    prefactor, a0 = 10**c0 / mu0.

    Raises:
        ValueError: on shape mismatch or too few rows to identify the model.
        RankDeficiencyError: if the columns are linearly dependent; the
            error names the dependent columns, found by pivoted QR.
        FloatingPointError: if the solver fails (NumPy's LinAlgError, chained).
        OverflowError: if a0 is outside (0, inf).
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
    try:
        solution, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise FloatingPointError(str(exc)) from exc
    if rank < X.shape[1]:
        from scipy.linalg import qr

        _, _, pivots = qr(X, mode="economic", pivoting=True)
        dependent = sorted(FEATURE_NAMES[j] for j in pivots[rank:])
        raise RankDeficiencyError(rank, dependent)
    # Column j of X carries a_j (FEATURE_NAMES); the intercept gives a0.
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = float(10.0 ** solution[0] / MU0)
    if not 0.0 < a0 < math.inf:
        raise OverflowError(f"the fitted a0 = {a0}")
    return CoefficientSet(a0, *solution[1:].tolist(), label=label)


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


# A report holds about 60 bytes of JSON per bin: about 60 MB at the limit.
MAX_HISTOGRAM_BINS = 2 ** 20


def _histogram(errors: np.ndarray, bin_width_pct: float) -> tuple[tuple[float, float, int], ...]:
    # Bin k is centered at k * width; assignment is half-open on the right.
    k = np.floor(errors / bin_width_pct + 0.5)
    # Counted in floats, before any cast or allocation, so that an inf or NaN
    # count fails the limit too.
    kmin, kmax = float(k.min()), float(k.max())
    bins = kmax - kmin + 1.0
    if not bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"the error histogram has {bins:.0f} bins of {bin_width_pct}%, above the limit "
            f"of {MAX_HISTOGRAM_BINS}; a larger --bin-width gives fewer"
        )
    # From 2**52 on, k - 0.5 and k + 0.5 round to one float: a bin with no width.
    reach = max(-kmin, kmax)
    if not reach < 2.0 ** 52:
        raise ValueError(
            f"the error histogram has a bin {reach:.0f} widths of {bin_width_pct}% from 0, "
            f"where its edges round to one float; a larger --bin-width gives fewer widths"
        )
    # Offsets below the limit are exact in floats, whatever the size of k.
    counts = np.bincount((k - kmin).astype(int), minlength=int(bins))
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


# A value out of the float range is raised by a check, so NumPy need not warn of it.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(
    samples: Sequence[Sample],
    coefficients: CoefficientSet,
    threshold_pct: float = 5.0,
    bin_width_pct: float = 0.5,
) -> FitReport:
    """Error statistics of a coefficient set on labeled windings; model L must be in (0, inf).

    The array kernel runs once per distinct layer count, an int of any
    size, on that count's rows.

    Raises:
        OverflowError: for a model value outside (0, inf), or a mean, std or
            MAE of the errors that is not finite.
        ValueError: for no samples, settings out of range, or a histogram
            of more than MAX_HISTOGRAM_BINS bins or of bins 2**52 widths
            or more from 0, whose edges round together.
    """
    if len(samples) == 0:
        raise ValueError("no samples to evaluate")
    _check_report_settings(threshold_pct, bin_width_pct)
    dimensions, gaps, L_ref, counts, index = _columns(samples)
    L_model = np.empty(len(samples))
    # The kernel takes one layer count per call.
    for k, nl in enumerate(counts):
        rows = index == k
        L_model[rows] = inductance_from_dims(
            *(column[rows] for column in dimensions), nl,
            gaps[rows] if nl > 1 else None, coefficients=coefficients,
        )
    require_in_range(float(L_model.min()))
    require_in_range(float(L_model.max()))
    errors = (L_ref - L_model) / L_ref * 100.0
    mean, std, mae = float(errors.mean()), float(errors.std()), float(np.abs(errors).mean())
    # A model value far enough from its label overflows an error or a statistic of them.
    if not all(map(math.isfinite, (mean, std, mae))):
        raise OverflowError(
            f"the error statistics are not finite: mean {mean}%, std {std}%, MAE {mae}%"
        )
    exceeding = np.bincount(index[np.abs(errors) > threshold_pct], minlength=len(counts))
    return FitReport(
        coefficients=coefficients,
        mean_error_pct=mean,
        std_error_pct=std,
        mae_pct=mae,
        threshold_pct=threshold_pct,
        histogram=_histogram(errors, bin_width_pct),
        exceedance_by_NL=dict(zip(counts, exceeding.tolist())),
        n_eval=len(samples),
    )


def fit_and_evaluate(
    samples: Sequence[Sample],
    fraction: float = 0.8,
    seed: int = 0,
    threshold_pct: float = 5.0,
    bin_width_pct: float = 0.5,
) -> tuple[CoefficientSet, FitReport]:
    """One :func:`repeated_fit`: split, fit on the training side, evaluate on the other."""
    results, _ = repeated_fit(samples, fraction, seed, 1, threshold_pct, bin_width_pct)
    return results[0]


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

    Repeat i uses seed base_seed + i: it fits on its training rows of one
    design matrix of the whole corpus and evaluates on its held-out samples.
    The dispersion summary shows how much the recovered coefficients move
    with the split, which is the cheap check that a fit is not an artifact
    of one particular shuffle.

    Raises:
        OverflowError: as :func:`fit_ols` and :func:`evaluate` do, or for a
            mean, std or spread of the coefficients that is not finite.
    """
    if not (is_integer(repeats) and repeats >= 1):
        raise ValueError(f"repeats must be an integer >= 1, got {repeats!r}")
    _check_report_settings(threshold_pct, bin_width_pct)
    # A split fails only on the fraction and the corpus size, the same for
    # every seed: the first one raises that error before any log is taken.
    first = split_train_eval(samples, fraction, base_seed)
    # A row depends only on its own winding, so the rows of the whole corpus,
    # logged once, are those of each training side.
    X, y = build_design_matrix(samples)
    results = []
    for i in range(repeats):
        split = split_train_eval(samples, fraction, base_seed + i) if i else first
        train = np.array(split.train)
        coefficients = fit_ols(X[train], y[train],
                               label=f"ols seed={split.seed} n_train={train.size}")
        report = evaluate([samples[j] for j in split.eval], coefficients,
                          threshold_pct, bin_width_pct)
        report = replace(report, n_train=train.size, seed=split.seed, repeats=int(repeats))
        results.append((coefficients, report))
    stacked = np.array([c.as_tuple() for c, _ in results])
    with np.errstate(over="ignore", invalid="ignore"):
        statistics = {"mean": stacked.mean(axis=0), "std": stacked.std(axis=0),
                      "spread": stacked.max(axis=0) - stacked.min(axis=0)}
    summary = {}
    for statistic, values in statistics.items():
        summary[statistic] = dict(zip(COEFFICIENT_NAMES, values.tolist()))
        for name, value in summary[statistic].items():
            # Coefficients near the float limit, such as an a0 of 1e300, overflow their std.
            if not math.isfinite(value):
                raise OverflowError(
                    f"the coefficient dispersion is not finite: {statistic} {name} = {value}"
                )
    return results, CoefficientDispersion(**summary)
