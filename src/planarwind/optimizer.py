"""Inductance maximization over a bounded box of winding dimensions.

The design task: choose (D1, D2, w, s, N_T) inside per-variable bounds,
with the derived inner sides d1, d2 also bounded and D1 < D2 strictly, to
maximize the monomial inductance model at fixed N_L and layer gap.

The inner sides are substituted, never free variables: d_i = D_i
- 2*N_T*(w + s) + 2*s turns their bounds into linear constraints on
(D1, D2, w, s) once N_T is fixed.  The integer N_T is enumerated (the
domain is small), and each (N_T, restart) pair runs a bound-constrained
local maximizer from a seeded random start inside the box; the pairs are
independent, so they run in forked worker processes.  A grid-scan oracle
provides an independent check of the same problem.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import fmin_slsqp

from .estimator import DEFAULT_COEFFICIENTS, CoefficientSet, inductance, inductance_from_dims
from .geometry import WindingGeometry, inner_side, is_integer
from .units import h_to_uh, json_field, json_keys, m_to_mm, mm_to_m

BOUND_KEYS = ("D1", "D2", "d1", "d2", "w", "s")

# Margin enforcing the strict inequality D1 < D2 in the continuous solver.
_STRICT_MARGIN = 1e-6  # m

# Keeps the objective defined when an iterate wanders outside feasibility.
_TINY = 1e-9  # m


class InfeasibleProblemError(ValueError):
    """No feasible point exists on the searched set."""


@dataclass(frozen=True)
class OptimizationProblem:
    """Bounded inductance-maximization task, SI units.

    bounds maps each of D1, D2, d1, d2, w, s to (lower, upper) in meters;
    the d bounds apply to the derived inner sides.  N_L and the layer gap
    are fixed, not searched.
    """

    bounds: Mapping[str, tuple[float, float]]
    NT_domain: tuple[int, ...]
    n_layers: int
    layer_gap: Optional[float]
    coefficients: CoefficientSet = DEFAULT_COEFFICIENTS

    def __post_init__(self) -> None:
        json_keys("bounds", self.bounds, BOUND_KEYS)
        for key in BOUND_KEYS:
            lo, hi = self.bounds[key]
            if not hi < math.inf:
                raise ValueError(f"upper bound for {key} must be finite, got {hi}")
            if not lo <= hi:
                raise ValueError(f"bounds for {key} are inverted: ({lo}, {hi})")
            if key in ("d1", "d2"):
                if lo < 0:
                    raise ValueError(f"lower bound for {key} must not be negative, got {lo}")
            elif lo <= 0:
                raise ValueError(f"lower bound for {key} must be positive, got {lo}")
        if len(self.NT_domain) == 0:
            raise ValueError("NT_domain must not be empty")
        if not all(is_integer(nt) and nt >= 1 for nt in self.NT_domain):
            raise ValueError(f"NT_domain must be positive integers, got {self.NT_domain}")
        object.__setattr__(self, "NT_domain", tuple(sorted(set(int(nt) for nt in self.NT_domain))))
        if not (is_integer(self.n_layers) and self.n_layers >= 1):
            raise ValueError(f"n_layers must be an integer >= 1, got {self.n_layers!r}")
        if self.n_layers == 1:
            object.__setattr__(self, "layer_gap", None)
        elif self.layer_gap is None or not 0 < self.layer_gap < math.inf:
            raise ValueError(
                f"a positive, finite layer_gap is required for n_layers={self.n_layers}"
            )

    def to_mapping(self) -> dict:
        # Bounds are authored in mm; rounding to 1e-9 mm strips the
        # unit-conversion dust so the mapping round-trips exactly.
        out = {
            key: [round(m_to_mm(self.bounds[key][0]), 9), round(m_to_mm(self.bounds[key][1]), 9)]
            for key in BOUND_KEYS
        }
        out["NT"] = list(self.NT_domain)
        out["NL"] = self.n_layers
        if self.layer_gap is not None:
            out["O_mm"] = round(m_to_mm(self.layer_gap), 9)
        out["coefficients"] = self.coefficients.to_mapping()
        return out

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "OptimizationProblem":
        json_keys("problem", mapping, (*BOUND_KEYS, "NT"), ("NL", "O_mm", "coefficients"))
        bounds = {}
        for key in BOUND_KEYS:
            pair = mapping[key]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"bounds for {key} must be a [lower, upper] pair, got {pair!r}")
            bounds[key] = tuple(mm_to_m(json_field(key, v, "number")) for v in pair)
        gap = None
        if "O_mm" in mapping:
            gap = mm_to_m(json_field("O_mm", mapping["O_mm"], "number"))
        coefficients = DEFAULT_COEFFICIENTS
        if "coefficients" in mapping:
            coefficients = CoefficientSet.from_mapping(
                json_field("coefficients", mapping["coefficients"], "object")
            )
        turns = json_field("NT", mapping["NT"], "list")
        problem = cls(
            bounds=bounds,
            NT_domain=tuple(json_field("NT", nt, "integer") for nt in turns),
            n_layers=json_field("NL", mapping.get("NL", 1), "integer"),
            layer_gap=gap,
            coefficients=coefficients,
        )
        # The constructor drops a single layer's gap; in a file it is a mistake.
        if problem.n_layers == 1 and gap is not None:
            raise ValueError(f"problem has O_mm, which needs NL >= 2, but "
                             f"{'NL is 1' if 'NL' in mapping else 'no NL'}")
        return problem


def default_problem() -> OptimizationProblem:
    """Reference design task: the standard bounded box, four layers."""
    return OptimizationProblem(
        bounds={
            "D1": (mm_to_m(12.0), mm_to_m(54.0)),
            "D2": (mm_to_m(55.0), mm_to_m(101.0)),
            "d1": (mm_to_m(10.5), mm_to_m(52.0)),
            "d2": (mm_to_m(54.0), mm_to_m(99.0)),
            "w": (mm_to_m(2.5), mm_to_m(5.0)),
            "s": (mm_to_m(0.1), mm_to_m(1.0)),
        },
        NT_domain=(3, 4, 5, 6, 7, 8, 9, 10),
        n_layers=4,
        layer_gap=mm_to_m(0.5),
    )


DEFAULT_RESOLUTION = {
    "D1": mm_to_m(0.5),
    "D2": mm_to_m(0.5),
    "w": mm_to_m(0.1),
    "s": mm_to_m(0.1),
}


# The oracle peaks near 6.4 float64 values per point of its larger side grid:
# about 190 MB RSS at 2**21 points, 87x the reference box's default side grid.
MAX_GRID_POINTS = 2 ** 21


def oracle_steps(
    problem: OptimizationProblem, resolution: Optional[Mapping[str, float]] = None
) -> dict[str, float]:
    """The oracle's grid steps (m): DEFAULT_RESOLUTION with the given ones in place.

    The one rule for a valid resolution.  Keys are D1, D2, w and s, and a
    step must be finite and positive once rounded to the nanometer grid
    on which :func:`brute_force_max` lays out its axes.  The larger side
    grid, (D1, w, s) or (D2, w, s), may then have at most MAX_GRID_POINTS
    points; the count comes from that layout, before anything is allocated.

    Raises:
        ValueError: for an unknown key, a step outside that rule, or a
            grid above the limit.
    """
    steps = dict(DEFAULT_RESOLUTION)
    for key, value in (resolution or {}).items():
        if key not in steps:
            raise ValueError(f"unknown resolution key {key!r}, expected one of {tuple(steps)}")
        step = float(value)
        if not 0.0 < round(m_to_mm(step), 6) < math.inf:
            raise ValueError(
                f"resolution step for {key} must be positive and finite at 1 nm, got {step} m"
            )
        steps[key] = step
    n = {key: _axis_layout(*problem.bounds[key], steps[key])[3] for key in steps}
    points = max(n["D1"], n["D2"]) * n["w"] * n["s"]
    if points > MAX_GRID_POINTS:
        raise ValueError(f"the oracle's larger side grid has {points} (D, w, s) points, "
                         f"above the limit of {MAX_GRID_POINTS}")
    return steps


def feasible(
    candidate: Sequence[float], problem: OptimizationProblem
) -> tuple[bool, float, float]:
    """Exact feasibility of a (D1, D2, w, s, N_T) candidate.

    Checks every bound including the derived inner sides, strict D1 < D2,
    and N_T membership.  Returns (ok, d1, d2) with the derived sides
    reported even when infeasible.
    """
    D1, D2, w, s, nt = candidate
    d1 = inner_side(D1, nt, w, s)
    d2 = inner_side(D2, nt, w, s)
    b = problem.bounds
    ok = (
        int(nt) in problem.NT_domain
        and D1 < D2
        and d1 > 0.0
        and d2 > 0.0
        and b["D1"][0] <= D1 <= b["D1"][1]
        and b["D2"][0] <= D2 <= b["D2"][1]
        and b["w"][0] <= w <= b["w"][1]
        and b["s"][0] <= s <= b["s"][1]
        and b["d1"][0] <= d1 <= b["d1"][1]
        and b["d2"][0] <= d2 <= b["d2"][1]
    )
    return ok, d1, d2


@dataclass(frozen=True)
class RestartRecord:
    """One local search: start, converged point, value if feasible.

    For an N_T that :func:`maximize` skips because no point of the box can
    be feasible at it, the record runs no search: point equals start,
    value is None and feasible is False.
    """

    n_turns: int
    index: int
    start: tuple[float, float, float, float]
    point: tuple[float, float, float, float]
    value: Optional[float]
    feasible: bool

    def to_mapping(self) -> dict:
        return {
            "N_T": self.n_turns,
            "index": self.index,
            "start_mm": [m_to_mm(v) for v in self.start],
            "point_mm": [m_to_mm(v) for v in self.point],
            "L_uH": h_to_uh(self.value) if self.value is not None else None,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """Best feasible winding found, with the search log."""

    best: Optional[WindingGeometry]
    L_best: Optional[float]
    restarts: tuple[RestartRecord, ...]

    @property
    def restarts_run(self) -> int:
        return len(self.restarts)

    @property
    def feasible_found(self) -> bool:
        return self.best is not None

    def to_mapping(self) -> dict:
        best = None
        if self.best is not None:
            g = self.best
            best = {
                "D1_mm": m_to_mm(g.D1),
                "D2_mm": m_to_mm(g.D2),
                "d1_mm": m_to_mm(g.d1),
                "d2_mm": m_to_mm(g.d2),
                "w_mm": m_to_mm(g.w),
                "s_mm": m_to_mm(g.s),
                "N_T": g.n_turns,
                "N_L": g.n_layers,
                "O_mm": m_to_mm(g.layer_gap) if g.layer_gap is not None else None,
            }
        return {
            "best": best,
            "L_best_uH": h_to_uh(self.L_best) if self.L_best is not None else None,
            "restarts_run": self.restarts_run,
            "feasible_found": self.feasible_found,
            "restarts": [record.to_mapping() for record in self.restarts],
        }


def _box(problem: OptimizationProblem) -> tuple[np.ndarray, np.ndarray]:
    b = problem.bounds
    lo = np.array([b["D1"][0], b["D2"][0], b["w"][0], b["s"][0]])
    hi = np.array([b["D1"][1], b["D2"][1], b["w"][1], b["s"][1]])
    return lo, hi


def _objective(problem: OptimizationProblem, nt: int):
    """The value and the exact gradient of -log10 L at x = (D1, D2, w, s)."""
    c = problem.coefficients
    # d(-log10 L) = -d(ln L) / ln 10.
    scale = -1.0 / math.log(10.0)
    dd_ds = -(2.0 * nt - 2.0)

    def clamped(x):
        # Clamps keep the value defined at infeasible iterates; the linear
        # d constraints pull the solver back regardless.
        D1, D2, w, s = (max(v, _TINY) for v in x)
        return D1, D2, w, s, inner_side(D1, nt, w, s), inner_side(D2, nt, w, s)

    def negative_log_inductance(x):
        D1, D2, w, s, raw1, raw2 = clamped(x)
        L = inductance_from_dims(
            D1, D2, max(raw1, _TINY), max(raw2, _TINY), w, s, nt,
            problem.n_layers, problem.layer_gap, coefficients=c,
        )
        # An underflow is +inf, as an overflow is -inf, so no iterate stops the
        # search; the range rule applies where a value is reported.
        return -math.log10(L) if L != 0.0 else math.inf

    def gradient(x):
        D1, D2, w, s, raw1, raw2 = clamped(x)
        # ln L = a1 ln D1 + a2 ln D2 + a3 ln(D1 + d1) + a4 ln(D2 + d2)
        # + a5 ln w + a6 ln s + const, where d_i follows D_i, w and s
        # unless its clamp holds it at _TINY.  A clamped input has zero
        # derivative, and so has everything that reaches x through it.
        m1 = c.a3 / (D1 + max(raw1, _TINY))
        m2 = c.a4 / (D2 + max(raw2, _TINY))
        k1 = m1 if raw1 > _TINY else 0.0
        k2 = m2 if raw2 > _TINY else 0.0
        inner = k1 + k2
        grad = np.array([
            c.a1 / D1 + m1 + k1 if x[0] > _TINY else 0.0,
            c.a2 / D2 + m2 + k2 if x[1] > _TINY else 0.0,
            c.a5 / w - 2.0 * nt * inner if x[2] > _TINY else 0.0,
            c.a6 / s + dd_ds * inner if x[3] > _TINY else 0.0,
        ])
        return scale * grad

    return negative_log_inductance, gradient


def _linear_system(problem: OptimizationProblem, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows A and floors b of the linear constraints A x >= b at fixed N_T.

    Rows, on x = (D1, D2, w, s): d1 lower and upper, d2 lower and upper,
    then D2 - D1.  The floors are the ones :func:`feasible` applies; the
    last is 0, and the solver adds ``_STRICT_MARGIN`` to it.
    """
    b = problem.bounds
    # d_i = D_i - 2*nt*w - (2*nt - 2)*s is linear in x.
    turns = (-2.0 * nt, -(2.0 * nt - 2.0))
    d1 = np.array([1.0, 0.0, *turns])
    d2 = np.array([0.0, 1.0, *turns])
    A = np.array([d1, -d1, d2, -d2, [-1.0, 1.0, 0.0, 0.0]])
    floor = np.array([b["d1"][0], -b["d1"][1], b["d2"][0], -b["d2"][1], 0.0])
    return A, floor


def _provably_empty(A: np.ndarray, floor: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """True only if some row of A x >= floor fails at every x in [lo, hi].

    A row's maximum over the box sits at the corner that takes hi where
    the row's coefficient is positive and lo elsewhere.  The row max is
    rounded, and so is the d_i that :func:`feasible` computes, so a row
    counts as violated only when it misses its floor by more than a
    relative 1e-12 of the magnitudes involved; that keeps the verdict
    sound under rounding.
    """
    row_max = np.where(A > 0.0, A * hi, A * lo).sum(axis=1)
    magnitude = (np.abs(A) * np.maximum(np.abs(lo), np.abs(hi))).sum(axis=1) + np.abs(floor)
    return bool(np.any(row_max < floor - 1e-12 * magnitude))


def _better(value, point, best_value, best_point) -> bool:
    if best_value is None or value > best_value:
        return True
    return value == best_value and point < best_point


def _result(problem: OptimizationProblem, best_point, records) -> OptimizationResult:
    """The result of a search: its best (D1, D2, w, s, N_T), if any, and its log."""
    best = None if best_point is None else WindingGeometry(
        *best_point, problem.n_layers, problem.layer_gap,
    )
    return OptimizationResult(
        best=best,
        L_best=inductance(best, problem.coefficients) if best is not None else None,
        restarts=tuple(records),
    )


def _search(
    problem: OptimizationProblem, nt: int, indices: range, seed: int, empty: bool
) -> list[RestartRecord]:
    """The restarts ``indices`` of turn count ``nt``, as records in index order.

    Each restart draws its start from (seed, nt, index) alone, so a restart
    gives the same record whichever search, process or order runs it.  With
    ``empty``, the verdict of :func:`_provably_empty` on ``nt``, no restart
    runs SLSQP.
    """
    lo, hi = _box(problem)
    bounds = list(zip(lo, hi))
    A, floor = _linear_system(problem, nt)
    rhs = floor + np.array([0.0, 0.0, 0.0, 0.0, _STRICT_MARGIN])
    objective, gradient = _objective(problem, nt)
    records = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Values in x were outside bounds")
        for index in indices:
            start = np.random.default_rng([seed, nt, index]).uniform(lo, hi)
            x = start
            if not empty:
                x = np.clip(fmin_slsqp(objective, start, f_ieqcons=lambda x: A @ x - rhs,
                                       fprime=gradient, fprime_ieqcons=lambda x: A,
                                       bounds=bounds, iter=200, acc=1e-12, iprint=0), lo, hi)
                # A coordinate on an active bound carries arithmetic dust
                # from the solver; snap it to the bound exactly.
                for bound in (lo, hi):
                    x = np.where(np.abs(x - bound) <= 1e-9 * np.abs(bound), bound, x)
            point = (*x.tolist(), nt)
            ok = not empty and feasible(point, problem)[0]
            value = inductance(WindingGeometry(*point, problem.n_layers, problem.layer_gap),
                               problem.coefficients) if ok else None
            records.append(RestartRecord(nt, index, tuple(start.tolist()), point[:4], value, ok))
    return records


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def maximize(
    problem: OptimizationProblem, restarts: int = 100, seed: int = 0
) -> OptimizationResult:
    """Multi-start local maximization of inductance over the bounded box.

    For each N_T in the domain, runs ``restarts`` local searches from
    uniform random starts inside the (D1, D2, w, s) box, each seeded by
    (seed, N_T, restart index) so results are deterministic and the first
    k restarts of a longer run equal a k-restart run.  Converged points
    are clipped to the box and checked exactly for feasibility.  A
    feasible one is scored as the best is, by :func:`inductance` on its
    :class:`WindingGeometry`, so an L outside (0, inf), an underflow to
    0.0 included, raises OverflowError; the scores reduce to an incumbent
    in a fixed order with a lexicographic tie-break, so the outcome does
    not depend on evaluation order.

    SLSQP gets exact derivatives: the gradient of -log10 L in closed form
    (zero in any coordinate a _TINY clamp holds; at an iterate where L
    underflows to 0.0 the value is +inf), and the constant matrix
    of the linear constraints A x >= b on the inner sides and D1 < D2.
    Before its restarts, an N_T is skipped when some row of A x >= b
    misses its floor everywhere in the box, which proves that no point
    :func:`feasible` accepts exists at it.  A skipped N_T still logs one
    record per restart index, with the seeded start as its point, no value
    and feasible False, so restarts_run and the prefix property hold.

    Where the restarts run: those of each N_T are split into one
    contiguous run of indices per CPU this process may use
    (``os.sched_getaffinity``), at most one run per restart.  The skip
    verdicts are taken here, once per N_T, and the runs go to forked
    worker processes, one per CPU but no more than there are runs of an
    N_T that is not skipped.  The workers end before this returns.  With
    one CPU, with at most one such run, or on a platform without ``fork``,
    the runs go in order in this process.  Either way the records come
    back in (N_T, index) order and the result is the same, byte for byte,
    at a given BLAS thread count: SLSQP's linear algebra can end a restart
    at another point with one OpenBLAS thread than with two, and OpenBLAS
    takes its thread count from the CPUs this process may use unless
    ``OPENBLAS_NUM_THREADS`` sets it.  An error in a worker, such as the
    OverflowError above, is raised here with its own type and message.
    Python 3.12 and later emit a DeprecationWarning when they fork a
    process that has threads.

    Returns a result with feasible_found False if no restart produced a
    feasible point.
    """
    if not (is_integer(restarts) and restarts >= 1):
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    restarts = int(restarts)
    cpus = _cpus()
    parts = min(cpus, restarts)
    lo, hi = _box(problem)
    empty = {nt: _provably_empty(*_linear_system(problem, nt), lo, hi) for nt in problem.NT_domain}
    searches = [(problem, nt, range(restarts * k // parts, restarts * (k + 1) // parts), seed,
                 empty[nt]) for nt in problem.NT_domain for k in range(parts)]
    found = map(_search, *zip(*searches))
    # Only the runs of an N_T that is not skipped are worth a worker.
    workers = min(cpus, parts * sum(not skip for skip in empty.values()))
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                found = list(pool.map(_search, *zip(*searches)))
            finally:
                # Joins every worker; after an error, searches not yet started never run.
                pool.shutdown(cancel_futures=True)
    records = [record for part in found for record in part]
    best_value = best_point = None
    for r in records:
        point = (*r.point, r.n_turns)
        if r.feasible and _better(r.value, point, best_value, best_point):
            best_value, best_point = r.value, point
    return _result(problem, best_point, records)


def _axis_layout(lo_m: float, hi_m: float, step_m: float) -> tuple[float, float, float, int]:
    # Axes are laid out in mm and snapped to nm so grid points stay the
    # clean decimals the bounds were written with.
    lo = round(m_to_mm(lo_m), 6)
    hi = round(m_to_mm(hi_m), 6)
    step = round(m_to_mm(step_m), 6)
    return lo, hi, step, int(math.floor((hi - lo) / step + 1e-9)) + 1


def _axis(lo_m: float, hi_m: float, step_m: float) -> np.ndarray:
    lo, hi, step, count = _axis_layout(lo_m, hi_m, step_m)
    values_mm = np.round(lo + step * np.arange(count), 6)
    return values_mm[values_mm <= hi + 1e-9] * 1e-3


def brute_force_max(
    problem: OptimizationProblem,
    resolution: Optional[Mapping[str, float]] = None,
) -> OptimizationResult:
    """Exhaustive grid scan of the box, the oracle for :func:`maximize`.

    Evaluates every grid point of the (D1, D2, w, s) box at the given
    per-variable steps (meters) for every N_T, filters by the same
    feasibility rules as :func:`feasible`, and returns the exact argmax
    with a deterministic lexicographic tie-break on (D1, D2, w, s, N_T).

    The model is a product of powers in which d1 depends only on
    (D1, w, s) and d2 only on (D2, w, s).  So, per N_T, F1 on the
    (D1, w, s) grid and F2 on (D2, w, s) come from the one kernel,
    :func:`inductance_from_dims`, with the other side's arguments at 1.0,
    which drop out (1.0 ** a == 1.0, mean_side(1.0, 1.0) == 1.0); F1 * F2
    is L times a0 * mu0.  F1 is -inf where d1 breaks its rule (d > 0 and
    the d bounds), so even a feasible factor that underflowed to 0 beats
    it.  The D1 values below D2[j] are a prefix of the D1 axis, so the best
    L at (D2[j], w, s) is F2 times the running maximum of F1 at the end of
    that prefix, first reached at the lowest D1 that ties.  No array spans
    (D1, D2, w, s).

    Raises:
        ValueError: if resolution breaks the rule of :func:`oracle_steps`.
        InfeasibleProblemError: if no grid point is feasible.
        OverflowError: if L at a feasible grid point is not finite, or if
            the best L is not in (0, inf), as :func:`inductance` decides.
    """
    steps = oracle_steps(problem, resolution)
    b = problem.bounds
    c = problem.coefficients
    D1, D2, w, s = (_axis(*b[key], steps[key]) for key in ("D1", "D2", "w", "s"))
    # D1[:last[j] + 1] are the D1 values below D2[j]; a D2 with none has no feasible point.
    D2 = D2[D2 > D1[0]]
    last = np.searchsorted(D1, D2) - 1
    D1_, D2_, w_, s_ = D1[:, None, None], D2[:, None, None], w[None, :, None], s[None, None, :]

    def best_at(nt: int):
        # The best (L, point) at one N_T, or None; its arrays die on return.
        d1 = inner_side(D1_, nt, w_, s_)
        d2 = inner_side(D2_, nt, w_, s_)
        ok1 = (d1 > 0.0) & (d1 >= b["d1"][0]) & (d1 <= b["d1"][1])
        ok2 = (d2 > 0.0) & (d2 >= b["d2"][0]) & (d2 <= b["d2"][1])
        if not (ok1.any() and ok2.any()):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            F1 = np.maximum.accumulate(np.where(ok1, inductance_from_dims(
                D1_, 1.0, np.maximum(d1, _TINY, out=d1), 1.0, 1.0, 1.0, 1, 1, None, coefficients=c,
            ), -np.inf), axis=0)
            F2 = inductance_from_dims(
                1.0, D2_, 1.0, np.maximum(d2, _TINY, out=d2), w_, s_,
                nt, problem.n_layers, problem.layer_gap, coefficients=c,
            )
            # The first D1 at which each running maximum is reached (row 0: D1[0] either way).
            first = np.maximum.accumulate(np.where(F1 > np.roll(F1, 1, axis=0), D1_, D1[0]), axis=0)
            F1 = F1[last]
            L = np.multiply(F1, F2, out=np.full(F2.shape, -np.inf), where=ok2 & (F1 != -np.inf))
        value = float(L.max())
        if value == -math.inf:
            return None
        if not value < math.inf:
            raise OverflowError(f"the model is not finite at a feasible grid point, N_T = {nt}")
        j, k, m = np.nonzero(L == value)
        x = first[last[j], k, m]
        n = int(np.argmin(x))
        return value, (float(x[n]), float(D2[j[n]]), float(w[k[n]]), float(s[m[n]]), nt)

    best_value = None
    best_point = None
    for value, point in filter(None, map(best_at, problem.NT_domain)):
        if _better(value, point, best_value, best_point):
            best_value, best_point = value, point
    if best_point is None:
        raise InfeasibleProblemError(
            "no feasible grid point in the box at this resolution"
        )
    return _result(problem, best_point, ())
