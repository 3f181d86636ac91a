"""Inductance maximization over a bounded box of winding dimensions.

The design task: choose (D1, D2, w, s, N_T) inside per-variable bounds,
with the derived inner sides d1, d2 also bounded and D1 < D2 strictly, to
maximize the monomial inductance model at fixed N_L and layer gap.

The inner sides are substituted, never free variables: d_i = D_i
- 2*N_T*(w + s) + 2*s turns their bounds into linear constraints on
(D1, D2, w, s) once N_T is fixed.  The integer N_T is enumerated (the
domain is small), and each (N_T, restart) pair runs a bound-constrained
local maximizer from a seeded random start inside the box.  A grid-scan
oracle provides an independent check of the same problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

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
        problem = cls(
            bounds=bounds,
            NT_domain=json_field("NT", mapping["NT"], "list"),
            n_layers=mapping.get("NL", 1),
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


# The oracle holds one dense float64 array over each N_T's grid, the product
# of the side factors; 2**24 points (128 MB) is 8x the default grid on the
# reference box.
MAX_GRID_POINTS = 2 ** 24


def oracle_steps(
    problem: OptimizationProblem, resolution: Optional[Mapping[str, float]] = None
) -> dict[str, float]:
    """The oracle's grid steps (m): DEFAULT_RESOLUTION with the given ones in place.

    The one rule for a valid resolution.  Keys are D1, D2, w and s, and a
    step must be finite and positive once rounded to the nanometer grid
    on which :func:`brute_force_max` lays out its axes.  The grid on
    problem's box may then have at most MAX_GRID_POINTS points per N_T;
    the count comes from that axis layout, before anything is allocated.

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
    points = math.prod(_axis_layout(*problem.bounds[key], steps[key])[3] for key in steps)
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"the oracle grid has {points} points per N_T, above the limit of {MAX_GRID_POINTS}"
        )
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
    restarts_run: int
    feasible_found: bool
    restarts: tuple[RestartRecord, ...]

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
    c = problem.coefficients
    # d(-log10 L) = -d(ln L) / ln 10.
    scale = -1.0 / math.log(10.0)
    dd_ds = -(2.0 * nt - 2.0)

    def negative_log_inductance(x):
        """Value and exact gradient of -log10 L at x = (D1, D2, w, s)."""
        D1 = max(x[0], _TINY)
        D2 = max(x[1], _TINY)
        w = max(x[2], _TINY)
        s = max(x[3], _TINY)
        # Clamps keep the value defined at infeasible iterates; the linear
        # d constraints pull the solver back regardless.
        raw1 = inner_side(D1, nt, w, s)
        raw2 = inner_side(D2, nt, w, s)
        d1 = max(raw1, _TINY)
        d2 = max(raw2, _TINY)
        L = inductance_from_dims(
            D1, D2, d1, d2, w, s, nt, problem.n_layers, problem.layer_gap, coefficients=c
        )
        # ln L = a1 ln D1 + a2 ln D2 + a3 ln(D1 + d1) + a4 ln(D2 + d2)
        # + a5 ln w + a6 ln s + const, where d_i follows D_i, w and s
        # unless its clamp holds it at _TINY.  A clamped input has zero
        # derivative, and so has everything that reaches x through it.
        m1 = c.a3 / (D1 + d1)
        m2 = c.a4 / (D2 + d2)
        k1 = m1 if raw1 > _TINY else 0.0
        k2 = m2 if raw2 > _TINY else 0.0
        inner = k1 + k2
        grad = np.array([
            c.a1 / D1 + m1 + k1 if x[0] > _TINY else 0.0,
            c.a2 / D2 + m2 + k2 if x[1] > _TINY else 0.0,
            c.a5 / w - 2.0 * nt * inner if x[2] > _TINY else 0.0,
            c.a6 / s + dd_ds * inner if x[3] > _TINY else 0.0,
        ])
        return -math.log10(L), scale * grad

    return negative_log_inductance


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
        restarts_run=len(records),
        feasible_found=best is not None,
        restarts=tuple(records),
    )


def maximize(
    problem: OptimizationProblem, restarts: int = 100, seed: int = 0
) -> OptimizationResult:
    """Multi-start local maximization of inductance over the bounded box.

    For each N_T in the domain, runs ``restarts`` local searches from
    uniform random starts inside the (D1, D2, w, s) box, each seeded by
    (seed, N_T, restart index) so results are deterministic and the first
    k restarts of a longer run equal a k-restart run.  Converged points
    are clipped to the box, checked exactly for feasibility, and reduced
    to an incumbent in a fixed order with a lexicographic tie-break, so
    the outcome does not depend on evaluation order.

    SLSQP gets exact derivatives: the gradient of -log10 L in closed form
    (zero in any coordinate a _TINY clamp holds), and the constant matrix
    of the linear constraints A x >= b on the inner sides and D1 < D2.
    Before its restarts, an N_T is skipped when some row of A x >= b
    misses its floor everywhere in the box, which proves that no point
    :func:`feasible` accepts exists at it.  A skipped N_T still logs one
    record per restart index, with the seeded start as its point, no value
    and feasible False, so restarts_run and the prefix property hold.

    Returns a result with feasible_found False if no restart produced a
    feasible point.
    """
    if not (is_integer(restarts) and restarts >= 1):
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    lo, hi = _box(problem)
    bounds = list(zip(lo, hi))
    records = []
    best_value = None
    best_point = None
    for nt in problem.NT_domain:
        objective = _objective(problem, nt)
        A, floor = _linear_system(problem, nt)
        rhs = floor + np.array([0.0, 0.0, 0.0, 0.0, _STRICT_MARGIN])
        constraints = {"type": "ineq", "fun": lambda x, A=A, rhs=rhs: A @ x - rhs,
                       "jac": lambda x, A=A: A}
        empty = _provably_empty(A, floor, lo, hi)
        for index in range(restarts):
            rng = np.random.default_rng([seed, nt, index])
            start = rng.uniform(lo, hi)
            if empty:
                point = tuple(float(v) for v in start)
                records.append(RestartRecord(
                    n_turns=nt, index=index, start=point, point=point, value=None, feasible=False,
                ))
                continue
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", message="Values in x were outside bounds"
                )
                result = minimize(
                    objective,
                    start,
                    jac=True,
                    method="SLSQP",
                    bounds=bounds,
                    constraints=constraints,
                    options={"maxiter": 200, "ftol": 1e-12},
                )
            point = np.clip(result.x, lo, hi)
            # A coordinate on an active bound carries arithmetic dust from
            # the solver; snap it to the bound exactly.
            for bound in (lo, hi):
                near = np.abs(point - bound) <= 1e-9 * np.abs(bound)
                point = np.where(near, bound, point)
            candidate = (float(point[0]), float(point[1]), float(point[2]), float(point[3]), nt)
            ok, d1, d2 = feasible(candidate, problem)
            value = None
            if ok:
                value = float(inductance_from_dims(
                    candidate[0], candidate[1], d1, d2, candidate[2], candidate[3],
                    nt, problem.n_layers, problem.layer_gap,
                    coefficients=problem.coefficients,
                ))
                if _better(value, candidate, best_value, best_point):
                    best_value = value
                    best_point = candidate
            records.append(RestartRecord(
                n_turns=nt,
                index=index,
                start=tuple(float(v) for v in start),
                point=candidate[:4],
                value=value,
                feasible=ok,
            ))
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
    (D1, w, s) and d2 only on (D2, w, s).  So, per N_T, each side's factor
    is computed on its own 3-D grid: F1 on (D1, w, s) and F2 on (D2, w, s).
    Both come from the one kernel, :func:`inductance_from_dims`, with the
    other side's arguments set to 1.0; since 1.0 ** a == 1.0 and
    mean_side(1.0, 1.0) == 1.0, those factors drop out.  F1 * F2 is then
    L times the constant a0 * mu0, which moves no argmax.  Each side is 0
    where its own inner-side rule fails (d > 0 and the d bounds), and one
    dense product over (D1, D2, w, s), with D1 < D2 applied as a 2-D mask
    where it binds, is scanned by argmax; its first flat index keeps the
    lexicographic tie-break.  Feasibility is read from the masks, never
    from the product's value: should the argmax land off the feasible
    set, which happens only when every feasible product underflows to 0
    or one is not finite, the feasible points alone are scanned.

    Raises:
        ValueError: if resolution breaks the rule of :func:`oracle_steps`.
        InfeasibleProblemError: if no grid point is feasible.
    """
    steps = oracle_steps(problem, resolution)
    b = problem.bounds
    c = problem.coefficients
    D1, D2, w, s = (_axis(*b[key], steps[key]) for key in ("D1", "D2", "w", "s"))
    # Each side's grid is (D, w, s); the product's is (D1, D2, w, s).
    D1_, D2_, w_, s_ = D1[:, None, None], D2[:, None, None], w[None, :, None], s[None, None, :]
    below = D1[:, None] < D2[None, :]
    # One dense buffer, reused by every N_T.
    L = np.empty((D1.size, D2.size, w.size, s.size))
    best_value = None
    best_point = None
    for nt in problem.NT_domain:
        d1 = inner_side(D1_, nt, w_, s_)
        d2 = inner_side(D2_, nt, w_, s_)
        ok1 = (d1 > 0.0) & (d1 >= b["d1"][0]) & (d1 <= b["d1"][1])
        ok2 = (d2 > 0.0) & (d2 >= b["d2"][0]) & (d2 <= b["d2"][1])
        if not (ok1.any() and ok2.any()):
            continue
        F1 = inductance_from_dims(
            D1_, 1.0, np.maximum(d1, _TINY), 1.0, 1.0, 1.0, 1, 1, None, coefficients=c,
        )
        F2 = inductance_from_dims(
            1.0, D2_, 1.0, np.maximum(d2, _TINY), w_, s_,
            nt, problem.n_layers, problem.layer_gap, coefficients=c,
        )
        np.multiply(np.where(ok1, F1, 0.0)[:, None], np.where(ok2, F2, 0.0)[None, :], out=L)
        # Zeroes the (D1, D2) pairs that D1 < D2 excludes; none unless it binds.
        L[~below] = 0.0
        i, j, k, m = np.unravel_index(int(np.argmax(L)), L.shape)
        if not (ok1[i, k, m] and ok2[j, k, m] and below[i, j]):
            # No point is feasible, every feasible product underflowed to
            # 0, or a product is not finite.
            mask = ok1[:, None] & ok2[None, :] & below[:, :, None, None]
            if not mask.any():
                continue
            i, j, k, m = np.unravel_index(int(np.argmax(np.where(mask, L, -np.inf))), L.shape)
        value = float(L[i, j, k, m])
        point = (float(D1[i]), float(D2[j]), float(w[k]), float(s[m]), nt)
        if _better(value, point, best_value, best_point):
            best_value = value
            best_point = point
    if best_point is None:
        raise InfeasibleProblemError(
            "no feasible grid point in the box at this resolution"
        )
    return _result(problem, best_point, ())
