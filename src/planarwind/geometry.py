"""Geometry of multilayer rectangular planar windings.

A winding is a stack of ``n_layers`` identical rectangular spirals, each with
``n_turns`` turns of trace width ``w`` and turn spacing ``s``, wound inward
from outer side lengths ``D1`` x ``D2``.  Consecutive layers are separated by
``layer_gap``.  The inner side lengths follow from the outer sides and the
turn geometry:

    d = D - 2 * n_turns * (w + s) + 2 * s

All lengths in this module are in meters.  Conversion from millimeters
happens at file and CLI boundaries only (see :mod:`planarwind.units`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


class GeometryError(ValueError):
    """Invalid winding geometry."""


class InfeasibleGeometryError(GeometryError):
    """The requested turns do not fit inside the outer dimensions."""


class OrientationError(GeometryError):
    """Outer sides are not in canonical order (D1 <= D2)."""


class IncompleteGeometryError(GeometryError):
    """A multilayer winding is missing its layer gap."""


def inner_side(D, n_turns, w, s):
    """Inner side D - 2*n_turns*(w+s) + 2*s, unvalidated; floats or arrays."""
    return D - 2.0 * n_turns * (w + s) + 2.0 * s


def mean_side(D, d):
    """Mean side (D + d) / 2 of an outer and an inner side, unvalidated; floats or arrays."""
    return (D + d) / 2.0


def is_integer(count) -> bool:
    """True if count has __index__ (int, NumPy integers) and is no bool: a valid count type."""
    # A plain int, by far the most common count, skips the attribute lookup.
    return type(count) is int or (not isinstance(count, bool) and hasattr(count, "__index__"))


def require_integer(name: str, count) -> None:
    """Raise GeometryError unless :func:`is_integer` accepts count."""
    if not is_integer(count):
        raise GeometryError(f"{name} must be an integer, got {count!r}")


def derive_inner_side(D: float, n_turns: int, w: float, s: float) -> float:
    """Inner side length of a spiral with n_turns of width w and spacing s.

    Args:
        D: outer side length (m).
        n_turns: number of turns per layer, >= 1.
        w: trace width (m).
        s: spacing between adjacent turns (m).

    Returns:
        The inner side length d = D - 2*n_turns*(w+s) + 2*s, in meters.

    Raises:
        GeometryError: if any length is nonpositive or not finite, or
            n_turns < 1.
        InfeasibleGeometryError: if the turns do not fit (d <= 0).
    """
    # Chained comparisons are False for NaN, so NaN fails too.
    if not (0.0 < D < math.inf and 0.0 < w < math.inf and 0.0 < s < math.inf):
        raise GeometryError(f"lengths must be positive and finite, got D={D}, w={w}, s={s}")
    if n_turns < 1:
        raise GeometryError(f"n_turns must be >= 1, got {n_turns}")
    d = inner_side(D, n_turns, w, s)
    if d <= 0.0:
        raise InfeasibleGeometryError(
            f"{n_turns} turns of width {w} m at spacing {s} m do not fit "
            f"inside D={D} m (inner side would be {d:.6g} m)"
        )
    return d


@dataclass(frozen=True, slots=True)
class WindingGeometry:
    """One multilayer rectangular planar winding, in SI units.

    Attributes:
        D1, D2: outer side lengths (m), canonical orientation D1 <= D2.
        w: trace width (m).
        s: turn spacing (m).
        n_turns: turns per layer, an integer (not a bool).
        n_layers: number of stacked layers, an integer (not a bool).
        layer_gap: separation between consecutive layers (m).  Required for
            n_layers >= 2.  A single-layer winding has no gap; a value passed
            with n_layers == 1 is dropped so equal windings compare equal.
        d1, d2: inner side lengths (m), derived.  Not constructor arguments.

    Every length must be positive and finite; NaN and infinity raise
    GeometryError, as does a count that is not an integer.
    """

    D1: float
    D2: float
    w: float
    s: float
    n_turns: int
    n_layers: int
    layer_gap: Optional[float] = None
    d1: float = field(init=False)
    d2: float = field(init=False)

    def __post_init__(self) -> None:
        D1, D2, w, s, n_turns, n_layers = self.D1, self.D2, self.w, self.s, self.n_turns, self.n_layers
        require_integer("n_turns", n_turns)
        require_integer("n_layers", n_layers)
        if n_layers < 1:
            raise GeometryError(f"n_layers must be >= 1, got {n_layers}")
        if D1 > D2:
            raise OrientationError(
                f"sides out of order: D1={D1} > D2={D2} "
                f"(swap them, or use canonicalize())"
            )
        if n_layers == 1:
            object.__setattr__(self, "layer_gap", None)
        else:
            gap = self.layer_gap
            if gap is None:
                raise IncompleteGeometryError(f"layer_gap is required for n_layers={n_layers}")
            if not 0.0 < gap < math.inf:
                raise GeometryError(f"layer_gap must be positive and finite, got {gap}")
        object.__setattr__(self, "d1", derive_inner_side(D1, n_turns, w, s))
        object.__setattr__(self, "d2", derive_inner_side(D2, n_turns, w, s))


def canonicalize(
    D1: float,
    D2: float,
    w: float,
    s: float,
    n_turns: int,
    n_layers: int,
    layer_gap: Optional[float] = None,
) -> WindingGeometry:
    """Build a WindingGeometry, swapping the outer sides if needed so D1 <= D2.

    Inductance is invariant under exchanging the two sides, so the swap only
    normalizes storage.  Idempotent: feeding back a canonical geometry's
    fields returns an equal geometry.
    """
    if D1 > D2:
        D1, D2 = D2, D1
    return WindingGeometry(D1, D2, w, s, n_turns, n_layers, layer_gap)


def meets_min_inner(d: float, min_inner: float, strict: bool) -> bool:
    """Compare an inner side length against a minimum, decimal-safe.

    Grid values are specified in millimeters at no finer than micrometer
    granularity, so both sides are rounded to 1e-6 mm before comparing.
    This keeps boundary cases exact: a winding whose inner side works out
    to 17 mm on paper may carry float dust of either sign depending on the
    order of arithmetic, and a raw comparison would misclassify it.

    Args:
        d: inner side length (m).
        min_inner: minimum inner side length (m).
        strict: require d > min_inner instead of d >= min_inner.
    """
    dq = round(d * 1e3, 6)
    mq = round(min_inner * 1e3, 6)
    return dq > mq if strict else dq >= mq


@dataclass(frozen=True)
class ValidationCheck:
    """Outcome of one validation rule."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Results of all validation rules for one geometry."""

    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def validate(
    geometry: WindingGeometry,
    min_inner: float = 0.0,
    strict: bool = False,
) -> ValidationReport:
    """Check both inner sides of a winding against a minimum.

    The constructor is the one statement of a valid winding, so a
    constructed geometry can fail only these minimum inner side rules.

    Args:
        geometry: the winding to check.
        min_inner: minimum inner side length (m), default 0.
        strict: require d > min_inner instead of d >= min_inner.
    """
    op = ">" if strict else ">="
    return ValidationReport(checks=tuple(
        ValidationCheck(
            name=f"min_inner_{axis}",
            passed=meets_min_inner(d, min_inner, strict),
            detail=f"{axis}={d} {op} {min_inner}",
        )
        for axis, d in (("d1", geometry.d1), ("d2", geometry.d2))
    ))
