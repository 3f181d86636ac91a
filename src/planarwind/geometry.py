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

import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Optional

from .units import fits_a_float


class GeometryError(ValueError):
    """Invalid winding geometry."""


class InfeasibleGeometryError(GeometryError):
    """The requested turns do not fit inside the outer dimensions."""


class OrientationError(GeometryError):
    """Outer sides are not in canonical order (D1 <= D2)."""


class IncompleteGeometryError(GeometryError):
    """A multilayer winding is missing its layer gap."""


# The largest length a winding takes; inf, NaN and any longer int fail a chained comparison.
_LARGEST = sys.float_info.max


def _shown(value, form=str) -> str:
    """form(value) for a message, or a placeholder where form raises ValueError.

    str and repr raise it for an int of more digits than
    ``sys.get_int_max_str_digits()``, 4300 by default.
    """
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _lengths_message(D, w, s) -> str:
    return f"lengths must be positive and finite, got D={_shown(D)}, w={_shown(w)}, s={_shown(s)}"


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
        raise GeometryError(f"{name} must be an integer, got {_shown(count, repr)}")


def frozen_slots(cls):
    """cls, whose instances refuse every assignment and deletion with FrozenInstanceError.

    For a class from ``dataclass(frozen=True, slots=True)``.  Before Python
    3.12 its ``__setattr__`` and ``__delattr__`` refer to the class that
    the slotted one replaced, so that assigning a name that is not a field
    raised ``TypeError: super(type, obj)``.  Construction, pickling and
    ``dataclasses.replace`` go through ``object.__setattr__``, unaffected.
    """
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@frozen_slots
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

    A winding stores these seven values only.  Its inner sides ``d1`` and
    ``d2`` (m) are read-only properties, derived by :func:`inner_side` on
    each access, so ``repr`` and ``dataclasses.fields`` do not list them.

    Every length must be positive and at most the largest float; NaN,
    infinity and a longer int raise GeometryError, as do int w and s whose
    sum is longer, a count that is not an integer, a count below 1 or one
    that float() cannot convert (from about 2**1024 on).  A message shows
    a number too long for str, such as an int of over 4300 digits, by its
    type alone.
    Turns that leave an inner side <= 0 raise InfeasibleGeometryError.
    """

    D1: float
    D2: float
    w: float
    s: float
    n_turns: int
    n_layers: int
    layer_gap: Optional[float] = None

    def __post_init__(self) -> None:
        D1, D2, w, s, n_turns, n_layers = self.D1, self.D2, self.w, self.s, self.n_turns, self.n_layers
        require_integer("n_turns", n_turns)
        require_integer("n_layers", n_layers)
        if n_layers < 1:
            raise GeometryError(f"n_layers must be >= 1, got {_shown(n_layers)}")
        if not fits_a_float(n_layers):
            raise GeometryError(f"n_layers must be in the float range, got {_shown(n_layers)}")
        if D1 > D2:
            raise OrientationError(
                f"sides out of order: D1={_shown(D1)} > D2={_shown(D2)} "
                f"(swap them, or use canonicalize())"
            )
        if n_layers == 1:
            object.__setattr__(self, "layer_gap", None)
        else:
            gap = self.layer_gap
            if gap is None:
                raise IncompleteGeometryError(f"layer_gap is required for n_layers={n_layers}")
            if not 0.0 < gap <= _LARGEST:
                raise GeometryError(f"layer_gap must be positive and finite, got {_shown(gap)}")
        if not (0.0 < D1 <= _LARGEST and 0.0 < w <= _LARGEST and 0.0 < s <= _LARGEST):
            raise GeometryError(_lengths_message(D1, w, s))
        if n_turns < 1:
            raise GeometryError(f"n_turns must be >= 1, got {_shown(n_turns)}")
        if not fits_a_float(n_turns):
            raise GeometryError(f"n_turns must be in the float range, got {_shown(n_turns)}")
        # D2 is checked after d1, so a D1 whose turns do not fit is named first.
        for D in (D1, D2):
            if not 0.0 < D <= _LARGEST:
                raise GeometryError(_lengths_message(D, w, s))
            try:
                d = inner_side(D, n_turns, w, s)
            except OverflowError:
                # w and s are ints, each in the float range, whose sum is not.
                raise GeometryError(
                    f"w + s must be in the float range, got w={w}, s={s}"
                ) from None
            if d <= 0.0:
                raise InfeasibleGeometryError(
                    f"{n_turns} turns of width {w} m at spacing {s} m do not fit "
                    f"inside D={D} m (inner side would be {d:.6g} m)"
                )

    @property
    def d1(self) -> float:
        """Inner side of D1 (m), derived on each access."""
        return inner_side(self.D1, self.n_turns, self.w, self.s)

    @property
    def d2(self) -> float:
        """Inner side of D2 (m), derived on each access."""
        return inner_side(self.D2, self.n_turns, self.w, self.s)


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


def meets_min_inner(d: float, min_inner: float) -> bool:
    """True if an inner side length is at least a minimum, decimal-safe.

    Grid values are specified in millimeters at no finer than micrometer
    granularity, so both sides are rounded to 1e-6 mm before comparing.
    This keeps boundary cases exact: a winding whose inner side works out
    to 17 mm on paper may carry float dust of either sign depending on the
    order of arithmetic, and a raw comparison would misclassify it.

    Args:
        d: inner side length (m).
        min_inner: minimum inner side length (m).
    """
    return round(d * 1e3, 6) >= round(min_inner * 1e3, 6)
