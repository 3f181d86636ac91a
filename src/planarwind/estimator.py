"""Monomial inductance models for rectangular planar windings.

The general model estimates the inductance of a multilayer rectangular
planar winding as a product of powers of its dimensions:

    L = a0 * mu0 * D1^a1 * D2^a2 * Dbar1^a3 * Dbar2^a4
        * w^a5 * s^a6 * N_T^a7 * N_L^a8 * O^(a9 * (N_L - 1))

where Dbar_i = (D_i + d_i) / 2 are the mean side lengths, N_T is turns per
layer, N_L is the number of layers and O is the layer gap.  The O factor is
absent for a single layer: its exponent would be zero anyway, and dropping
the factor keeps single-layer estimates independent of any gap value.

:func:`inductance_from_dims` is the one place the product is written out.
Model variants are coefficient sets on it: :data:`SIMPLIFIED_COEFFICIENTS`
and :data:`MOHAN_COEFFICIENTS`.  Only :func:`mohan_inductance_um`, the
independent check of the unit conversion, keeps its own formula.

All inputs are SI (meters), all results are henries, in (0, inf) by
:func:`require_in_range`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .geometry import (
    GeometryError,
    IncompleteGeometryError,
    WindingGeometry,
    mean_side,
    require_integer,
)
from .units import json_field, json_keys

# Vacuum permeability, H/m.
MU0 = 4.0e-7 * math.pi

COEFFICIENT_NAMES = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9")


@dataclass(frozen=True)
class CoefficientSet:
    """Prefactor and exponents of the monomial inductance model.

    a0 is the dimensionless prefactor multiplying mu0; a1..a9 are the
    exponents of D1, D2, Dbar1, Dbar2, w, s, N_T, N_L and the layer gap
    (per extra layer), in that order.  The label identifies where the set
    came from, e.g. a fit run.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float
    a8: float
    a9: float
    label: str = ""

    def __post_init__(self) -> None:
        for name in COEFFICIENT_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite, got {value}")
        if self.a0 <= 0.0:
            raise ValueError(f"a0 must be positive, got {self.a0}")

    @property
    def beta1(self) -> float:
        """Combined outer-side exponent a1 + a2 (square windings)."""
        return self.a1 + self.a2

    @property
    def beta2(self) -> float:
        """Combined mean-side exponent a3 + a4 (square windings)."""
        return self.a3 + self.a4

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in COEFFICIENT_NAMES)

    def to_mapping(self) -> dict:
        out = {name: getattr(self, name) for name in COEFFICIENT_NAMES}
        out["label"] = self.label
        return out

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "CoefficientSet":
        json_keys("coefficient set", mapping, COEFFICIENT_NAMES, ("label",))
        values = {name: json_field(name, mapping[name], "number") for name in COEFFICIENT_NAMES}
        return cls(label=json_field("label", mapping.get("label", ""), "string"), **values)


# Coefficient sets, in the order a0..a9.  The reference set of the general model:
DEFAULT_COEFFICIENTS = CoefficientSet(
    1.602, -0.592, -0.378, 1.175, 1.072, -0.183, -0.011, 1.794, 1.804, -0.006, label="default"
)
# The reduced form: N_T and N_L share the exponent 1.8, which merges them
# into one total-turns factor (N_T * N_L)^1.8, and the spacing drops out.
SIMPLIFIED_COEFFICIENTS = CoefficientSet(
    1.7274, -0.592, -0.378, 1.175, 1.072, -0.183, 0.0, 1.8, 1.8, -0.006, label="simplified"
)
# The single-layer square spiral estimate of Mohan et al. (JSSC 1999) in SI
# form, for D1 = D2 = D, d1 = d2 = d and N_L = 1 (a2, a4, a8 and a9 are 0).
MOHAN_COEFFICIENTS = CoefficientSet(
    1.5428, -1.21, 0.0, 2.4, 0.0, -0.147, -0.03, 1.78, 0.0, 0.0, label="mohan"
)


def inductance_from_dims(
    D1, D2, d1, d2, w, s, n_turns,
    n_layers: int,
    layer_gap=None,
    coefficients: CoefficientSet = DEFAULT_COEFFICIENTS,
):
    """Monomial model on raw dimensions, without validation.

    The geometric arguments may be floats or float arrays of a common
    broadcast shape, which makes this the evaluation kernel for grid scans.
    The caller is responsible for positive dimensions; n_layers must be a
    scalar.  Use :func:`inductance` for a validated scalar evaluation.
    """
    c = coefficients
    # Checked first, so that the NumPy evaluation below never reports it.
    if n_layers > 1 and layer_gap is None:
        raise IncompleteGeometryError(f"layer_gap is required for n_layers={n_layers}")
    try:
        value = (
            c.a0
            * MU0
            * D1 ** c.a1
            * D2 ** c.a2
            * mean_side(D1, d1) ** c.a3
            * mean_side(D2, d2) ** c.a4
            * w ** c.a5
            * s ** c.a6
            * n_turns ** c.a7
            * n_layers ** c.a8
        )
        if n_layers > 1:
            value = value * layer_gap ** (c.a9 * (n_layers - 1))
    except OverflowError:
        # Python's ** raises where a power of a Python number passes the float
        # range, and NumPy's gives inf.  Evaluated again on NumPy values, as the
        # array path is, the value is inf or NaN; only here does NumPy load.
        import numpy as np

        args = [None if v is None else np.asarray(v, dtype=float)
                for v in (D1, D2, d1, d2, w, s, n_turns, n_layers, layer_gap)]
        with np.errstate(over="ignore", invalid="ignore"):
            value = inductance_from_dims(*args, coefficients=c)
        return float(value) if np.ndim(value) == 0 else value
    return value


def require_in_range(L: float) -> float:
    """L, a model value; OverflowError unless it is in (0, inf).

    The one statement of a model value's float range, which fitted or given
    exponents can leave well before the winding is absurd.  The model is a
    monomial fitted and maximized on log10 L, so an underflow to 0.0 is no
    value, as inf is not; NaN fails the comparison.  A caller with an array
    checks its min and its max, through both of which a NaN carries.
    """
    if not 0.0 < L < math.inf:
        raise OverflowError(f"L = {L} H")
    return L


def inductance(
    geometry: WindingGeometry,
    coefficients: CoefficientSet = DEFAULT_COEFFICIENTS,
) -> float:
    """Inductance of a multilayer rectangular planar winding, in henries, in (0, inf)."""
    g = geometry
    value = inductance_from_dims(
        g.D1, g.D2, g.d1, g.d2, g.w, g.s, g.n_turns, g.n_layers, g.layer_gap,
        coefficients=coefficients,
    )
    return require_in_range(value)


def inductance_square(
    D: float,
    w: float,
    s: float,
    n_turns: int,
    n_layers: int,
    layer_gap: Optional[float] = None,
    coefficients: CoefficientSet = DEFAULT_COEFFICIENTS,
) -> float:
    """Inductance of a square winding (D1 = D2 = D), in henries.

    For a square winding the D1/D2 factors collapse to D^(a1+a2) and the
    mean-side factors to Dbar^(a3+a4).  This is :func:`inductance` on the
    equivalent :class:`WindingGeometry`, so it validates its inputs the same
    way and its result is bit-for-bit identical.
    """
    return inductance(WindingGeometry(D, D, w, s, n_turns, n_layers, layer_gap), coefficients)


def mohan_inductance(D: float, d: float, w: float, s: float, n_turns: int) -> float:
    """Monomial estimate for a single-layer square spiral, SI form.

    Classic monomial fit for square planar spirals with outer side D and
    inner side d, restated in SI units: the general model with
    :data:`MOHAN_COEFFICIENTS` at D1 = D2 = D, d1 = d2 = d and N_L = 1,

        L = 1.5428 * mu0 * D^-1.21 * ((D + d) / 2)^2.4
            * w^-0.147 * s^-0.03 * N^1.78

    Returns henries, in (0, inf) by :func:`require_in_range`.
    """
    _check_mohan_inputs(D, d, w, s, n_turns)
    L = inductance_from_dims(D, D, d, d, w, s, n_turns, 1, coefficients=MOHAN_COEFFICIENTS)
    return require_in_range(L)


def mohan_inductance_um(
    D_um: float, d_um: float, w_um: float, s_um: float, n_turns: int
) -> float:
    """Same monomial estimate in its original unit system.

    Takes micrometers, returns nanohenries:

        L[nH] = 1.62e-3 * D^-1.21 * w^-0.147 * ((D + d) / 2)^2.40
                * N^1.78 * s^-0.030

    Agrees with :func:`mohan_inductance` to well under 0.1% after unit
    conversion (the SI prefactor is the rounded exact conversion).
    """
    _check_mohan_inputs(D_um, d_um, w_um, s_um, n_turns)
    Dbar_um = (D_um + d_um) / 2.0
    return (
        1.62e-3
        * D_um ** -1.21
        * w_um ** -0.147
        * Dbar_um ** 2.40
        * n_turns ** 1.78
        * s_um ** -0.030
    )


def _check_mohan_inputs(D: float, d: float, w: float, s: float, n_turns: int) -> None:
    # Chained comparisons are False for NaN, so NaN fails too.
    if not all(0.0 < x < math.inf for x in (D, d, w, s)):
        raise GeometryError(f"lengths must be positive and finite, got D={D}, d={d}, w={w}, s={s}")
    require_integer("n_turns", n_turns)
    if d >= D:
        raise GeometryError(f"inner side must be smaller than outer side, got d={d} >= D={D}")
    if n_turns < 1:
        raise GeometryError(f"n_turns must be >= 1, got {n_turns}")
