import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from planarwind import (
    GeometryError,
    IncompleteGeometryError,
    InfeasibleGeometryError,
    OrientationError,
    WindingGeometry,
    canonicalize,
    inner_side,
    mean_side,
    meets_min_inner,
)
from planarwind.units import mm_to_m


def test_geometry_inner_side_golden_values():
    assert WindingGeometry(0.100, 0.100, 0.004, 0.002, 5, 1).d1 == pytest.approx(0.044, rel=1e-12)
    assert WindingGeometry(0.100, 0.100, 0.005, 0.001, 5, 1).d2 == pytest.approx(0.042, rel=1e-12)
    g = WindingGeometry(0.100, 0.165, 0.003, 0.0001, 10, 1)
    assert g.d1 == pytest.approx(0.0382, rel=1e-12)
    assert g.d2 == pytest.approx(0.1032, rel=1e-12)


# Each rejection of the sides and turns, in the order the constructor makes them.
@pytest.mark.parametrize("args, error, message", [
    ((-0.1, 0.1, 0.004, 0.002, 5, 1), GeometryError,
     "lengths must be positive and finite, got D=-0.1, w=0.004, s=0.002"),
    ((0.1, 0.1, 0.0, 0.002, 5, 1), GeometryError,
     "lengths must be positive and finite, got D=0.1, w=0.0, s=0.002"),
    ((math.nan, 0.1, 0.004, 0.002, 0, 1), GeometryError,
     "lengths must be positive and finite, got D=nan, w=0.004, s=0.002"),
    ((0.1, 0.1, 0.004, 0.002, 0, 1), GeometryError, "n_turns must be >= 1, got 0"),
    ((0.1, 0.1, 0.004, 0.002, 10 ** 400, 1), GeometryError,
     f"n_turns must be in the float range, got {10 ** 400}"),
    ((0.05, 0.1, 0.004, 0.002, 10, 1), InfeasibleGeometryError,
     "10 turns of width 0.004 m at spacing 0.002 m do not fit inside D=0.05 m "
     "(inner side would be -0.066 m)"),
    # A D1 whose turns do not fit is named before a D2 that is NaN.
    ((0.05, math.nan, 0.004, 0.002, 10, 1), InfeasibleGeometryError,
     "10 turns of width 0.004 m at spacing 0.002 m do not fit inside D=0.05 m "
     "(inner side would be -0.066 m)"),
    ((0.1, math.inf, 0.004, 0.002, 5, 1), GeometryError,
     "lengths must be positive and finite, got D=inf, w=0.004, s=0.002"),
    # Numbers that no float holds, or that str cannot print (past 4300 digits).
    ((0.1, 0.1, 0.004, 0.002, 10 ** 5000, 1), GeometryError,
     "n_turns must be in the float range, got <int too long to print>"),
    ((0.1, 0.1, 0.004, 0.002, -10 ** 5000, 1), GeometryError,
     "n_turns must be >= 1, got <int too long to print>"),
    ((0.1, 0.1, 0.004, 0.002, 5, 10 ** 5000, 0.001), GeometryError,
     "n_layers must be in the float range, got <int too long to print>"),
    ((0.1, 0.1, 0.004, 0.002, 5, -10 ** 5000), GeometryError,
     "n_layers must be >= 1, got <int too long to print>"),
    ((0.1, 0.1, 0.004, 0.002, Fraction(10 ** 5000, 3), 1), GeometryError,
     "n_turns must be an integer, got <Fraction too long to print>"),
    ((10 ** 5000, 0.1, 0.004, 0.002, 5, 1), OrientationError,
     "sides out of order: D1=<int too long to print> > D2=0.1 "
     "(swap them, or use canonicalize())"),
    ((0.1, 0.1, 0.004, 0.002, 5, 2, 10 ** 400), GeometryError,
     f"layer_gap must be positive and finite, got {10 ** 400}"),
    ((0.1, 0.1, 10 ** 400, 0.002, 5, 1), GeometryError,
     f"lengths must be positive and finite, got D=0.1, w={10 ** 400}, s=0.002"),
    ((0.1, 10 ** 400, 0.004, 0.002, 5, 1), GeometryError,
     f"lengths must be positive and finite, got D={10 ** 400}, w=0.004, s=0.002"),
    ((10 ** 5000, 10 ** 5001, 0.004, 0.002, 5, 1), GeometryError,
     "lengths must be positive and finite, got D=<int too long to print>, w=0.004, s=0.002"),
    ((0.1, 0.1, 10 ** 308, 10 ** 308, 5, 1), GeometryError,
     f"w + s must be in the float range, got w={10 ** 308}, s={10 ** 308}"),
], ids=["D1", "w", "NaN D1", "n_turns", "n_turns past the float range", "d1", "d1 before D2",
        "D2", "n_turns of 5001 digits", "n_turns of -5001 digits", "n_layers of 5001 digits",
        "n_layers of -5001 digits", "Fraction n_turns of 5001 digits", "D1 of 5001 digits",
        "layer_gap past the float range", "w past the float range",
        "D2 past the float range", "D1 and D2 of 5001 digits", "w + s past the float range"])
def test_geometry_rejects_bad_sides_and_turns(args, error, message):
    with pytest.raises(error) as caught:
        WindingGeometry(*args)
    assert type(caught.value) is error and str(caught.value) == message


def test_geometry_takes_counts_that_float_converts():
    # The largest float as an int converts; half an ulp more rounds to 2**1024, which overflows.
    largest = int(sys.float_info.max)
    assert WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, largest, 0.001).n_layers == largest
    for name, args in (("n_layers", (5, largest + 2 ** 970)), ("n_turns", (largest + 2 ** 970, 1))):
        with pytest.raises(GeometryError) as caught:
            WindingGeometry(0.1, 0.1, 0.004, 0.002, *args, 0.001)
        assert type(caught.value) is GeometryError
        assert str(caught.value) == f"{name} must be in the float range, got {largest + 2 ** 970}"
    # A turn count that converts and does not fit is an infeasible winding, as before.
    with pytest.raises(InfeasibleGeometryError):
        WindingGeometry(0.1, 0.1, 0.004, 0.002, largest, 1)


def test_geometry_derives_inner_sides():
    g = WindingGeometry(0.100, 0.163, 0.003, 0.0005, 10, 1)
    assert g.d1 == pytest.approx(0.031, rel=1e-12)
    assert g.d2 == pytest.approx(0.094, rel=1e-12)


def test_geometry_is_frozen():
    g = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.D1 = 0.2


def test_geometry_rejects_swapped_sides():
    with pytest.raises(OrientationError):
        WindingGeometry(0.163, 0.100, 0.003, 0.0005, 10, 1)


def test_geometry_requires_gap_for_multilayer():
    with pytest.raises(IncompleteGeometryError):
        WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 2)
    with pytest.raises(GeometryError):
        WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 2, -0.001)
    with pytest.raises(GeometryError):
        WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 0)


_VALID = dict(D1=0.1, D2=0.1, w=0.004, s=0.002, n_turns=5, n_layers=2, layer_gap=0.0016)


@pytest.mark.parametrize("field", ["D1", "D2", "w", "s", "layer_gap"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_geometry_rejects_non_finite_lengths(field, value):
    with pytest.raises(GeometryError):
        WindingGeometry(**dict(_VALID, **{field: value}))


@pytest.mark.parametrize("field", ["n_turns", "n_layers"])
@pytest.mark.parametrize("value", [True, np.bool_(True), 2.5, 2.0, np.float64(2.0), "2"])
def test_geometry_rejects_non_integer_counts(field, value):
    with pytest.raises(GeometryError, match=f"{field} must be an integer"):
        WindingGeometry(**dict(_VALID, **{field: value}))


def test_geometry_accepts_numpy_integer_counts():
    g = WindingGeometry(**dict(_VALID, n_turns=np.int64(5), n_layers=np.int32(2)))
    assert g == WindingGeometry(**_VALID)


def test_single_layer_drops_layer_gap():
    bare = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
    with_gap = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1, 0.0016)
    assert with_gap.layer_gap is None
    assert with_gap == bare


def test_canonicalize_swaps_sides():
    g = canonicalize(0.163, 0.100, 0.003, 0.0005, 10, 1)
    assert (g.D1, g.D2) == (0.100, 0.163)
    assert g.d1 <= g.d2


@given(
    sides=st.tuples(st.floats(0.01, 0.3), st.floats(0.01, 0.3)),
    w=st.floats(1e-4, 6e-3),
    s=st.floats(5e-5, 2e-3),
    n_turns=st.integers(1, 12),
    n_layers=st.integers(1, 6),
    gap=st.floats(1e-4, 3e-3),
)
@example(sides=(0.163, 0.100), w=0.003, s=0.0005, n_turns=10, n_layers=1, gap=1e-3)
def test_canonicalize_is_idempotent(sides, w, s, n_turns, n_layers, gap):
    try:
        g = canonicalize(*sides, w, s, n_turns, n_layers, gap)
    except InfeasibleGeometryError:
        return
    assert g.D1 <= g.D2
    assert (g.D1, g.D2) in (sides, sides[::-1])
    again = canonicalize(g.D1, g.D2, g.w, g.s, g.n_turns, g.n_layers, g.layer_gap)
    assert again == g
    assert canonicalize(*sides[::-1], w, s, n_turns, n_layers, gap) == g


def test_mean_sides():
    g = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
    assert mean_side(g.D1, g.d1) == pytest.approx(0.072, rel=1e-12)
    assert mean_side(g.D2, g.d2) == pytest.approx(0.072, rel=1e-12)


def test_meets_min_inner_boundary_is_decimal_exact():
    # Both of these work out to d = 17 mm on paper; in floats one lands a
    # hair above 17 mm and the other a hair below 0.017 m.
    d_a = inner_side(mm_to_m(70.0), 6, mm_to_m(4.0), mm_to_m(0.5))
    d_b = inner_side(mm_to_m(80.0), 6, mm_to_m(5.0), mm_to_m(0.3))
    for d in (d_a, d_b):
        # Each is at least 17 mm, and 17 mm is at least each: both read as 17 mm.
        assert meets_min_inner(d, mm_to_m(17.0))
        assert meets_min_inner(mm_to_m(17.0), d)
    assert meets_min_inner(mm_to_m(17.1), mm_to_m(17.0))
    assert not meets_min_inner(mm_to_m(16.9), mm_to_m(17.0))


@given(
    D1=st.floats(0.05, 0.2),
    extra=st.floats(0.0, 0.2),
    w=st.floats(0.001, 0.005),
    s=st.floats(0.0001, 0.002),
    n_turns=st.integers(1, 6),
    n_layers=st.integers(1, 4),
)
def test_inner_side_ordering(D1, extra, w, s, n_turns, n_layers):
    D2 = D1 + extra
    try:
        g = WindingGeometry(D1, D2, w, s, n_turns, n_layers,
                            0.001 if n_layers > 1 else None)
    except InfeasibleGeometryError:
        return
    assert 0.0 < g.d1 <= g.d2
    assert g.d1 == D1 - 2 * n_turns * (w + s) + 2 * s


@given(
    sides=st.tuples(st.floats(0.02, 0.3), st.floats(0.02, 0.3)),
    w=st.floats(1e-4, 3e-3),
    narrower=st.floats(0.1, 1.0),
    s=st.floats(5e-5, 1e-3),
    n_turns=st.integers(1, 8),
    n_layers=st.integers(1, 4),
    gap=st.floats(1e-4, 3e-3),
)
def test_a_winding_stores_its_seven_values_and_derives_its_inner_sides(
    sides, w, narrower, s, n_turns, n_layers, gap
):
    try:
        g = canonicalize(*sides, w, s, n_turns, n_layers, gap)
    except InfeasibleGeometryError:
        return
    names = ["D1", "D2", "w", "s", "n_turns", "n_layers", "layer_gap"]
    assert [f.name for f in dataclasses.fields(WindingGeometry)] == names
    assert WindingGeometry.__slots__ == tuple(names)
    assert "d1" not in repr(g) and "d2" not in repr(g)
    # A narrower trace widens the inner sides, so the replaced winding fits too.
    for h in (g, dataclasses.replace(g, w=w * narrower), pickle.loads(pickle.dumps(g))):
        assert h.d1 == inner_side(h.D1, h.n_turns, h.w, h.s)
        assert h.d2 == inner_side(h.D2, h.n_turns, h.w, h.s)
    assert pickle.loads(pickle.dumps(g)) == g


@given(
    a=st.floats(0.05, 0.3),
    b=st.floats(0.05, 0.3),
    n_turns=st.integers(1, 4),
)
def test_canonicalize_orders_any_input(a, b, n_turns):
    g = canonicalize(a, b, 0.003, 0.0005, n_turns, 1)
    assert g.D1 <= g.D2
    assert g.D1 == min(a, b) and g.D2 == max(a, b)
