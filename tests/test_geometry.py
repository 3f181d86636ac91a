import dataclasses
import math

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
    derive_inner_side,
    mean_side,
    meets_min_inner,
    validate,
)
from planarwind.units import mm_to_m


def test_derive_inner_side_golden_values():
    assert derive_inner_side(0.100, 5, 0.004, 0.002) == pytest.approx(0.044, rel=1e-12)
    assert derive_inner_side(0.100, 5, 0.005, 0.001) == pytest.approx(0.042, rel=1e-12)
    assert derive_inner_side(0.100, 10, 0.003, 0.0001) == pytest.approx(0.0382, rel=1e-12)
    assert derive_inner_side(0.165, 10, 0.003, 0.0001) == pytest.approx(0.1032, rel=1e-12)


def test_derive_inner_side_rejects_bad_inputs():
    with pytest.raises(GeometryError):
        derive_inner_side(-0.1, 5, 0.004, 0.002)
    with pytest.raises(GeometryError):
        derive_inner_side(0.1, 5, 0.0, 0.002)
    with pytest.raises(GeometryError):
        derive_inner_side(0.1, 0, 0.004, 0.002)
    with pytest.raises(InfeasibleGeometryError):
        derive_inner_side(0.05, 10, 0.004, 0.002)


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
    d_a = derive_inner_side(mm_to_m(70.0), 6, mm_to_m(4.0), mm_to_m(0.5))
    d_b = derive_inner_side(mm_to_m(80.0), 6, mm_to_m(5.0), mm_to_m(0.3))
    for d in (d_a, d_b):
        assert meets_min_inner(d, mm_to_m(17.0), strict=False)
        assert not meets_min_inner(d, mm_to_m(17.0), strict=True)
    assert meets_min_inner(mm_to_m(17.1), mm_to_m(17.0), strict=True)
    assert not meets_min_inner(mm_to_m(16.9), mm_to_m(17.0), strict=False)


def test_validate_passes_constructed_geometry():
    g = WindingGeometry(0.100, 0.163, 0.003, 0.0005, 10, 1)
    report = validate(g)
    assert report.passed
    assert report.failures() == ()
    assert [check.name for check in report.checks] == ["min_inner_d1", "min_inner_d2"]


def test_validate_flags_min_inner():
    g = WindingGeometry(0.070, 0.070, 0.005, 0.0005, 6, 1)  # d = 4 mm
    report = validate(g, min_inner=mm_to_m(17.0))
    assert not report.passed
    failed = {check.name for check in report.failures()}
    assert failed == {"min_inner_d1", "min_inner_d2"}


def test_validate_names_the_failing_side():
    g = WindingGeometry(0.070, 0.100, 0.005, 0.0005, 6, 1)  # d1 = 4 mm, d2 = 34 mm
    failed = validate(g, min_inner=mm_to_m(17.0)).failures()
    assert [check.name for check in failed] == ["min_inner_d1"]


def test_validate_strict_at_boundary():
    g = WindingGeometry(mm_to_m(70.0), mm_to_m(70.0), mm_to_m(4.0), mm_to_m(0.5), 6, 1)
    assert validate(g, min_inner=mm_to_m(17.0), strict=False).passed
    assert not validate(g, min_inner=mm_to_m(17.0), strict=True).passed


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
    assert g.d1 <= g.d2
    assert g.d1 == D1 - 2 * n_turns * (w + s) + 2 * s
    assert validate(g).passed


@given(
    a=st.floats(0.05, 0.3),
    b=st.floats(0.05, 0.3),
    n_turns=st.integers(1, 4),
)
def test_canonicalize_orders_any_input(a, b, n_turns):
    g = canonicalize(a, b, 0.003, 0.0005, n_turns, 1)
    assert g.D1 <= g.D2
    assert g.D1 == min(a, b) and g.D2 == max(a, b)
