import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planarwind import (
    DEFAULT_COEFFICIENTS,
    MOHAN_COEFFICIENTS,
    MU0,
    SIMPLIFIED_COEFFICIENTS,
    CoefficientSet,
    GeometryError,
    IncompleteGeometryError,
    WindingGeometry,
    canonicalize,
    inductance,
    inductance_from_dims,
    inductance_square,
    inner_side,
    mean_side,
    mohan_inductance,
    mohan_inductance_um,
)
from planarwind.estimator import require_in_range
from planarwind.units import mm_to_m

import reference

# Reference windings with their model inductances, frozen from this
# implementation.  Dimensions in mm, L in uH.
GOLDEN = [
    (100.0, 100.0, 4.0, 2.0, 1.60, 5, 2, 9.740825580967027),
    (100.0, 100.0, 5.0, 1.0, 1.60, 5, 4, 34.445510610569656),
    (100.0, 100.0, 5.0, 1.0, 1.60, 5, 2, 9.131117988922226),
    (100.0, 100.0, 5.0, 1.0, 3.20, 5, 2, 9.093221594744564),
    (100.0, 163.0, 3.0, 0.5, None, 10, 1, 13.787682753645088),
    (210.0, 294.0, 5.0, 0.5, 1.50, 10, 2, 126.58532862537558),
    (120.0, 160.0, 5.0, 0.5, None, 8, 1, 8.218386444608297),
    (120.0, 160.0, 5.0, 0.5, 1.60, 8, 2, 29.827712682281987),
    (120.0, 160.0, 5.0, 0.5, 1.60, 8, 3, 64.42639968303952),
    (100.0, 165.0, 3.0, 0.1, 0.45, 10, 4, 218.12176832253),
]


def make_geometry(D1, D2, w, s, O, nt, nl):
    return WindingGeometry(
        mm_to_m(D1), mm_to_m(D2), mm_to_m(w), mm_to_m(s), nt, nl,
        mm_to_m(O) if O is not None else None,
    )


def test_mu0():
    assert MU0 == 4.0e-7 * math.pi


def test_default_coefficient_values():
    c = DEFAULT_COEFFICIENTS
    assert c.as_tuple() == (
        1.602, -0.592, -0.378, 1.175, 1.072, -0.183, -0.011, 1.794, 1.804, -0.006
    )


def test_square_reduction_identities_exact():
    assert DEFAULT_COEFFICIENTS.beta1 == -0.97
    assert DEFAULT_COEFFICIENTS.beta2 == 2.247


def test_coefficient_set_validation():
    with pytest.raises(ValueError):
        CoefficientSet(0.0, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        CoefficientSet(math.nan, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_coefficient_mapping_roundtrip():
    mapping = DEFAULT_COEFFICIENTS.to_mapping()
    assert CoefficientSet.from_mapping(mapping) == DEFAULT_COEFFICIENTS
    assert json.loads(json.dumps(mapping)) == mapping
    with pytest.raises(ValueError, match="a7"):
        CoefficientSet.from_mapping({k: v for k, v in mapping.items() if k != "a7"})


@pytest.mark.parametrize("value", [
    None, [1], {"a": 1}, "1.794", True,
    # A label must be a JSON string; it is never passed through str().
    pytest.param(("label", None), id="label-None"),
    pytest.param(("label", 5), id="label-5"),
    pytest.param(("label", [1]), id="label-list"),
    pytest.param(("label", {"a": 1}), id="label-object"),
])
def test_coefficient_mapping_rejects_wrong_json_shapes(value):
    key, value = value if isinstance(value, tuple) else ("a7", value)
    mapping = DEFAULT_COEFFICIENTS.to_mapping()
    mapping[key] = value
    with pytest.raises(ValueError, match=key):
        CoefficientSet.from_mapping(mapping)


def test_coefficient_mapping_rejects_unknown_keys():
    mapping = DEFAULT_COEFFICIENTS.to_mapping()
    mapping["lable"] = mapping.pop("label")
    with pytest.raises(ValueError, match="^coefficient set has unknown key 'lable'$"):
        CoefficientSet.from_mapping(mapping)
    mapping = DEFAULT_COEFFICIENTS.to_mapping()
    del mapping["a3"], mapping["a7"]
    mapping["a10"] = 0.0
    with pytest.raises(ValueError, match="^coefficient set is missing a3, a7$"):
        CoefficientSet.from_mapping(mapping)


def test_coefficient_mapping_label_defaults_to_empty():
    mapping = DEFAULT_COEFFICIENTS.to_mapping()
    del mapping["label"]
    assert CoefficientSet.from_mapping(mapping).label == ""


@pytest.mark.parametrize("row", GOLDEN)
def test_inductance_golden(row):
    *dims, nt, nl, expected_uH = row
    g = make_geometry(*dims[:4], dims[4], nt, nl)
    assert inductance(g) * 1e6 == pytest.approx(expected_uH, rel=1e-12)


def test_gap_independence_single_layer():
    bare = make_geometry(100.0, 163.0, 3.0, 0.5, None, 10, 1)
    for gap in (0.45, 1.6, 3.2):
        gapped = make_geometry(100.0, 163.0, 3.0, 0.5, gap, 10, 1)
        assert inductance(gapped) == inductance(bare)


def test_swap_invariance_through_canonicalization():
    forward = canonicalize(mm_to_m(100.0), mm_to_m(163.0), 0.003, 0.0005, 10, 1)
    reverse = canonicalize(mm_to_m(163.0), mm_to_m(100.0), 0.003, 0.0005, 10, 1)
    assert inductance(forward) == inductance(reverse)


def test_monotone_in_layer_count():
    previous = 0.0
    for nl in (1, 2, 3, 4):
        g = make_geometry(100.0, 100.0, 5.0, 1.0, 1.6 if nl > 1 else None, 5, nl)
        value = inductance(g)
        assert value > previous
        previous = value


def test_homogeneity_single_layer():
    c = DEFAULT_COEFFICIENTS
    exponent = c.a1 + c.a2 + c.a3 + c.a4 + c.a5 + c.a6
    assert exponent == pytest.approx(1.083, abs=1e-12)
    base = make_geometry(100.0, 163.0, 3.0, 0.5, None, 10, 1)
    for k in (0.5, 2.0, 7.3):
        scaled = WindingGeometry(base.D1 * k, base.D2 * k, base.w * k, base.s * k, 10, 1)
        assert inductance(scaled) / inductance(base) == pytest.approx(
            k ** exponent, rel=1e-9
        )


def test_square_equals_full_on_square_inputs():
    for D, w, s, nt, nl, gap in [
        (100.0, 4.0, 2.0, 5, 2, 1.6),
        (100.0, 5.0, 1.0, 5, 4, 1.6),
        (70.0, 3.0, 0.1, 6, 1, None),
        (160.0, 5.0, 0.5, 10, 3, 0.5),
    ]:
        g = make_geometry(D, D, w, s, gap, nt, nl)
        via_square = inductance_square(
            mm_to_m(D), mm_to_m(w), mm_to_m(s), nt, nl,
            mm_to_m(gap) if gap is not None else None,
        )
        assert via_square == inductance(g)


@pytest.mark.parametrize("n_turns, n_layers, gap", [
    (5, 0, None),
    (5, True, None),
    (5, 2.5, 0.001),
    (5.0, 1, None),
    (5, 2, math.nan),
    (5, 2, -0.001),
])
def test_square_rejects_what_the_geometry_rejects(n_turns, n_layers, gap):
    with pytest.raises(GeometryError):
        inductance_square(0.1, 0.005, 0.001, n_turns, n_layers, gap)
    with pytest.raises(GeometryError):
        WindingGeometry(0.1, 0.1, 0.005, 0.001, n_turns, n_layers, gap)


def test_square_accepts_numpy_integer_counts():
    g = WindingGeometry(0.1, 0.1, 0.005, 0.001, 5, 2, 0.001)
    assert inductance_square(0.1, 0.005, 0.001, np.int64(5), np.int32(2), 0.001) == inductance(g)


def test_simplified_close_to_full():
    g = make_geometry(100.0, 100.0, 4.0, 2.0, 1.60, 5, 2)
    simplified = inductance(g, SIMPLIFIED_COEFFICIENTS)
    assert simplified * 1e6 == pytest.approx(9.877048821442576, rel=1e-12)
    assert simplified == pytest.approx(inductance(g), rel=0.03)


def test_simplified_single_layer_ignores_gap():
    bare = make_geometry(100.0, 100.0, 4.0, 2.0, None, 5, 1)
    gapped = make_geometry(100.0, 100.0, 4.0, 2.0, 1.6, 5, 1)
    assert inductance(gapped, SIMPLIFIED_COEFFICIENTS) == inductance(bare, SIMPLIFIED_COEFFICIENTS)


def test_mohan_golden():
    L = mohan_inductance(0.100, 0.044, 0.004, 0.002, 5)
    assert L * 1e6 == pytest.approx(2.708634306541381, rel=1e-12)
    L_nH = mohan_inductance_um(100e3, 44e3, 4e3, 2e3, 5)
    assert L_nH == pytest.approx(2708.6063675848213, rel=1e-12)


def test_mohan_cross_unit_agreement():
    L_si = mohan_inductance(0.100, 0.044, 0.004, 0.002, 5)
    L_um = mohan_inductance_um(100e3, 44e3, 4e3, 2e3, 5) * 1e-9
    assert abs(L_si - L_um) / L_um < 1e-3


def test_mohan_rejects_bad_inputs():
    # Both forms share the checks, and they do not depend on the unit.
    for args in [
        (0.1, 0.2, 0.004, 0.002, 5),
        (0.1, 0.044, -0.004, 0.002, 5),
        (math.nan, 0.044, 0.004, 0.002, 5),
        (0.1, math.nan, 0.004, 0.002, 5),
        (0.1, 0.044, math.nan, 0.002, 5),
        (0.1, 0.044, 0.004, math.nan, 5),
        (math.inf, 0.044, 0.004, 0.002, 5),
        (0.1, 0.044, math.inf, 0.002, 5),
        (0.1, 0.044, 0.004, math.inf, 5),
        (0.1, 0.044, 0.004, 0.002, 0),
        (0.1, 0.044, 0.004, 0.002, 2.5),
        (0.1, 0.044, 0.004, 0.002, True),
        (0.1, 0.044, 0.004, 0.002, "5"),
    ]:
        for estimate in (mohan_inductance, mohan_inductance_um):
            with pytest.raises(GeometryError):
                estimate(*args)


def test_from_dims_requires_gap_for_multilayer():
    with pytest.raises(IncompleteGeometryError):
        inductance_from_dims(0.1, 0.1, 0.044, 0.044, 0.004, 0.002, 5, 2)


def test_from_dims_broadcasts():
    D1 = np.array([0.10, 0.12, 0.16])
    d1 = D1 - 2 * 8 * (0.005 + 0.0005) + 2 * 0.0005
    out = inductance_from_dims(D1, 0.16, d1, 0.072, 0.005, 0.0005, 8, 2, 0.0016)
    assert out.shape == (3,)
    for i in range(3):
        scalar = inductance_from_dims(
            D1[i], 0.16, d1[i], 0.072, 0.005, 0.0005, 8, 2, 0.0016
        )
        # Vectorized and scalar power routines may differ in the last ulp.
        assert out[i] == pytest.approx(scalar, rel=1e-14)


@given(
    D1=st.floats(0.05, 0.2),
    extra=st.floats(0.0, 0.1),
    n_layers=st.integers(1, 4),
)
def test_positive_and_finite(D1, extra, n_layers):
    gap = 0.0016 if n_layers > 1 else None
    g = WindingGeometry(D1, D1 + extra, 0.003, 0.0005, 6, n_layers, gap)
    L = inductance(g)
    assert L > 0 and math.isfinite(L)


def test_named_coefficient_sets():
    assert SIMPLIFIED_COEFFICIENTS.as_tuple() == (
        1.7274, -0.592, -0.378, 1.175, 1.072, -0.183, 0.0, 1.8, 1.8, -0.006
    )
    assert MOHAN_COEFFICIENTS.as_tuple() == (
        1.5428, -1.21, 0.0, 2.4, 0.0, -0.147, -0.03, 1.78, 0.0, 0.0
    )


@st.composite
def windings(draw, n_layers=st.integers(1, 6)):
    """A random feasible winding, in meters."""
    w = draw(st.floats(1e-4, 6e-3))
    s = draw(st.floats(5e-5, 2e-3))
    nt = draw(st.integers(1, 12))
    nl = draw(n_layers)
    # Outer side D1 leaves an inner side of at least 0.1 mm.
    D1 = 2.0 * nt * (w + s) - 2.0 * s + draw(st.floats(1e-4, 0.2))
    D2 = D1 + draw(st.floats(0.0, 0.2))
    gap = draw(st.floats(1e-4, 3e-3)) if nl > 1 else None
    return WindingGeometry(D1, D2, w, s, nt, nl, gap)


@given(g=windings())
def test_simplified_matches_the_parent_closed_form(g):
    # The kernel raises N_T and N_L to 1.8 separately, and
    # N_T^1.8 * N_L^1.8 can differ from (N_T * N_L)^1.8 in the last bit.
    parent = reference.inductance_simplified(g)
    assert abs(inductance(g, SIMPLIFIED_COEFFICIENTS) - parent) <= 1e-15 * parent


@given(g=windings(n_layers=st.just(1)))
def test_mohan_matches_the_parent_closed_form_bit_for_bit(g):
    for D, d in ((g.D1, g.d1), (g.D2, g.d2)):
        assert mohan_inductance(D, d, g.w, g.s, g.n_turns) == reference.mohan_inductance(
            D, d, g.w, g.s, g.n_turns
        )


_lengths = st.floats(1e-6, 1.0)


@given(D=st.lists(_lengths, min_size=1, max_size=5), x=st.lists(_lengths, min_size=1, max_size=4),
       s=_lengths, nt=st.integers(1, 20))
def test_side_helpers_match_the_written_out_formulas(D, x, s, nt):
    # x is the width for inner_side and the inner side for mean_side.
    for D_, x_ in zip(D, x):
        assert inner_side(D_, nt, x_, s) == D_ - 2.0 * nt * (x_ + s) + 2.0 * s
        assert mean_side(D_, x_) == (D_ + x_) / 2.0
    # Broadcast arrays give the scalar result in every cell.
    D_col = np.array(D)[:, None]
    x_row = np.array(x)[None, :]
    inner = inner_side(D_col, nt, x_row, s)
    mean = mean_side(D_col, x_row)
    assert inner.shape == mean.shape == (len(D), len(x))
    for i, D_ in enumerate(D):
        for j, x_ in enumerate(x):
            assert inner[i, j] == D_ - 2.0 * nt * (x_ + s) + 2.0 * s
            assert mean[i, j] == (D_ + x_) / 2.0


_random_coefficients = st.builds(
    CoefficientSet,
    a0=st.floats(0.1, 10.0),
    **{f"a{i}": st.floats(-3.0, 3.0) for i in range(1, 10)},
)


@given(
    geometries=st.integers(1, 6).flatmap(
        lambda nl: st.lists(windings(n_layers=st.just(nl)), min_size=1, max_size=8)
    ),
    coefficients=st.one_of(
        st.sampled_from([DEFAULT_COEFFICIENTS, SIMPLIFIED_COEFFICIENTS, MOHAN_COEFFICIENTS]),
        _random_coefficients,
    ),
)
def test_from_dims_arrays_agree_with_scalars(geometries, coefficients):
    # The kernel on column arrays (as evaluate calls it) against one call
    # per winding.  NumPy's vectorised pow may differ from libm's pow by an
    # ulp in each of the ten factors, so the product may move by about
    # 10 ulps; 1e-14 relative is that bound with a margin.
    nl = geometries[0].n_layers
    columns = [np.array([getattr(g, name) for g in geometries], dtype=float)
               for name in ("D1", "D2", "d1", "d2", "w", "s", "n_turns")]
    gaps = np.array([g.layer_gap for g in geometries], dtype=float) if nl > 1 else None
    out = inductance_from_dims(*columns, nl, gaps, coefficients=coefficients)
    assert out.shape == (len(geometries),)
    for value, g in zip(out, geometries):
        scalar = inductance(g, coefficients)
        assert abs(value - scalar) <= 1e-14 * scalar


@given(g=windings(), coefficients=_random_coefficients)
def test_square_windings_follow_the_collapsed_square_form(g, coefficients):
    # At D1 = D2 = D the two outer-side factors merge into D^(a1 + a2) and the
    # two mean-side factors into Dbar^(a3 + a4), Dbar = (D + d) / 2.  Merging
    # powers moves the value by a few ulps, far inside 1e-12 relative.
    c = coefficients
    D, w, s, nt, nl, gap = g.D1, g.w, g.s, g.n_turns, g.n_layers, g.layer_gap
    d = D - 2.0 * nt * (w + s) + 2.0 * s
    collapsed = (
        c.a0 * MU0 * D ** (c.a1 + c.a2) * ((D + d) / 2.0) ** (c.a3 + c.a4)
        * w ** c.a5 * s ** c.a6 * nt ** c.a7 * nl ** c.a8
        * (gap ** (c.a9 * (nl - 1)) if nl > 1 else 1.0)
    )
    assert abs(inductance_square(D, w, s, nt, nl, gap, c) - collapsed) <= 1e-12 * collapsed


# a1 = a2 = -150: each factor stays finite, and their product is inf.
_BIG = replace(DEFAULT_COEFFICIENTS, a1=-150.0, a2=-150.0)


def test_a_model_value_outside_the_float_range_is_an_overflow():
    g = WindingGeometry(0.01, 0.01, 0.001, 0.0005, 2, 1)
    with pytest.raises(OverflowError, match=r"^L = inf H$"):
        inductance(g, _BIG)
    # w ** 150 underflows to 0.0, and inf * 0.0 is NaN.
    with pytest.raises(OverflowError, match=r"^L = nan H$"):
        inductance(g, replace(_BIG, a5=150.0))
    with pytest.raises(OverflowError, match=r"^L = inf H$"):
        inductance_square(0.01, 0.001, 0.0005, 2, 1, coefficients=_BIG)
    # Every factor is finite; their product is not.
    with pytest.raises(OverflowError, match=r"^L = inf H$"):
        mohan_inductance(1e100, 5e99, 1.0, 1.0, 10 ** 170)
    # An underflow to 0.0 is outside the range as well: log10 L has no value there.
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
        inductance(g, replace(DEFAULT_COEFFICIENTS, a1=150.0, a2=150.0))
    # One power passes the float range, O ** (a9 * 99999), where Python's ** raises:
    # inf, as NumPy's power gives, and NaN where w ** 150 underflows to 0.0 as well.
    many_layers = WindingGeometry(0.1, 0.1, 0.005, 0.001, 5, 100000, 0.0016)
    with pytest.raises(OverflowError, match=r"^L = inf H$"):
        inductance(many_layers)
    with pytest.raises(OverflowError, match=r"^L = nan H$"):
        inductance(many_layers, replace(DEFAULT_COEFFICIENTS, a5=150.0))


def test_require_in_range_is_the_rule_for_floats():
    assert require_in_range(5e-324) == 5e-324
    with pytest.raises(OverflowError, match=r"^L = inf H$"):
        require_in_range(math.inf)
    with pytest.raises(OverflowError, match=r"^L = nan H$"):
        require_in_range(math.nan)
    # 0.0 is outside (0, inf): log10 L has no value there.
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
        require_in_range(0.0)


@given(
    g=windings(),
    coefficients=st.builds(
        CoefficientSet,
        a0=st.floats(0.1, 10.0),
        **{f"a{i}": st.floats(-200.0, 200.0) for i in range(1, 10)},
    ),
)
def test_inductance_is_a_finite_float_or_raises(g, coefficients):
    # Exponents up to 200 put L far outside the float range both ways.
    try:
        L = inductance(g, coefficients)
    except OverflowError:
        return
    assert type(L) is float and 0.0 < L < math.inf
