import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from planarwind import (
    DEFAULT_COEFFICIENTS,
    CoefficientSet,
    InfeasibleProblemError,
    OptimizationProblem,
    brute_force_max,
    default_problem,
    feasible,
    inductance,
    inductance_from_dims,
    maximize,
)
from planarwind.optimizer import (
    DEFAULT_RESOLUTION,
    _TINY,
    _box,
    _linear_system,
    _objective,
    _provably_empty,
    resolution_steps,
)
from planarwind.units import m_to_mm, mm_to_m


def small_problem(**overrides):
    kwargs = dict(
        bounds={
            "D1": (mm_to_m(10.0), mm_to_m(100.0)),
            "D2": (mm_to_m(10.0), mm_to_m(100.0)),
            "d1": (0.0, mm_to_m(100.0)),
            "d2": (0.0, mm_to_m(100.0)),
            "w": (mm_to_m(1.0), mm_to_m(5.0)),
            "s": (mm_to_m(0.1), mm_to_m(1.0)),
        },
        NT_domain=(5,),
        n_layers=1,
        layer_gap=None,
    )
    kwargs.update(overrides)
    return OptimizationProblem(**kwargs)


class TestProblemValidation:
    def test_missing_bound(self):
        bounds = {k: (0.01, 0.02) for k in ("D1", "D2", "d1", "d2", "w")}
        with pytest.raises(ValueError, match="missing"):
            OptimizationProblem(bounds, (5,), 1, None)

    def test_inverted_bounds(self):
        p = default_problem()
        bad = dict(p.bounds)
        bad["w"] = (0.005, 0.0025)
        with pytest.raises(ValueError, match="inverted"):
            OptimizationProblem(bad, p.NT_domain, p.n_layers, p.layer_gap)

    def test_negative_inner_lower_bound(self):
        p = default_problem()
        bad = dict(p.bounds)
        bad["d1"] = (-0.001, 0.05)
        with pytest.raises(ValueError, match="negative"):
            OptimizationProblem(bad, p.NT_domain, p.n_layers, p.layer_gap)

    def test_nonpositive_width_lower_bound(self):
        p = default_problem()
        bad = dict(p.bounds)
        bad["w"] = (0.0, 0.005)
        with pytest.raises(ValueError, match="positive"):
            OptimizationProblem(bad, p.NT_domain, p.n_layers, p.layer_gap)

    @pytest.mark.parametrize("key", ["D1", "d1", "w"])
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_bounds(self, key, index, value):
        p = default_problem()
        bad = dict(p.bounds)
        pair = list(bad[key])
        pair[index] = value
        bad[key] = tuple(pair)
        with pytest.raises(ValueError, match=key):
            OptimizationProblem(bad, p.NT_domain, p.n_layers, p.layer_gap)

    def test_turn_domain(self):
        with pytest.raises(ValueError, match="empty"):
            small_problem(NT_domain=())
        with pytest.raises(ValueError, match="positive"):
            small_problem(NT_domain=(0, 5))
        p = small_problem(NT_domain=(8, 3, 8, 5))
        assert p.NT_domain == (3, 5, 8)

    def test_layer_rules(self):
        with pytest.raises(ValueError):
            small_problem(n_layers=0)
        with pytest.raises(ValueError, match="layer_gap"):
            small_problem(n_layers=2)
        with pytest.raises(ValueError, match="layer_gap"):
            small_problem(n_layers=2, layer_gap=0.0)
        for gap in (math.nan, math.inf):
            with pytest.raises(ValueError, match="layer_gap"):
                small_problem(n_layers=2, layer_gap=gap)
        p = small_problem(n_layers=1, layer_gap=0.0005)
        assert p.layer_gap is None


class TestProblemMapping:
    def test_roundtrip_via_mapping(self):
        p = default_problem()
        mapping = p.to_mapping()
        assert mapping["D1"] == [12.0, 54.0]
        assert mapping["NT"] == [3, 4, 5, 6, 7, 8, 9, 10]
        assert mapping["NL"] == 4
        assert mapping["O_mm"] == 0.5
        back = OptimizationProblem.from_mapping(mapping)
        assert back.to_mapping() == mapping

    def test_single_layer_mapping_has_no_gap(self):
        mapping = small_problem().to_mapping()
        assert "O_mm" not in mapping
        back = OptimizationProblem.from_mapping(mapping)
        assert back.layer_gap is None and back.n_layers == 1

    def test_mapping_defaults_and_errors(self):
        base = {
            "D1": [12, 54], "D2": [55, 101], "d1": [10.5, 52],
            "d2": [54, 99], "w": [2.5, 5], "s": [0.1, 1],
            "NT": [3, 10], "NL": 1,
        }
        p = OptimizationProblem.from_mapping(base)
        assert p.coefficients == DEFAULT_COEFFICIENTS
        assert p.NT_domain == (3, 10)
        missing = {k: v for k, v in base.items() if k != "s"}
        with pytest.raises(ValueError, match="missing"):
            OptimizationProblem.from_mapping(missing)
        with pytest.raises(ValueError, match="NT"):
            OptimizationProblem.from_mapping({k: v for k, v in base.items() if k != "NT"})
        bad_pair = dict(base)
        bad_pair["w"] = 2.5
        with pytest.raises(ValueError, match="pair"):
            OptimizationProblem.from_mapping(bad_pair)
        multilayer = dict(base)
        multilayer["NL"] = 4
        with pytest.raises(ValueError, match="layer_gap"):
            OptimizationProblem.from_mapping(multilayer)


    @pytest.mark.parametrize("key, value", [
        ("NT", [8.7]),
        ("NT", [8.0]),
        ("NT", ["8"]),
        ("NT", [True]),
        ("NL", 4.9),
        ("NL", "4"),
        ("NL", True),
    ])
    def test_mapping_rejects_non_integer_counts(self, key, value):
        # Counts follow the WindingGeometry rule; nothing is truncated or coerced.
        mapping = default_problem().to_mapping()
        mapping[key] = value
        with pytest.raises(ValueError, match="NT_domain" if key == "NT" else "n_layers"):
            OptimizationProblem.from_mapping(mapping)

    @pytest.mark.parametrize("key, value", [
        ("NT", 8),
        ("NT", None),
        ("D1", [None, 54]),
        ("D1", ["12", 54]),
        ("w", [True, 5]),
        ("d2", [54, [99]]),
        ("O_mm", None),
        ("O_mm", "0.5"),
        ("O_mm", [0.5]),
        ("coefficients", 5),
        ("coefficients", [1.602]),
    ])
    def test_mapping_rejects_wrong_json_shapes(self, key, value):
        mapping = default_problem().to_mapping()
        mapping[key] = value
        with pytest.raises(ValueError, match=key):
            OptimizationProblem.from_mapping(mapping)

    def test_accepts_numpy_integer_counts(self):
        p = small_problem(NT_domain=(np.int64(6), np.int32(3)), n_layers=np.int64(2),
                          layer_gap=0.0005)
        assert p.NT_domain == (3, 6) and all(type(nt) is int for nt in p.NT_domain)
        assert p.n_layers == 2


class TestFeasible:
    def corner(self):
        return (mm_to_m(54.0), mm_to_m(101.0), mm_to_m(2.5), mm_to_m(0.1), 8)

    def test_reference_corner_is_feasible(self):
        ok, d1, d2 = feasible(self.corner(), default_problem())
        assert ok
        assert m_to_mm(d1) == pytest.approx(12.6, abs=1e-9)
        assert m_to_mm(d2) == pytest.approx(59.6, abs=1e-9)

    @pytest.mark.parametrize("index,value_mm", [
        (0, 11.0),    # D1 below its box
        (1, 102.0),   # D2 above its box
        (2, 2.4),     # w below its box
        (3, 1.1),     # s above its box
    ])
    def test_box_violations(self, index, value_mm):
        candidate = list(self.corner())
        candidate[index] = mm_to_m(value_mm)
        ok, _, _ = feasible(tuple(candidate), default_problem())
        assert not ok

    def test_inner_side_violation(self):
        # D2 at its lower bound leaves d2 = 13.6 mm, far below its 54 mm
        # floor, while every direct box bound still holds.
        candidate = (mm_to_m(54.0), mm_to_m(55.0), mm_to_m(2.5), mm_to_m(0.1), 8)
        ok, d1, d2 = feasible(candidate, default_problem())
        assert not ok
        assert m_to_mm(d2) == pytest.approx(13.6, abs=1e-9)

    def test_equal_sides_rejected(self):
        p = small_problem()
        square = (mm_to_m(50.0), mm_to_m(50.0), mm_to_m(2.0), mm_to_m(0.5), 5)
        ok, _, _ = feasible(square, p)
        assert not ok
        rectangle = (mm_to_m(50.0), mm_to_m(51.0), mm_to_m(2.0), mm_to_m(0.5), 5)
        ok, _, _ = feasible(rectangle, p)
        assert ok

    def test_turn_count_must_be_in_domain(self):
        candidate = (mm_to_m(50.0), mm_to_m(51.0), mm_to_m(2.0), mm_to_m(0.5), 4)
        ok, _, _ = feasible(candidate, small_problem(NT_domain=(5,)))
        assert not ok


class TestMaximize:
    def test_argument_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            maximize(small_problem(), restarts=0)
        with pytest.raises(ValueError, match="seed"):
            maximize(small_problem(), restarts=1, seed=-1)

    def test_reference_problem_optimum(self):
        result = maximize(default_problem(), restarts=20, seed=0)
        assert result.feasible_found
        g = result.best
        assert m_to_mm(g.D1) == pytest.approx(54.0, abs=1e-9)
        assert m_to_mm(g.D2) == pytest.approx(101.0, abs=1e-9)
        assert m_to_mm(g.w) == pytest.approx(2.5, abs=1e-9)
        assert m_to_mm(g.s) == pytest.approx(0.1, abs=1e-9)
        assert g.n_turns == 8
        assert m_to_mm(g.d1) == pytest.approx(12.6, abs=1e-6)
        assert m_to_mm(g.d2) == pytest.approx(59.6, abs=1e-6)
        assert result.L_best == inductance(g, DEFAULT_COEFFICIENTS)

    def test_bound_coordinates_are_snapped_exactly(self):
        result = maximize(default_problem(), restarts=5, seed=0)
        g = result.best
        assert g.D1 == mm_to_m(54.0)
        assert g.D2 == mm_to_m(101.0)
        assert g.w == mm_to_m(2.5)
        assert g.s == mm_to_m(0.1)

    def test_deterministic(self):
        first = maximize(default_problem(), restarts=5, seed=1)
        second = maximize(default_problem(), restarts=5, seed=1)
        assert first.to_mapping() == second.to_mapping()

    def test_prefix_property_of_restarts(self):
        # The first k restarts of a longer run are the k-restart run.
        short = maximize(default_problem(), restarts=3, seed=0)
        long = maximize(default_problem(), restarts=6, seed=0)
        prefix = [r for r in long.restarts if r.index < 3]
        assert prefix == list(short.restarts)
        assert long.L_best >= short.L_best

    def test_restart_accounting(self):
        p = default_problem()
        result = maximize(p, restarts=2, seed=3)
        assert result.restarts_run == len(p.NT_domain) * 2
        assert len(result.restarts) == result.restarts_run
        # N_T = 9 and 10 cannot fit this box, so they run no local search:
        # each record keeps its seeded start as its point.
        lo, hi = _box(p)
        for nt in (9, 10):
            records = [r for r in result.restarts if r.n_turns == nt]
            assert [r.index for r in records] == [0, 1]
            for r in records:
                assert not r.feasible and r.value is None
                assert r.point == r.start
                assert r.start == tuple(np.random.default_rng([3, nt, r.index]).uniform(lo, hi))

    def test_collapsed_box_returns_its_point(self):
        p = small_problem(
            bounds={
                "D1": (mm_to_m(20.0), mm_to_m(20.0)),
                "D2": (mm_to_m(30.0), mm_to_m(30.0)),
                "w": (mm_to_m(3.0), mm_to_m(3.0)),
                "s": (mm_to_m(0.5), mm_to_m(0.5)),
                "d1": (0.0, mm_to_m(100.0)),
                "d2": (0.0, mm_to_m(100.0)),
            },
            NT_domain=(2,),
        )
        result = maximize(p, restarts=1, seed=0)
        assert result.feasible_found
        assert result.best.D1 == mm_to_m(20.0)
        assert result.best.D2 == mm_to_m(30.0)
        assert result.best.w == mm_to_m(3.0)
        assert result.best.s == mm_to_m(0.5)
        assert result.restarts_run == 1

    def test_infeasible_box_reports_nothing_found(self):
        p = default_problem()
        bounds = dict(p.bounds)
        # d1 can reach at most 38.6 mm anywhere in this box.
        bounds["d1"] = (mm_to_m(53.0), mm_to_m(54.0))
        tight = OptimizationProblem(bounds, p.NT_domain, p.n_layers, p.layer_gap)
        result = maximize(tight, restarts=2, seed=0)
        assert not result.feasible_found
        assert result.best is None and result.L_best is None
        assert all(not r.feasible and r.value is None for r in result.restarts)
        with pytest.raises(InfeasibleProblemError):
            brute_force_max(tight)


class TestBruteForce:
    def test_agrees_with_local_search(self):
        resolution = {"D1": 1.0e-3, "D2": 1.0e-3, "w": 0.5e-3, "s": 0.3e-3}
        oracle = brute_force_max(default_problem(), resolution)
        search = maximize(default_problem(), restarts=10, seed=0)
        assert oracle.best.n_turns == search.best.n_turns == 8
        assert m_to_mm(oracle.best.D1) == pytest.approx(54.0, abs=1e-9)
        assert m_to_mm(oracle.best.D2) == pytest.approx(101.0, abs=1e-9)
        assert m_to_mm(oracle.best.w) == pytest.approx(2.5, abs=1e-9)
        assert m_to_mm(oracle.best.s) == pytest.approx(0.1, abs=1e-9)
        gap_pct = abs(search.L_best - oracle.L_best) / oracle.L_best * 100.0
        assert gap_pct <= 0.1
        # The local search is free of the grid, so it may only do better.
        assert search.L_best >= oracle.L_best - 1e-18

    def test_resolution_is_honored(self):
        # A 4 mm step on D1 puts the last grid line at 52 mm, short of the
        # 54 mm bound, so the argmax must sit on 52 mm.
        oracle = brute_force_max(default_problem(), {"D1": 4.0e-3})
        assert m_to_mm(oracle.best.D1) == pytest.approx(52.0, abs=1e-9)
        assert oracle.restarts_run == 0
        assert oracle.restarts == ()

    def test_unknown_resolution_key(self):
        with pytest.raises(ValueError, match="unknown resolution key"):
            brute_force_max(default_problem(), {"d1": 0.001})
        # Steps must be positive and finite on the 1 nm grid of the axes.
        for step in (0.0, -5e-4, 1e-303, 4e-10, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive"):
                brute_force_max(default_problem(), {"w": step})
        assert resolution_steps({"w": 1e-9})["w"] == 1e-9
        assert resolution_steps() == DEFAULT_RESOLUTION


class TestResultSerialization:
    def test_result_mapping_is_json_ready(self):
        result = maximize(default_problem(), restarts=2, seed=0)
        mapping = json.loads(json.dumps(result.to_mapping()))
        assert mapping["feasible_found"] is True
        best = mapping["best"]
        for key in ("D1_mm", "D2_mm", "d1_mm", "d2_mm", "w_mm", "s_mm", "N_T", "N_L", "O_mm"):
            assert key in best
        assert best["N_L"] == 4 and best["O_mm"] == 0.5
        assert mapping["L_best_uH"] > 0
        record = mapping["restarts"][0]
        assert set(record) == {"N_T", "index", "start_mm", "point_mm", "L_uH", "feasible"}

    def test_infeasible_mapping(self):
        p = default_problem()
        bounds = dict(p.bounds)
        bounds["d1"] = (mm_to_m(53.0), mm_to_m(54.0))
        tight = OptimizationProblem(bounds, (8,), p.n_layers, p.layer_gap)
        mapping = maximize(tight, restarts=1, seed=0).to_mapping()
        assert mapping["best"] is None
        assert mapping["L_best_uH"] is None
        assert mapping["restarts"][0]["L_uH"] is None


def _parent_objective(problem, nt, x):
    # The objective value as computed before gradients were added; the
    # value half of _objective must reproduce it bit for bit.
    D1 = max(x[0], _TINY)
    D2 = max(x[1], _TINY)
    w = max(x[2], _TINY)
    s = max(x[3], _TINY)
    d1 = max(D1 - 2.0 * nt * (w + s) + 2.0 * s, _TINY)
    d2 = max(D2 - 2.0 * nt * (w + s) + 2.0 * s, _TINY)
    L = inductance_from_dims(
        D1, D2, d1, d2, w, s, nt, problem.n_layers, problem.layer_gap,
        coefficients=problem.coefficients,
    )
    return -math.log10(L)


_exponent = st.floats(-3.0, 3.0)
_coefficient_sets = st.builds(
    CoefficientSet,
    a0=st.floats(0.1, 10.0),
    **{f"a{i}": _exponent for i in range(1, 10)},
)
# Fractions of the default box per coordinate; outside [0, 1] the point
# leaves the box, and far enough out the _TINY clamps engage.
_fractions = st.tuples(*[st.floats(-1.5, 2.0)] * 4)


@given(coefficients=_coefficient_sets, nt=st.integers(1, 12),
       n_layers=st.integers(1, 4), t=_fractions)
@example(coefficients=DEFAULT_COEFFICIENTS, nt=8, n_layers=4, t=(1.0, 1.0, 0.0, 0.0))
@example(coefficients=DEFAULT_COEFFICIENTS, nt=8, n_layers=4, t=(0.5, 0.5, -1.5, 0.5))
@example(coefficients=DEFAULT_COEFFICIENTS, nt=12, n_layers=1, t=(-1.5, 0.2, 1.0, 1.0))
def test_objective_gradient_matches_central_differences(coefficients, nt, n_layers, t):
    base = default_problem()
    problem = OptimizationProblem(
        base.bounds, (nt,), n_layers, base.layer_gap if n_layers > 1 else None, coefficients
    )
    lo, hi = _box(problem)
    x = lo + np.array(t) * (hi - lo)
    h = 1e-8  # m
    # Keep every clamp boundary out of reach of the difference stencil,
    # and unclamped lengths long enough for the stencil to resolve.
    clamped = np.maximum(x, _TINY)
    raws = clamped[:2] - 2.0 * nt * (clamped[2] + clamped[3]) + 2.0 * clamped[3]
    assume(all(v <= _TINY - 1e-6 or v >= 1e-4 for v in x))
    assume(all(abs(v - _TINY) > 1e-6 for v in raws))

    objective = _objective(problem, nt)
    value, grad = objective(x)
    assert value == _parent_objective(problem, nt, x)
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        central = (objective(x + step)[0] - objective(x - step)[0]) / (2.0 * h)
        assert grad[i] == pytest.approx(central, rel=1e-6, abs=1e-5)
        if x[i] <= _TINY:
            assert grad[i] == 0.0


@given(
    D1=st.tuples(st.integers(1, 1000), st.integers(0, 500)),
    D2=st.tuples(st.integers(1, 1000), st.integers(0, 500)),
    d1=st.tuples(st.integers(0, 1000), st.integers(0, 500)),
    d2=st.tuples(st.integers(0, 1000), st.integers(0, 500)),
    w=st.tuples(st.integers(1, 50), st.integers(0, 30)),
    s=st.tuples(st.integers(1, 10), st.integers(0, 10)),
    nt=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
)
# Here d1 meets its floor exactly at the corner (30, 41, 1, 0.5 mm) that
# feasible() accepts, while the rounded row maximum falls just below it.
@example(D1=(200, 100), D2=(310, 100), d1=(250, 50), d2=(0, 500),
         w=(10, 10), s=(5, 5), nt=2, seed=0)
def test_emptiness_check_is_sound(D1, D2, d1, d2, w, s, nt, seed):
    # Bounds are whole tenths of a mm, so a box edge often meets a
    # constraint floor exactly, which is where rounding could mislead.
    pairs = {"D1": D1, "D2": D2, "d1": d1, "d2": d2, "w": w, "s": s}
    bounds = {key: (mm_to_m(lower / 10.0), mm_to_m((lower + width) / 10.0))
              for key, (lower, width) in pairs.items()}
    problem = OptimizationProblem(bounds, (nt,), 1, None)
    lo, hi = _box(problem)
    if not _provably_empty(*_linear_system(problem, nt), lo, hi):
        return
    with pytest.raises(InfeasibleProblemError):
        brute_force_max(problem, {"D1": 1.0e-3, "D2": 1.0e-3, "w": 0.5e-3, "s": 0.3e-3})
    corners = [np.where(mask, hi, lo) for mask in itertools.product((False, True), repeat=4)]
    points = np.vstack([corners, np.random.default_rng(seed).uniform(lo, hi, size=(200, 4))])
    for D1_, D2_, w_, s_ in points:
        ok, _, _ = feasible((D1_, D2_, w_, s_, nt), problem)
        assert not ok


def test_default_problem_skips_only_nine_and_ten_turns():
    p = default_problem()
    lo, hi = _box(p)
    skipped = [nt for nt in p.NT_domain if _provably_empty(*_linear_system(p, nt), lo, hi)]
    assert skipped == [9, 10]
