import itertools
import json
import math
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from planarwind import (
    DEFAULT_COEFFICIENTS,
    CoefficientSet,
    MOHAN_COEFFICIENTS,
    InfeasibleProblemError,
    OptimizationProblem,
    WindingGeometry,
    brute_force_max,
    default_problem,
    feasible,
    inductance,
    maximize,
)
from planarwind.optimizer import (
    DEFAULT_RESOLUTION,
    MAX_GRID_POINTS,
    _TINY,
    _axis_layout,
    _best_point,
    _box,
    _linear_system,
    _objective,
    _provably_empty,
    _result,
    oracle_steps,
)
from planarwind.units import m_to_mm, mm_to_m

import reference


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


def _forks(monkeypatch, cpus):
    """Make maximize see ``cpus`` CPUs; returns the list of forks made from here on."""
    monkeypatch.setattr("planarwind.optimizer._cpus", lambda: cpus)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


class TestProblemValidation:
    def test_missing_bound(self):
        bounds = {k: (0.01, 0.02) for k in ("D1", "D2", "d1", "d2", "w")}
        with pytest.raises(ValueError, match="missing"):
            OptimizationProblem(bounds, (5,), 1, None)

    def test_unknown_bound(self):
        bounds = dict(default_problem().bounds, O=(0.01, 0.02))
        with pytest.raises(ValueError, match="^bounds has unknown key 'O'$"):
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

    @pytest.mark.parametrize("NL", [{"NL": 1}, {}])
    def test_mapping_rejects_a_gap_on_a_single_layer(self, NL):
        mapping = {k: v for k, v in default_problem().to_mapping().items() if k != "NL"}
        with pytest.raises(ValueError, match="O_mm, which needs NL >= 2, but "
                                             + ("NL is 1" if NL else "no NL")):
            OptimizationProblem.from_mapping({**mapping, **NL})
        # The constructor still drops it, as WindingGeometry does.
        problem = replace(default_problem(), n_layers=1)
        assert problem.layer_gap is None

    def test_mapping_names_missing_and_unknown_keys(self):
        mapping = default_problem().to_mapping()
        mapping["N_L"], mapping["O"] = mapping.pop("NL"), mapping.pop("O_mm")
        with pytest.raises(ValueError, match="^problem has unknown keys 'N_L', 'O'$"):
            OptimizationProblem.from_mapping(mapping)
        mapping = default_problem().to_mapping()
        mapping["coefficients"]["a10"] = 0.0
        with pytest.raises(ValueError, match="^coefficient set has unknown key 'a10'$"):
            OptimizationProblem.from_mapping(mapping)
        del mapping["D1"], mapping["NT"]
        with pytest.raises(ValueError, match="^problem is missing D1, NT$"):
            OptimizationProblem.from_mapping(mapping)


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
        # Counts must be JSON integers; nothing is truncated or coerced.
        mapping = default_problem().to_mapping()
        mapping[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be a JSON integer, got "):
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

    @pytest.mark.parametrize("restarts", [True, 2.0, "2", None])
    def test_restarts_must_be_an_integer(self, restarts):
        # True is an int to Python, and would run one restart per N_T.
        with pytest.raises(ValueError, match="^restarts must be an integer >= 1, got "):
            maximize(small_problem(), restarts=restarts)

    @pytest.mark.parametrize("seed", [False, 0.0, 1.5, "0", None])
    def test_seed_must_be_an_integer(self, seed):
        # NumPy's seeding would raise TypeError for a float.
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            maximize(small_problem(), restarts=1, seed=seed)

    def test_numpy_integer_arguments_are_accepted(self):
        result = maximize(small_problem(), restarts=np.int64(1), seed=np.uint8(3))
        assert result.to_mapping() == maximize(small_problem(), restarts=1, seed=3).to_mapping()

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

    def test_each_feasible_restart_is_scored_as_the_best_is(self):
        # One scoring path: inductance() on the restart's winding, as _result scores the best.
        p = default_problem()
        result = maximize(p, restarts=3, seed=1)
        feasible_records = [r for r in result.restarts if r.feasible]
        assert feasible_records
        for r in feasible_records:
            g = WindingGeometry(*r.point, r.n_turns, p.n_layers, p.layer_gap)
            assert type(r.value) is float and r.value == inductance(g, p.coefficients)
        assert result.L_best == max(r.value for r in feasible_records)

    # With three CPUs the error comes from a worker, and is raised as it is in process.
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_model_outside_the_float_range_is_an_overflow(self, monkeypatch, cpus):
        forks = _forks(monkeypatch, cpus)
        # a1 = a2 = -150: each factor stays finite, and their product is inf.
        problem = replace(default_problem(),
                          coefficients=replace(DEFAULT_COEFFICIENTS, a1=-150.0, a2=-150.0))
        with pytest.raises(OverflowError, match=r"^L = inf H$") as caught:
            maximize(problem, restarts=100)
        assert caught.type is OverflowError
        assert len(forks) == (0 if cpus == 1 else 3)
        assert multiprocessing.active_children() == []


class TestWorkers:
    # Three CPUs put the pool in place on any host; one forces the in-process path.
    @pytest.mark.parametrize("problem, seed", [
        (default_problem(), 0),
        (default_problem(), 1),
        (default_problem(), 1001),
        (replace(default_problem(), n_layers=1, layer_gap=None), 0),
        (replace(default_problem(), coefficients=MOHAN_COEFFICIENTS), 0),
    ])
    def test_pooled_and_in_process_results_are_identical(self, monkeypatch, problem, seed):
        forks = _forks(monkeypatch, 3)
        pooled = maximize(problem, restarts=100, seed=seed).to_mapping()
        assert len(forks) == 3
        monkeypatch.setattr("planarwind.optimizer._cpus", lambda: 1)
        in_process = maximize(problem, restarts=100, seed=seed).to_mapping()
        assert len(forks) == 3
        assert json.dumps(pooled) == json.dumps(in_process)

    @pytest.mark.parametrize("cpus, problem, restarts, expected", [
        (1, default_problem(), 2, 0),
        # One search per N_T and CPU, at most one per restart.
        (3, default_problem(), 2, 3),
        (3, small_problem(), 1, 0),
        (3, small_problem(), 2, 2),
        # N_T 9 and 10 are skipped (test_restart_accounting checks their
        # records), so only N_T 8's searches count for workers.
        (3, replace(default_problem(), NT_domain=(8, 9, 10)), 1, 0),
        (3, replace(default_problem(), NT_domain=(8, 9, 10)), 2, 2),
        (3, replace(default_problem(), NT_domain=(9, 10)), 100, 0),
    ])
    def test_one_worker_per_cpu_capped_at_the_number_of_searches(
        self, monkeypatch, cpus, problem, restarts, expected
    ):
        forks = _forks(monkeypatch, cpus)
        result = maximize(problem, restarts=restarts, seed=0)
        assert len(forks) == expected
        assert multiprocessing.active_children() == []
        assert [(r.n_turns, r.index) for r in result.restarts] == [
            (nt, index) for nt in problem.NT_domain for index in range(restarts)
        ]

    def test_without_fork_the_searches_run_in_process(self, monkeypatch):
        forks = _forks(monkeypatch, 3)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        result = maximize(default_problem(), restarts=5, seed=0)
        assert forks == []
        monkeypatch.setattr("planarwind.optimizer._cpus", lambda: 1)
        assert result.to_mapping() == maximize(default_problem(), restarts=5, seed=0).to_mapping()


# The optimum of this set lies at N_T = 3 with d1 on its 10.5 mm floor.
_INNER_BOUND_SET = dict(a1=-2.6, a2=-1.7, a3=0.08, a4=2.6, a5=0.23, a6=-0.7)


# No grid point beats the continuous optimum, so maximize may fall below the
# grid oracle only by its own inaccuracy: SLSQP stops at acc=1e-12 on
# -log10 L, and a restart moved onto an inner-side bound sits within a few
# ulps of it, both far within this relative shortfall.  A lost optimum
# misses by far more: 0.4% to 51% on such sets before restarts that end on
# an inner-side bound were kept, or no feasible point at all.
_SHORTFALL = 1e-5


@settings(max_examples=20)
@given(a1=st.floats(-3.0, 0.5), a2=st.floats(-3.0, 0.5), a3=st.floats(0.0, 3.0),
       a4=st.floats(0.0, 3.0), a5=st.floats(-1.0, 1.0), a6=st.floats(-1.0, 1.0))
@example(**_INNER_BOUND_SET)
def test_maximize_is_not_below_the_oracle(a1, a2, a3, a4, a5, a6):
    problem = replace(default_problem(), coefficients=replace(
        DEFAULT_COEFFICIENTS, a1=a1, a2=a2, a3=a3, a4=a4, a5=a5, a6=a6,
    ))
    result = maximize(problem, restarts=50, seed=0)
    oracle = brute_force_max(problem)
    assert result.feasible_found
    assert result.L_best >= oracle.L_best * (1.0 - _SHORTFALL)


# Default coefficients on the default box at N_T 3 and 4, with one inner
# side capped below where the optimum would put it, so that most restarts
# end on that cap.  Before they were kept, 47 and 30 of 200 were feasible.
@pytest.mark.parametrize("key, cap_mm", [("d1", 30.0), ("d2", 70.0)])
def test_restarts_that_end_on_an_inner_side_cap_are_feasible(key, cap_mm):
    bounds = dict(default_problem().bounds)
    bounds[key] = (bounds[key][0], mm_to_m(cap_mm))
    problem = replace(default_problem(), bounds=bounds, NT_domain=(3, 4))
    result = maximize(problem, restarts=100, seed=0)
    assert sum(r.feasible for r in result.restarts) >= 180
    assert getattr(result.best, key) <= mm_to_m(cap_mm)
    assert result.L_best >= brute_force_max(problem).L_best


class TestBruteForce:
    def test_a_best_that_underflows_to_0_is_an_overflow(self):
        # a1 = a2 = 150: every L in the default box underflows to 0.0, which
        # is no model value, for the oracle as for maximize.
        problem = replace(default_problem(), coefficients=replace(
            DEFAULT_COEFFICIENTS, a1=150.0, a2=150.0,
        ))
        with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
            brute_force_max(problem)
        with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
            maximize(problem, restarts=2)

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
        # A 1 nm step on w needs a box that is one point wide in w.
        bounds = dict(default_problem().bounds, w=(2.5e-3, 2.5e-3))
        assert oracle_steps(replace(default_problem(), bounds=bounds), {"w": 1e-9})["w"] == 1e-9
        assert oracle_steps(default_problem()) == DEFAULT_RESOLUTION

    # Only the point counts are computed here; no grid is allocated.
    def test_grid_size_is_limited_before_allocation(self):
        # The default side grids, 85 or 93 x 26 x 10 points, are within the limit.
        assert oracle_steps(default_problem()) == DEFAULT_RESOLUTION
        assert oracle_steps(default_problem(), {"D1": 1e-3}) == {**DEFAULT_RESOLUTION, "D1": 1e-3}
        with pytest.raises(ValueError, match="side grid has 10920260 .D, w, s. points, above"):
            brute_force_max(default_problem(), {"D1": 1e-6})
        # Exactly MAX_GRID_POINTS on each side passes and one more D2 line does not.
        bounds = dict(default_problem().bounds)
        bounds.update(D1=(1e-3, 8192e-3), D2=(9000e-3, 17191e-3), w=(1e-3, 16e-3), s=(1e-3, 16e-3))
        problem = replace(default_problem(), bounds=bounds)
        steps = {"D1": 1e-3, "D2": 1e-3, "w": 1e-3, "s": 1e-3}
        assert 8192 * 16 * 16 == MAX_GRID_POINTS
        assert oracle_steps(problem, steps) == steps
        bounds["D2"] = (9000e-3, 17192e-3)
        with pytest.raises(ValueError, match="side grid has 2097408 "):
            oracle_steps(replace(problem, bounds=bounds), steps)

    def test_a_grid_of_50_million_points_per_nt_runs(self):
        # 421 x 461 x 26 x 10 = 50,461,060 points per N_T, while each side
        # grid has at most 119,860; nothing over (D1, D2, w, s) is allocated.
        result = brute_force_max(default_problem(), {"D1": 1e-4, "D2": 1e-4})
        g = result.best
        assert (g.D1, g.D2, g.w, g.s, g.n_turns) == (0.054, 0.101, 0.0025, 0.0001, 8)
        assert result.L_best == inductance(g, DEFAULT_COEFFICIENTS)

    @pytest.mark.parametrize("exponents", [
        # D1 ** -200 overflows, so a side-1 factor is inf or nan.
        {"a1": -200.0, "a3": 300.0},
        # Every feasible factor is finite, below 1e231; some products are not.
        {"a1": -150.0, "a2": -150.0},
    ])
    def test_a_model_outside_the_float_range_is_an_overflow(self, exponents):
        problem = replace(default_problem(),
                          coefficients=replace(DEFAULT_COEFFICIENTS, **exponents))
        with pytest.raises(OverflowError, match="^the model is not finite at a feasible grid"):
            brute_force_max(problem)


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


_exponent = st.floats(-3.0, 3.0)
_coefficient_sets = st.builds(
    CoefficientSet,
    a0=st.floats(0.1, 10.0),
    **{f"a{i}": _exponent for i in range(1, 10)},
)
# Fractions of the default box per coordinate: SLSQP evaluates the
# objective only inside the box.
_fractions = st.tuples(*[st.floats(0.0, 1.0)] * 4)


@given(coefficients=_coefficient_sets, nt=st.integers(1, 12),
       n_layers=st.integers(1, 4), t=_fractions)
@example(coefficients=DEFAULT_COEFFICIENTS, nt=8, n_layers=4, t=(1.0, 1.0, 0.0, 0.0))
# Both inner sides are held by their clamps.
@example(coefficients=DEFAULT_COEFFICIENTS, nt=12, n_layers=1, t=(0.0, 0.2, 1.0, 1.0))
def test_objective_gradient_matches_central_differences(coefficients, nt, n_layers, t):
    base = default_problem()
    problem = OptimizationProblem(
        base.bounds, (nt,), n_layers, base.layer_gap if n_layers > 1 else None, coefficients
    )
    lo, hi = _box(problem)
    x = lo + np.array(t) * (hi - lo)
    h = 1e-8  # m
    # Keep each inner-side clamp boundary out of reach of the difference stencil.
    raws = x[:2] - 2.0 * nt * (x[2] + x[3]) + 2.0 * x[3]
    assume(all(abs(v - _TINY) > 1e-6 for v in raws))

    objective, gradient = _objective(problem, nt)
    grad = gradient(x)
    assert objective(x) == reference.objective(problem, nt, x)
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        central = (objective(x + step) - objective(x - step)) / (2.0 * h)
        assert grad[i] == pytest.approx(central, rel=1e-6, abs=1e-5)


@pytest.mark.parametrize("exponent, value", [(150.0, math.inf), (-150.0, -math.inf)])
def test_objective_is_infinite_where_the_kernel_leaves_the_float_range(exponent, value):
    # D1 ** 150 * D2 ** 150 underflows to 0.0 and D1 ** -150 * D2 ** -150
    # overflows: -log10 L is +inf and -inf, and neither raises mid-search.
    problem = replace(default_problem(), coefficients=replace(
        DEFAULT_COEFFICIENTS, a1=exponent, a2=exponent,
    ))
    x = np.array([mm_to_m(30.0), mm_to_m(60.0), mm_to_m(3.0), mm_to_m(0.2)])
    with np.errstate(over="ignore"):
        assert _objective(problem, 3)[0](x) == value


@pytest.mark.parametrize("coefficients", [
    DEFAULT_COEFFICIENTS, replace(DEFAULT_COEFFICIENTS, **_INNER_BOUND_SET),
], ids=["default", "inner bound"])
def test_slsqp_evaluates_the_objective_only_inside_the_box(monkeypatch, coefficients):
    # _objective clamps no coordinate.  It relies on SLSQP clipping every point
    # it hands the value and the gradient to the box, whose lower bounds are
    # positive; a SciPy release that stopped clipping would fail here.
    points = []

    def recorded(function):
        def wrapper(x):
            points.append(np.array(x, dtype=float))
            return function(x)
        return wrapper

    def objective(problem, nt):
        return tuple(map(recorded, _objective(problem, nt)))

    monkeypatch.setattr("planarwind.optimizer._cpus", lambda: 1)
    monkeypatch.setattr("planarwind.optimizer._objective", objective)
    problem = replace(default_problem(), coefficients=coefficients)
    maximize(problem, restarts=50, seed=0)
    lo, hi = _box(problem)
    assert len(points) > 1000
    assert all(np.all((lo <= x) & (x <= hi) & (x > _TINY)) for x in points)


# Small pools of values and points, so that both repeat.
_pick_pairs = st.lists(st.tuples(
    st.sampled_from([0.0, 1e-7, 2.5]) | st.floats(0.0, 1e3),
    st.tuples(st.sampled_from([1e-3, 2e-3]), st.sampled_from([3e-3, 4e-3]),
              st.just(5e-4), st.sampled_from([1e-4, 2e-4]), st.integers(3, 4)),
))


@given(pairs=_pick_pairs)
@example(pairs=[])
# Two equal pairs whose points are distinct objects: the first is picked.
@example(pairs=[(2.5, tuple(point)) for point in [[1e-3, 3e-3, 5e-4, 1e-4, 3]] * 2])
def test_the_pick_is_the_reference_comparator_folded_in_order(pairs):
    best_value = best_point = None
    for value, point in pairs:
        if reference._better(value, point, best_value, best_point):
            best_value, best_point = value, point
    assert _best_point(iter(pairs)) is best_point


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


_ORACLE_STEPS = {"D1": 1.0e-3, "D2": 1.0e-3, "w": 0.5e-3, "s": 0.3e-3}


@st.composite
def _oracle_coefficients(draw):
    a = {f"a{i}": draw(_exponent) for i in range(1, 10)}
    kind = draw(st.sampled_from(["free", "flat in D2", "a1 + a3 <= 0"]))
    if kind == "flat in D2":
        # L does not depend on D2: exact ties along the whole D2 axis.
        a.update(a2=0.0, a4=0.0)
    elif kind == "a1 + a3 <= 0":
        a["a3"] = -a["a1"] - draw(st.floats(0.0, 2.0))
    return CoefficientSet(a0=draw(st.floats(0.1, 10.0)), **a)


def _tenth_mm_box(D1, D2, d1, d2, w, s):
    # Each argument is (lower, width) in tenths of a mm.
    pairs = {"D1": D1, "D2": D2, "d1": d1, "d2": d2, "w": w, "s": s}
    return {key: (mm_to_m(lower / 10.0), mm_to_m((lower + width) / 10.0))
            for key, (lower, width) in pairs.items()}


@st.composite
def _oracle_boxes(draw):
    # D2's range starts from 20 mm below D1's lower bound to 40 mm above
    # it, so the ranges often overlap and D1 < D2 binds.  Each inner-side
    # range starts up to 40 mm below its outer side's, so most boxes have
    # feasible points at some N_T but not at every one.
    D1 = (draw(st.integers(50, 600)), draw(st.integers(0, 300)))
    D2 = (max(D1[0] + draw(st.integers(-200, 400)), 10), draw(st.integers(0, 300)))
    d1 = (max(D1[0] - draw(st.integers(0, 400)), 0), draw(st.integers(0, 600)))
    d2 = (max(D2[0] - draw(st.integers(0, 400)), 0), draw(st.integers(0, 600)))
    w = (draw(st.integers(1, 30)), draw(st.integers(0, 20)))
    s = (draw(st.integers(1, 10)), draw(st.integers(0, 10)))
    return _tenth_mm_box(D1, D2, d1, d2, w, s)


# About half the drawn boxes have a feasible point; 200 examples give
# about 100 compared optima.
@settings(max_examples=200)
@given(
    bounds=_oracle_boxes(),
    NT=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    NL=st.integers(1, 4),
    gap=st.integers(1, 20),
    coefficients=_oracle_coefficients(),
)
# D1 < D2 binds on the overlap of 40-60 mm and 50-70 mm.
@example(bounds=_tenth_mm_box((400, 200), (500, 200), (0, 600), (0, 600), (10, 20), (1, 9)),
         NT=[2, 3], NL=2, gap=5, coefficients=DEFAULT_COEFFICIENTS)
# N_T 8 is empty, since its inner sides cannot reach 20 mm; N_T 2 is not.
@example(bounds=_tenth_mm_box((200, 100), (350, 100), (200, 100), (200, 300), (20, 10), (5, 5)),
         NT=[2, 8], NL=1, gap=1, coefficients=DEFAULT_COEFFICIENTS)
# No N_T has a feasible point: d1 cannot reach 50 mm.
@example(bounds=_tenth_mm_box((300, 100), (500, 100), (500, 100), (0, 600), (10, 10), (1, 9)),
         NT=[1, 4], NL=3, gap=5, coefficients=DEFAULT_COEFFICIENTS)
# The reference task on a smaller box with a2 = a4 = 0: the ties along D2
# go to its lowest feasible value, 62 mm.
@example(bounds=_tenth_mm_box((420, 120), (550, 200), (105, 415), (200, 500), (25, 10), (1, 9)),
         NT=[7, 8], NL=4, gap=5, coefficients=replace(DEFAULT_COEFFICIENTS, a2=0.0, a4=0.0))
# D2 starts at D1's lower bound, where no D1 lies below it, and L falls
# with D2: the optimum is the lowest pair, 30 and 31 mm.
@example(bounds=_tenth_mm_box((300, 100), (300, 100), (0, 600), (0, 600), (10, 10), (1, 9)),
         NT=[2], NL=1, gap=1, coefficients=replace(DEFAULT_COEFFICIENTS, a2=-3.0))
# At N_T = 1, s drops out of d = D - 2*w, so with a6 = 0 the two s values
# tie in exact arithmetic; the rounding of d and of the product orders
# them differently in the two oracles.
@example(bounds=_tenth_mm_box((272, 0), (273, 0), (0, 205), (0, 206), (14, 20), (5, 3)),
         NT=[1], NL=1, gap=1,
         coefficients=CoefficientSet(1.5, 0.0, 1.0, -0.875, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
# With a1 = a2 = -3, L falls with D1, so the optimum sits on d1's floor:
# at D1 = 45.6 mm, d1 = D1 - 13 mm equals the 32.6 mm bound exactly.
@example(bounds=_tenth_mm_box((366, 200), (434, 200), (326, 300), (0, 900), (17, 0), (7, 0)),
         NT=[3], NL=1, gap=1, coefficients=replace(DEFAULT_COEFFICIENTS, a1=-3.0, a2=-3.0))
def test_factored_oracle_matches_the_dense_reference(bounds, NT, NL, gap, coefficients):
    problem = OptimizationProblem(
        bounds, tuple(NT), NL, mm_to_m(gap / 10.0) if NL > 1 else None, coefficients
    )
    try:
        expected = reference.brute_force_max(problem, _ORACLE_STEPS)
    except InfeasibleProblemError:
        with pytest.raises(InfeasibleProblemError):
            brute_force_max(problem, _ORACLE_STEPS)
        return
    result = brute_force_max(problem, _ORACLE_STEPS)
    if result.best != expected.best:
        # The side factors multiply in another order than the kernel's one
        # chain, so two grid points whose L is equal in exact arithmetic
        # (an exponent of 0, or one of order 1e-16) may round the other
        # way round; so may two products of one side-2 factor with two
        # side-1 factors that differ in their last bits.  The two picks
        # must then tie within 45 float64 ulps, and the pick must be a
        # feasible point.
        g = result.best
        assert feasible((g.D1, g.D2, g.w, g.s, g.n_turns), problem)[0]
        assert result.L_best == pytest.approx(expected.L_best, rel=1e-14, abs=0.0)
        return
    assert result.L_best == expected.L_best
    assert result.to_mapping() == expected.to_mapping()


def _underflowed_pick(monkeypatch, problem):
    """The point brute_force_max picks on ``problem``, whose L there underflows to 0.0.

    The pick is scored by _result, which raises for it as it does for any
    model value outside (0, inf).
    """
    picks = []

    def spy(problem, best_point, records):
        picks.append(best_point)
        return _result(problem, best_point, records)

    monkeypatch.setattr("planarwind.optimizer._result", spy)
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$") as caught:
        brute_force_max(problem, _ORACLE_STEPS)
    # Not a GeometryError from an infeasible pick, and not the grid's own
    # check, which a NaN from -inf * 0.0 would trip.
    assert caught.type is OverflowError
    # The reference reaches the same verdict.
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
        reference.brute_force_max(problem, _ORACLE_STEPS)
    assert len(picks) == 1
    return picks[0]


def test_oracle_reads_feasibility_from_the_masks_when_every_product_underflows(monkeypatch):
    # With exponents of 150 every product is 0.0, so the argmax is the first
    # grid point, D1 = D2 = 30 mm, which D1 < D2 excludes.  The first
    # feasible point is the pick, as in the reference.
    bounds = dict(small_problem().bounds, D1=(0.03, 0.04), D2=(0.03, 0.04))
    coefficients = replace(DEFAULT_COEFFICIENTS, a1=150.0, a2=150.0)
    problem = small_problem(bounds=bounds, coefficients=coefficients)
    assert _underflowed_pick(monkeypatch, problem) == (0.03, 0.031, 0.001, 0.0001, 5)


@pytest.mark.parametrize("exponent", ["a1", "a2"])
def test_a_side_factor_of_0_is_still_feasible(monkeypatch, exponent):
    # An exponent of 300 on D1 or D2 makes that side's factor 0.0 everywhere.
    # d1 clears its 20 mm floor only from D1 = 31 mm, so D1 = 30 mm must not
    # win the tie at 0, and the 31 mm D2, with no feasible D1 below it, must
    # not turn -inf * 0.0 into a NaN.
    bounds = dict(small_problem().bounds, D1=(0.03, 0.04), D2=(0.03, 0.04), d1=(0.02, 0.1))
    coefficients = replace(DEFAULT_COEFFICIENTS, **{exponent: 300.0})
    problem = small_problem(bounds=bounds, coefficients=coefficients)
    assert _underflowed_pick(monkeypatch, problem) == (0.031, 0.032, 0.001, 0.0001, 5)


def _binding_problem():
    # D1 < D2 binds (D1 reaches 100 mm, D2 only 80 mm) and so do the
    # upper bounds of d1 and d2: the unmasked product peaks off the
    # feasible set, at D1 > D2 and at inner sides above their bounds.
    base = default_problem()
    bounds = _tenth_mm_box((400, 600), (500, 300), (100, 500), (200, 300), (10, 20), (1, 4))
    return replace(base, bounds=bounds, NT_domain=(3, 4))


def _oracle_peak_per_point(problem):
    # tracemalloc's peak during one call, in float64 values per point of
    # the larger side grid, (D1, w, s) or (D2, w, s).
    n = {key: _axis_layout(*problem.bounds[key], step)[3]
         for key, step in DEFAULT_RESOLUTION.items()}
    points = max(n["D1"], n["D2"]) * n["w"] * n["s"]
    tracemalloc.start()
    try:
        brute_force_max(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * points)


@pytest.mark.parametrize("problem", [default_problem(), _binding_problem()],
                         ids=["default", "binding"])
def test_oracle_memory_is_bounded_per_side_grid_point(problem):
    # About 6.4 on the default problem and 5.3 where D1 < D2 and the upper
    # d bounds bind.  An array over (D1, D2, w, s) would read |D1| times
    # that, and one N_T's side-grid arrays kept alive into the next N_T's
    # about 3.5 more.
    assert brute_force_max(problem) == reference.brute_force_max(problem)
    assert _oracle_peak_per_point(problem) <= 8.0


@pytest.mark.parametrize("flat, problem, side, first_mm", [
    # Every D1 from 40 to 58 mm ties; 40 mm is D1's lower bound.
    (("a1", "a3"), _binding_problem(), "D1", 40.0),
    # At N_T 8, w 2.5 and s 0.1 mm, d2 = D2 - 41.4 mm reaches its 54 mm
    # floor first at D2 = 95.5 mm on the 0.5 mm grid.
    (("a2", "a4"), default_problem(), "D2", 95.5),
])
def test_oracle_ties_go_to_the_first_grid_point(flat, problem, side, first_mm):
    # With one side's exponents 0, L is flat along that side's D, so every
    # feasible value of it ties exactly and the lowest one must win.
    problem = replace(problem, coefficients=replace(
        DEFAULT_COEFFICIENTS, **{name: 0.0 for name in flat}
    ))
    result = brute_force_max(problem)
    assert result == reference.brute_force_max(problem)
    assert m_to_mm(getattr(result.best, side)) == pytest.approx(first_mm, abs=1e-9)
