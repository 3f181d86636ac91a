import functools
import json
import math
import random
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from planarwind import (
    COEFFICIENT_NAMES,
    DEFAULT_COEFFICIENTS,
    MU0,
    CoefficientSet,
    GridSpec,
    RankDeficiencyError,
    Sample,
    WindingGeometry,
    build_design_matrix,
    default_corpus,
    error_pct,
    evaluate,
    fit_and_evaluate,
    fit_ols,
    generate_grid,
    inductance,
    repeated_fit,
    synth_labels,
)
from planarwind import regression
from planarwind.units import mm_to_m


def fit_corpus(noise=0.0, seed=0):
    spec = GridSpec(
        D1_values=(70.0, 80.0, 90.0, 100.0),
        D2_values=(70.0, 80.0, 90.0, 100.0),
        w_values=(3.0, 4.0),
        s_values=(0.1, 0.5),
        O_values=(0.5, 1.5),
        NT_values=(6, 8),
        NL_values=(1, 2, 3),
    )
    return synth_labels(generate_grid(spec), DEFAULT_COEFFICIENTS, noise, seed)


@functools.lru_cache(maxsize=None)
def _corpus_ab():
    return tuple(default_corpus())


def _parent_design_row(sample):
    """Logged features and response of one sample, row by row.

    The per-row construction that build_design_matrix replaced, kept as
    the reference its columns must equal bit for bit.
    """
    g = sample.geometry
    if g.n_layers == 1:
        x9 = 0.0
    else:
        x9 = (g.n_layers - 1) * math.log10(g.layer_gap)
    return (
        math.log10(g.D1),
        math.log10(g.D2),
        math.log10((g.D1 + g.d1) / 2.0),
        math.log10((g.D2 + g.d2) / 2.0),
        math.log10(g.w),
        math.log10(g.s),
        math.log10(g.n_turns),
        math.log10(g.n_layers),
        x9,
        math.log10(sample.L_ref),
    )


def _distinct(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(tuple)


@st.composite
def labeled_grids(draw):
    """A small random grid (mm), labeled under a random coefficient set with noise."""
    spec = GridSpec(
        D1_values=draw(_distinct(st.floats(20.0, 200.0), 3)),
        D2_values=draw(_distinct(st.floats(20.0, 200.0), 3)),
        w_values=draw(_distinct(st.floats(0.2, 5.0), 2)),
        s_values=draw(_distinct(st.floats(0.05, 2.0), 2)),
        O_values=draw(_distinct(st.floats(0.05, 3.0), 2)),
        NT_values=draw(_distinct(st.integers(1, 12), 3)),
        NL_values=draw(_distinct(st.integers(1, 6), 3)),
    )
    geometries = generate_grid(spec)
    assume(geometries)
    coefficients = CoefficientSet(
        a0=draw(st.floats(0.5, 3.0)),
        **{name: draw(st.floats(-2.0, 2.0)) for name in COEFFICIENT_NAMES[1:]},
    )
    noise = draw(st.floats(0.0, 0.05))
    seed = draw(st.integers(0, 2**32 - 1))
    return synth_labels(geometries, coefficients, noise, seed), coefficients


@given(labeled_grids())
def test_design_matrix_equals_parent_rows_bit_for_bit(corpus):
    samples, _ = corpus
    X, y = build_design_matrix(samples)
    rows = [_parent_design_row(sample) for sample in samples]
    X_parent = np.array([(1.0, *row[:9]) for row in rows])
    y_parent = np.array([row[9] for row in rows])
    assert X.tobytes() == X_parent.tobytes()
    assert y.tobytes() == y_parent.tobytes()


@given(labeled_grids())
def test_evaluate_agrees_with_per_sample_error(corpus):
    samples, coefficients = corpus
    expected = np.array([error_pct(sample, coefficients) for sample in samples])
    for sample, want in zip(samples, expected):
        assert abs(evaluate([sample], coefficients).mean_error_pct - want) <= 1e-12
    report = evaluate(samples, coefficients)
    assert abs(report.mean_error_pct - expected.mean()) <= 1e-12
    assert abs(report.std_error_pct - expected.std()) <= 1e-12
    assert abs(report.mae_pct - np.abs(expected).mean()) <= 1e-12
    layers = [sample.geometry.n_layers for sample in samples]
    assert report.exceedance_by_NL == {
        nl: sum(1 for e, n in zip(expected, layers) if n == nl and abs(e) > 5.0)
        for nl in set(layers)
    }


def test_evaluate_checks_that_the_model_is_finite():
    samples = fit_corpus()
    # a1 = a2 = -150: each factor stays finite, and their product is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=r"^L = inf H$"):
            evaluate(samples, replace(DEFAULT_COEFFICIENTS, a1=-150.0, a2=-150.0))
    # a1 = a2 = 150 underflows to 0.0, which is outside the range too: no
    # report of 100% errors.
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
        evaluate(samples, replace(DEFAULT_COEFFICIENTS, a1=150.0, a2=150.0))


def test_design_matrix_names_the_first_bad_label():
    samples = fit_corpus()[:3]
    # Sample rejects such a label, so the bad rows are stand-ins.
    bad = types.SimpleNamespace(geometry=samples[0].geometry, L_ref=math.nan)
    with pytest.raises(ValueError, match="sample 3: L_ref"):
        build_design_matrix(samples[:3] + [bad, bad])


class TestDesignRow:
    def test_exact_log_features(self):
        g = WindingGeometry(0.1, 0.1, 0.004, 0.001, 5, 1)
        X, y = build_design_matrix([Sample(g, 1e-6)])
        row = X[0]
        assert row[1] == -1.0
        assert row[2] == -1.0
        assert row[6] == -3.0
        assert row[9] == 0.0
        assert y[0] == -6.0

    def test_gap_term_scales_with_extra_layers(self):
        g = WindingGeometry(0.1, 0.1, 0.004, 0.001, 5, 3, 0.001)
        X, _ = build_design_matrix([Sample(g, 1e-6)])
        row = X[0]
        assert row[9] == -6.0
        assert row[8] == math.log10(3)

    def test_matrix_shape_and_intercept(self):
        samples = fit_corpus()[:20]
        X, y = build_design_matrix(samples)
        assert X.shape == (20, 10)
        assert y.shape == (20,)
        assert (X[:, 0] == 1.0).all()
        with pytest.raises(ValueError):
            build_design_matrix([])


class TestFitOls:
    def test_noiseless_closure(self):
        samples = fit_corpus()
        X, y = build_design_matrix(samples)
        recovered = fit_ols(X, y)
        for got, want in zip(recovered.as_tuple(), DEFAULT_COEFFICIENTS.as_tuple()):
            assert got == pytest.approx(want, rel=1e-10)

    @settings(max_examples=20)
    @given(
        a0=st.floats(0.1, 10.0),
        exponents=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
    )
    def test_noiseless_closure_under_random_sets(self, a0, exponents):
        # Corpus AB under any coefficient set: the fit returns that set.
        # Measured worst over 300 random sets: 3.3e-13 relative on a0,
        # 3.0e-13 absolute on an exponent.
        want = CoefficientSet(a0, *exponents)
        X, y = build_design_matrix(synth_labels(_corpus_ab(), want))
        got = fit_ols(X, y)
        assert got.a0 == pytest.approx(want.a0, rel=1e-10)
        for name in COEFFICIENT_NAMES[1:]:
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-10)

    def test_exp10_of_linear_predictor_matches_model(self):
        samples = fit_corpus()
        X, y = build_design_matrix(samples)
        recovered = fit_ols(X, y)
        c = np.array([math.log10(recovered.a0 * MU0), *recovered.as_tuple()[1:]])
        predicted = 10.0 ** (X @ c)
        for sample, value in zip(samples, predicted):
            assert value == pytest.approx(
                inductance(sample.geometry, recovered), rel=1e-12
            )

    def test_train_residuals_sum_to_zero(self):
        samples = fit_corpus(noise=0.0086, seed=3)
        X, y = build_design_matrix(samples)
        recovered = fit_ols(X, y)
        c = np.array([math.log10(recovered.a0 * MU0), *recovered.as_tuple()[1:]])
        residuals = y - X @ c
        assert abs(residuals.sum()) <= 1e-9 * np.abs(y).sum()

    def test_sample_order_does_not_matter(self):
        samples = fit_corpus(noise=0.0086, seed=3)
        shuffled = random.Random(0).sample(samples, len(samples))
        X1, y1 = build_design_matrix(samples)
        X2, y2 = build_design_matrix(shuffled)
        first = fit_ols(X1, y1).as_tuple()
        second = fit_ols(X2, y2).as_tuple()
        for a, b in zip(first, second):
            assert a == pytest.approx(b, abs=1e-10)

    def test_needs_more_rows_than_unknowns(self):
        samples = fit_corpus()[:10]
        X, y = build_design_matrix(samples)
        with pytest.raises(ValueError, match="more than 10"):
            fit_ols(X, y)
        with pytest.raises(ValueError, match="columns"):
            fit_ols(X[:, :4], y[:4])
        with pytest.raises(ValueError, match=r"y has shape \(9,\), expected \(10,\)"):
            fit_ols(X, y[:9])
        with pytest.raises(ValueError, match=r"y has shape \(10, 1\), expected \(10,\)"):
            fit_ols(X, y[:, None])

    def test_rank_deficiency_names_columns(self):
        # One trace width and a single layer count: log10_w is constant
        # (dependent on the intercept) and the layer columns are zero.
        spec = GridSpec(
            D1_values=(70.0, 80.0, 90.0),
            D2_values=(70.0, 80.0, 90.0),
            w_values=(3.0,),
            s_values=(0.1, 0.3),
            O_values=(1.0,),
            NT_values=(6, 8),
            NL_values=(1,),
        )
        samples = synth_labels(generate_grid(spec), DEFAULT_COEFFICIENTS)
        X, y = build_design_matrix(samples)
        with pytest.raises(RankDeficiencyError) as err:
            fit_ols(X, y)
        columns = set(err.value.columns)
        assert {"log10_NL", "gap_term"} <= columns
        assert columns & {"log10_w", "intercept"}
        assert err.value.rank == 7


class TestEvaluate:
    def make_samples(self):
        g = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
        L = inductance(g, DEFAULT_COEFFICIENTS)
        return [
            Sample(g, L),           # error 0%
            Sample(g, 2.0 * L),     # error +50%
            Sample(g, L / 2.0),     # error -100%
        ]

    def test_error_convention(self):
        samples = self.make_samples()
        assert error_pct(samples[0], DEFAULT_COEFFICIENTS) == 0.0
        assert error_pct(samples[1], DEFAULT_COEFFICIENTS) == 50.0
        assert error_pct(samples[2], DEFAULT_COEFFICIENTS) == -100.0

    def test_statistics(self):
        report = evaluate(self.make_samples(), DEFAULT_COEFFICIENTS)
        assert report.mean_error_pct == pytest.approx(-50.0 / 3.0)
        assert report.mae_pct == pytest.approx(50.0)
        expected_std = math.sqrt(((50.0 / 3) ** 2 + (50 + 50.0 / 3) ** 2 + (100 - 50.0 / 3) ** 2) / 3)
        assert report.std_error_pct == pytest.approx(expected_std)
        assert report.n_eval == 3
        assert report.n_train == 0 and report.seed is None and report.repeats == 0

    def test_histogram_bins(self):
        report = evaluate(self.make_samples(), DEFAULT_COEFFICIENTS, bin_width_pct=0.5)
        hist = report.histogram
        assert len(hist) == 301
        assert sum(count for _, _, count in hist) == 3
        assert hist[0] == (-100.25, -99.75, 1)
        assert hist[-1] == (49.75, 50.25, 1)
        zero_bin = hist[200]
        assert zero_bin == (-0.25, 0.25, 1)

    def test_exceedance_by_layer_count(self):
        g1 = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
        g2 = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 2, 0.0016)
        L1 = inductance(g1, DEFAULT_COEFFICIENTS)
        L2 = inductance(g2, DEFAULT_COEFFICIENTS)
        samples = [
            Sample(g1, L1),          # 0%
            Sample(g1, L1 * 1.2),    # about +17%
            Sample(g2, L2 * 1.01),   # about +1%
        ]
        report = evaluate(samples, DEFAULT_COEFFICIENTS, threshold_pct=5.0)
        assert report.exceedance_by_NL == {1: 1, 2: 0}

    def test_integer_exponents(self):
        # CoefficientSet accepts ints; a negative one must not meet an int
        # array of turn counts.
        coefficients = CoefficientSet(1, 1, 0, -1, 0, 1, 0, -1, -2, -1)
        samples = synth_labels([s.geometry for s in fit_corpus()], coefficients, 0.01, 3)
        expected = np.array([error_pct(sample, coefficients) for sample in samples])
        report = evaluate(samples, coefficients)
        assert abs(report.mean_error_pct - expected.mean()) <= 1e-12
        assert abs(report.mae_pct - np.abs(expected).mean()) <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evaluate([], DEFAULT_COEFFICIENTS)
        with pytest.raises(ValueError):
            evaluate(self.make_samples(), DEFAULT_COEFFICIENTS, bin_width_pct=0.0)
        with pytest.raises(ValueError):
            evaluate(self.make_samples(), DEFAULT_COEFFICIENTS, threshold_pct=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_are_rejected(self, value):
        # NaN fails every comparison, so as a threshold it would count no
        # exceedance, and as a bin width it makes NumPy warn while casting
        # the bin indices; an infinite width makes one unbounded bin.
        with pytest.raises(ValueError, match="^threshold_pct must be >= 0 and finite"):
            evaluate(self.make_samples(), DEFAULT_COEFFICIENTS, threshold_pct=value)
        with pytest.raises(ValueError, match="^bin_width_pct must be positive and finite"):
            evaluate(self.make_samples(), DEFAULT_COEFFICIENTS, bin_width_pct=value)
        report = evaluate(self.make_samples(), DEFAULT_COEFFICIENTS, threshold_pct=0.0)
        assert report.threshold_pct == 0.0

    def test_report_is_json_ready(self):
        report = evaluate(self.make_samples(), DEFAULT_COEFFICIENTS)
        mapping = json.loads(json.dumps(report.to_mapping()))
        assert mapping["exceedance_by_NL"] == {"1": 2}
        assert mapping["n_eval"] == 3


class TestPipelines:
    def test_fit_and_evaluate_fills_provenance(self):
        samples = fit_corpus()
        coefficients, report = fit_and_evaluate(samples, fraction=0.8, seed=4)
        n_train = round(0.8 * len(samples))
        assert report.n_train == n_train
        assert report.n_eval == len(samples) - n_train
        assert report.seed == 4
        assert report.repeats == 1
        assert report.mae_pct == pytest.approx(0.0, abs=1e-8)
        assert "seed=4" in coefficients.label

    def test_repeated_fit_dispersion(self):
        samples = fit_corpus(noise=0.0086, seed=2)
        results, dispersion = repeated_fit(samples, base_seed=10, repeats=3)
        assert len(results) == 3
        labels = [c.label for c, _ in results]
        assert labels == sorted(set(labels))
        assert "seed=10" in labels[0] and "seed=12" in labels[2]
        for name in ("a0", "a7"):
            assert dispersion.spread[name] >= 0.0
            assert dispersion.std[name] >= 0.0
        single, single_dispersion = repeated_fit(samples, base_seed=10, repeats=1)
        assert single_dispersion.std["a1"] == 0.0
        assert single[0][0] == results[0][0]
        with pytest.raises(ValueError):
            repeated_fit(samples, repeats=0)

    @pytest.mark.parametrize("repeats", [True, 2.0, "2"])
    def test_repeats_must_be_an_integer(self, repeats):
        # True is an int to Python, and would run one repeat reported as true.
        with pytest.raises(ValueError, match="^repeats must be an integer >= 1, got "):
            repeated_fit(fit_corpus(), repeats=repeats)

    def test_numpy_integer_repeats_are_accepted(self):
        samples = fit_corpus()
        results, dispersion = repeated_fit(samples, repeats=np.int64(2))
        expected, expected_dispersion = repeated_fit(samples, repeats=2)
        assert results == expected and dispersion == expected_dispersion
        assert json.loads(json.dumps(results[0][1].to_mapping()))["repeats"] == 2

    @pytest.mark.parametrize("fit", [fit_and_evaluate, repeated_fit])
    @pytest.mark.parametrize("setting, message", [
        ({"threshold_pct": math.nan}, "^threshold_pct must be >= 0 and finite"),
        ({"bin_width_pct": math.inf}, "^bin_width_pct must be positive and finite"),
    ])
    def test_report_settings_are_checked_before_the_fit(self, monkeypatch, fit, setting, message):
        def unreachable(samples):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(regression, "build_design_matrix", unreachable)
        with pytest.raises(ValueError, match=message):
            fit(fit_corpus(), **setting)
