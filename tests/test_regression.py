import functools
import itertools
import json
import math
import random
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    canonicalize,
    default_corpus,
    evaluate,
    fit_and_evaluate,
    fit_ols,
    generate_grid,
    inductance,
    repeated_fit,
    synth_labels,
)
from planarwind import regression

import reference


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


def error_pct(sample, coefficients):
    """Relative deviation of the model from the label, in percent, one winding at a time.

    The per-winding reference that evaluate's column arrays must agree with.
    """
    L_model = inductance(sample.geometry, coefficients)
    return (sample.L_ref - L_model) / sample.L_ref * 100.0


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


# Lengths (mm) whose log10 in meters np.log10 and math.log10 round apart, so
# that a column logged with NumPy would not equal its reference.
_LOG10_SPLIT_SPEC = GridSpec(
    D1_values=(70.0685, 70.137), D2_values=(70.2877, 70.3151), w_values=(0.8425, 1.2946),
    s_values=(0.5843, 0.1), O_values=(0.4096, 0.5877), NT_values=(6, 8), NL_values=(1, 2, 3),
)


@functools.lru_cache(maxsize=None)
def _labeled(corpus):
    """Corpus AB, the one- to three-layer grid _LOG10_SPLIT_SPEC or its last row, with noise.

    Also corpus AB with every length moved by its own random factor, so that
    nearly every value is distinct, and windings whose counts reach 2**53
    and above, where an int and its float differ.
    """
    if corpus == "AB":
        return tuple(synth_labels(_corpus_ab(), DEFAULT_COEFFICIENTS, 0.0086, 3))
    if corpus == "jittered":
        rng = random.Random(5)
        # Longer sides and a narrower trace and spacing leave the turns fitting.
        grow, shrink = (lambda: 1.0 + 0.02 * rng.random()), (lambda: 1.0 - 0.02 * rng.random())
        jittered = [canonicalize(g.D1 * grow(), g.D2 * grow(), g.w * shrink(), g.s * shrink(),
                                 g.n_turns, g.n_layers, g.layer_gap and g.layer_gap * grow())
                    for g in _corpus_ab()]
        return tuple(synth_labels(jittered, DEFAULT_COEFFICIENTS, 0.0086, 4))
    if corpus == "huge counts":
        counts = (2**53, 2**53 + 1, 2**53 + 3, 2**60 + 12345, 3 * 2**70 + 1, 6)
        return tuple(Sample(WindingGeometry(0.07, 0.08, 1e-30, 2e-30, nt, nl, 0.001), 1e-6 * k)
                     for k, (nt, nl) in enumerate(itertools.product(counts, counts[::-1]), 1))
    samples = synth_labels(generate_grid(_LOG10_SPLIT_SPEC), DEFAULT_COEFFICIENTS, 0.0086, 5)
    assert {sample.geometry.n_layers for sample in samples} == {1, 2, 3}
    return tuple(samples if corpus == "mixed layers" else samples[-1:])


@given(labeled_grids())
@example((_labeled("AB"), None))
@example((_labeled("mixed layers"), None))
@example((_labeled("one row"), None))
@example((_labeled("jittered"), None))
@example((_labeled("huge counts"), None))
def test_design_matrix_equals_parent_rows_bit_for_bit(corpus):
    samples, _ = corpus
    X, y = build_design_matrix(samples)
    X_ref, y_ref = reference.build_design_matrix(samples)
    assert X.tobytes() == X_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()


# The set the fixed corpora are evaluated with, other than the one that labels them.
_EVALUATED = replace(DEFAULT_COEFFICIENTS, a8=1.7, a9=-0.02)


def _relabeled(corpus, coefficients):
    """The windings of a fixed corpus, labeled under coefficients with noise."""
    geometries = [sample.geometry for sample in _labeled(corpus)]
    return tuple(synth_labels(geometries, coefficients, 0.0086, 6)), coefficients


def _in_range(samples, coefficients):
    try:
        for sample in samples:
            inductance(sample.geometry, coefficients)
    except OverflowError:
        return False
    return True


@given(labeled_grids())
@example((_labeled("AB"), _EVALUATED))
@example((_labeled("mixed layers"), _EVALUATED))
@example((_labeled("one row"), _EVALUATED))
@example((_labeled("jittered"), _EVALUATED))
# a9 = 0 keeps O ** (a9 * (N_L - 1)) finite at counts up to 3 * 2**70 + 1.
@example(_relabeled("huge counts", replace(_EVALUATED, a9=0.0)))
def test_streamed_columns_equal_the_column_lists_bit_for_bit(corpus):
    samples, coefficients = corpus
    # evaluate rejects a model value out of range, which the reference does not check.
    assume(_in_range(samples, coefficients))
    for threshold, width in ((5.0, 0.5), (1.0, 0.1)):
        # JSON text, so that a float differing in sign or last bit differs too.
        report = evaluate(samples, coefficients, threshold, width).to_mapping()
        expected = reference.evaluate(samples, coefficients, threshold, width).to_mapping()
        assert json.dumps(report) == json.dumps(expected)


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


# a1 = a2 = -150: each factor stays finite, and their product is inf where D is 7 cm.
_BIG = replace(DEFAULT_COEFFICIENTS, a1=-150.0, a2=-150.0)


def test_evaluate_checks_that_the_model_is_finite():
    samples = fit_corpus()
    # The windings of 10 cm sides stay finite, so max(L) finds the inf.
    with pytest.raises(OverflowError, match=r"^L = inf H$"):
        evaluate(samples, _BIG)
    # a1 = a2 = 150 underflows to 0.0, which is outside the range too: no
    # report of 100% errors.
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
        evaluate(samples, replace(DEFAULT_COEFFICIENTS, a1=150.0, a2=150.0))
    # w ** 150 underflows to 0.0, and inf * 0.0 is NaN, which min(L) carries.
    with pytest.raises(OverflowError, match=r"^L = nan H$"):
        evaluate(samples, replace(_BIG, a5=150.0))
    # An inf and a 0.0 (sides of 100 m) in one array: min(L) is checked first.
    windings = [WindingGeometry(D, D, 0.003, 0.0001, 6, 1) for D in (0.07, 100.0)]
    with pytest.raises(OverflowError, match=r"^L = 0\.0 H$"):
        evaluate([Sample(g, 1e-6) for g in windings], _BIG)


def test_evaluate_checks_that_the_error_statistics_are_finite():
    # Each model value is finite, about 1e302 H, and its error from a label
    # of microhenries overflows: no report of a -inf mean and a NaN std.
    with pytest.raises(OverflowError, match=r"^the error statistics are not finite: "
                                            r"mean -inf%, std nan%, MAE inf%$"):
        evaluate(fit_corpus(), replace(DEFAULT_COEFFICIENTS, a0=1e308))


def _two_bin_ends(bin_width_pct):
    """evaluate on two windings whose errors, 0% and 50%, lie in the end bins."""
    g = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
    L = inductance(g, DEFAULT_COEFFICIENTS)
    return evaluate([Sample(g, L), Sample(g, 2.0 * L)], DEFAULT_COEFFICIENTS,
                    bin_width_pct=bin_width_pct)


def test_a_histogram_of_the_bin_limit_is_reported():
    limit = regression.MAX_HISTOGRAM_BINS
    histogram = _two_bin_ends(50.0 / (limit - 1)).histogram
    assert len(histogram) == limit
    assert histogram[0][2] == histogram[-1][2] == 1


def test_a_histogram_above_the_bin_limit_is_rejected():
    # 50% is bin 2**20 of width 50 / 2**20 exactly, so bins 0 to 2**20 would be needed.
    with pytest.raises(ValueError, match=r"^the error histogram has 1048577 bins of "
                                         r"4\.76837158203125e-05%, above the limit of 1048576"):
        _two_bin_ends(50.0 / regression.MAX_HISTOGRAM_BINS)


def test_a_bin_whose_edges_round_together_is_rejected():
    # One error of exactly 50% in bins of 50 / 2**n percent is bin 2**n.
    g = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
    L = inductance(g, DEFAULT_COEFFICIENTS)

    def histogram(power):
        return evaluate([Sample(g, 2.0 * L)], DEFAULT_COEFFICIENTS,
                        bin_width_pct=50.0 / 2 ** power).histogram

    (lo, hi, count), = histogram(51)
    assert lo < 50.0 < hi and count == 1
    # From 2**52 on, a bin number and its edges +-0.5 round to one float.
    with pytest.raises(ValueError, match=r"^the error histogram has a bin 4503599627370496 "
                                         r"widths of 1\.1102230246251565e-14% from 0, .*"
                                         r"a larger --bin-width gives fewer widths$"):
        histogram(52)


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

    def test_a_solver_failure_is_a_floating_point_error(self, monkeypatch):
        def lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        X, y = build_design_matrix(fit_corpus())
        with pytest.raises(FloatingPointError,
                           match="^SVD did not converge in Linear Least Squares$") as caught:
            fit_ols(X, y)
        assert type(caught.value.__cause__) is np.linalg.LinAlgError

    # log10(a0 * mu0) is about -5.7, so these intercepts put 10**c0 past either float limit.
    @pytest.mark.parametrize("shift, a0", [(320.0, "inf"), (-330.0, "0\\.0")])
    def test_an_a0_outside_the_float_range_is_an_overflow(self, shift, a0):
        X, y = build_design_matrix(fit_corpus())
        with pytest.raises(OverflowError, match=f"^the fitted a0 = {a0}$"):
            fit_ols(X, y + shift)

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

    def test_repeated_fit_checks_that_the_dispersion_is_finite(self):
        # Labels 1e300 times the model fit an a0 near 1.6e300, whose std overflows.
        samples = [replace(sample, L_ref=sample.L_ref * 1e300)
                   for sample in fit_corpus(noise=0.0086, seed=3)]
        with pytest.raises(OverflowError, match=r"^the coefficient dispersion is not finite: "
                                                r"std a0 = inf$"):
            repeated_fit(samples, repeats=3)

    @pytest.mark.parametrize("repeats", [1, 4])
    @pytest.mark.parametrize("fraction", [0.5, 0.8, 0.9])
    @pytest.mark.parametrize("noise", [0.0, 0.0086])
    def test_repeated_fit_equals_the_per_split_cycle_bit_for_bit(self, repeats, fraction, noise):
        samples = synth_labels(_corpus_ab(), DEFAULT_COEFFICIENTS, noise, 3)
        results, _ = repeated_fit(samples, fraction, base_seed=7, repeats=repeats)
        if repeats == 1:
            assert results[0] == fit_and_evaluate(samples, fraction, seed=7)
        assert len(results) == repeats
        for (coefficients, report), (want, want_report) in zip(
            results, reference.repeated_fit(samples, fraction, 7, repeats)
        ):
            assert coefficients.label == want.label
            assert np.array(coefficients.as_tuple()).tobytes() == \
                np.array(want.as_tuple()).tobytes()
            # repr, and so JSON, tells every float apart, -0.0 from 0.0 too.
            assert json.dumps(report.to_mapping()) == json.dumps(want_report.to_mapping())

    @pytest.mark.parametrize("repeats", [True, 2.0, "2", 0])
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
    @pytest.mark.parametrize("size, setting, message", [
        (None, {"threshold_pct": math.nan}, "threshold_pct must be >= 0 and finite, got nan"),
        (None, {"threshold_pct": -1}, "threshold_pct must be >= 0 and finite, got -1"),
        (None, {"bin_width_pct": math.inf}, "bin_width_pct must be positive and finite, got inf"),
        (0, {}, "need at least 2 samples to split, got 0"),
        (1, {}, "need at least 2 samples to split, got 1"),
        (None, {"fraction": 1.0}, "fraction must be in (0, 1), got 1.0"),
        # True is an int to Python, and would be recorded as the seed true.
        (None, {"seed": True}, "seed must be an integer >= 0, got True"),
        (None, {"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        (None, {"seed": -1}, "seed must be an integer >= 0, got -1"),
    ])
    def test_settings_and_corpus_size_are_checked_before_the_fit(self, monkeypatch, fit, size,
                                                                 setting, message):
        def unreachable(samples):
            raise AssertionError("the fit ran")

        if fit is repeated_fit and "seed" in setting:
            setting = {"base_seed": setting["seed"]}
        samples = fit_corpus()[:size]
        monkeypatch.setattr(regression, "build_design_matrix", unreachable)
        with pytest.raises(ValueError) as caught:
            fit(samples, **setting)
        assert type(caught.value) is ValueError and str(caught.value) == message
