import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planarwind
from planarwind import (
    DEFAULT_COEFFICIENTS,
    CoefficientSet,
    GridSpec,
    OptimizationProblem,
    dataset_a_spec,
    default_problem,
    generate_grid,
    inductance,
    read_csv,
    read_geometry_csv,
    synth_labels,
    write_csv,
    write_geometry_csv,
)
from planarwind.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_spec_file(tmp_path, **overrides):
    spec = GridSpec(
        D1_values=(70.0, 80.0, 90.0, 100.0),
        D2_values=(70.0, 80.0, 90.0, 100.0),
        w_values=(3.0, 4.0),
        s_values=(0.1, 0.5),
        O_values=(0.5, 1.5),
        NT_values=(6, 8),
        NL_values=(1, 2, 3),
    )
    mapping = spec.to_mapping()
    mapping.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(mapping))
    return path


class TestEstimate:
    GOLDEN = ["--D1", "100", "--D2", "100", "--w", "5", "--s", "1",
              "--NT", "5", "--NL", "4", "--O", "1.6"]

    def test_text_output(self, capsys):
        code, out, err = run(capsys, "estimate", *self.GOLDEN)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "L_uH = 34.45"
        assert "d1_mm = 42.0000" in lines
        assert "Dbar1_mm = 71.0000" in lines

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "estimate", *self.GOLDEN, "--format", "json")
        assert code == 0
        fields = json.loads(out)
        assert fields["model"] == "full"
        assert fields["L_uH"] == pytest.approx(34.445510610569656, rel=1e-12)
        assert fields["d2_mm"] == pytest.approx(42.0, abs=1e-9)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "estimate", *self.GOLDEN, "--format", "csv")
        assert code == 0
        header, values = out.splitlines()
        assert header == "model,L_uH,d1_mm,d2_mm,Dbar1_mm,Dbar2_mm"
        assert values.split(",")[0] == "full"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "est.txt"
        code, out, _ = run(capsys, "estimate", *self.GOLDEN, "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "L_uH = 34.45"

    def test_single_layer_needs_no_gap(self, capsys):
        code, out, _ = run(capsys, "estimate", "--D1", "100", "--D2", "163",
                           "--w", "3", "--s", "0.5", "--NT", "10", "--NL", "1")
        assert code == 0
        assert out.splitlines()[0] == "L_uH = 13.79"

    def test_multilayer_requires_gap(self, capsys):
        code, _, err = run(capsys, "estimate", "--D1", "100", "--D2", "100",
                           "--w", "5", "--s", "1", "--NT", "5", "--NL", "2")
        assert code == 2
        assert "error:" in err and "--O" in err

    def test_single_layer_rejects_a_gap(self, capsys):
        code, out, err = run(capsys, "estimate", *self.GOLDEN[:-4], "--NL", "1", "--O", "1.6")
        assert (code, out) == (2, "")
        assert "error: --O applies to --NL 2 or more, not --NL 1" in err

    def test_swapped_sides_give_the_same_answer(self, capsys):
        args = ["--w", "5", "--s", "0.5", "--NT", "8", "--NL", "1"]
        code1, out1, _ = run(capsys, "estimate", "--D1", "120", "--D2", "160", *args)
        code2, out2, _ = run(capsys, "estimate", "--D1", "160", "--D2", "120", *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_square_model_matches_full_on_squares(self, capsys):
        _, full_out, _ = run(capsys, "estimate", *self.GOLDEN, "--format", "json")
        code, square_out, _ = run(capsys, "estimate", *self.GOLDEN,
                                  "--model", "square", "--format", "json")
        assert code == 0
        assert json.loads(square_out)["L_uH"] == json.loads(full_out)["L_uH"]

    def test_square_model_rejects_rectangles(self, capsys):
        code, _, err = run(capsys, "estimate", "--D1", "100", "--D2", "163",
                           "--w", "3", "--s", "0.5", "--NT", "10", "--NL", "1",
                           "--model", "square")
        assert code == 2 and "square" in err

    def test_mohan_model(self, capsys):
        code, out, _ = run(capsys, "estimate", "--D1", "100", "--D2", "100",
                           "--w", "4", "--s", "2", "--NT", "5", "--NL", "1",
                           "--model", "mohan")
        assert code == 0
        assert out.splitlines()[0] == "L_uH = 2.71"

    def test_mohan_model_is_single_layer(self, capsys):
        code, _, err = run(capsys, "estimate", *self.GOLDEN, "--model", "mohan")
        assert code == 2 and "single-layer" in err

    def test_mohan_model_is_square(self, capsys):
        code, out, err = run(capsys, "estimate", "--D1", "100", "--D2", "120",
                             "--w", "4", "--s", "2", "--NT", "5", "--NL", "1",
                             "--model", "mohan")
        assert (code, out) == (2, "")
        assert "the mohan model is square" in err

    def test_coeffs_rejected_for_fixed_models(self, capsys):
        code, _, err = run(capsys, "estimate", *self.GOLDEN,
                           "--model", "simplified", "--coeffs", "default")
        assert code == 2 and "--coeffs" in err

    def test_custom_coefficients_scale_the_answer(self, capsys, tmp_path):
        mapping = DEFAULT_COEFFICIENTS.to_mapping()
        mapping["a0"] = 2.0 * mapping["a0"]
        coeffs = tmp_path / "double.json"
        coeffs.write_text(json.dumps(mapping))
        _, base, _ = run(capsys, "estimate", *self.GOLDEN, "--format", "json")
        code, doubled, _ = run(capsys, "estimate", *self.GOLDEN,
                               "--coeffs", str(coeffs), "--format", "json")
        assert code == 0
        ratio = json.loads(doubled)["L_uH"] / json.loads(base)["L_uH"]
        assert ratio == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("model, flags, message", [
        ("mohan", ["--D2", "10", "--NL", "2", "--O", "1"], "the mohan model is single-layer"),
        ("square", ["--D2", "12", "--NL", "1"], "the square model needs --D1 equal to --D2"),
    ])
    def test_model_is_checked_before_the_winding(self, capsys, model, flags, message):
        # Turns that do not fit would be exit 4; the model's usage error wins.
        code, out, err = run(capsys, "estimate", "--model", model, "--D1", "10", *flags,
                             "--w", "5", "--s", "1", "--NT", "5")
        assert (code, out) == (2, "")
        assert message in err

    def test_infeasible_turns(self, capsys):
        code, _, err = run(capsys, "estimate", "--D1", "20", "--D2", "30",
                           "--w", "5", "--s", "1", "--NT", "5", "--NL", "1")
        assert code == 4 and "error:" in err

    def test_units_flag(self, capsys):
        # The unit system is fixed (mm and uH), so there is no --units flag.
        for units in ("mm-uH", "inch"):
            code, out, _ = run(capsys, "--units", units, "estimate", *self.GOLDEN)
            assert code == 2 and out == ""

    # Stdout of the README winding, captured before the models shared one
    # kernel.  Mohan is single-layer, so it runs the winding with --NL 1.
    PINNED = {
        "full": (
            '{\n  "model": "full",\n  "L_uH": 34.445510610569656,\n'
            '  "d1_mm": 42.00000000000001,\n  "d2_mm": 42.00000000000001,\n'
            '  "Dbar1_mm": 71.00000000000001,\n  "Dbar2_mm": 71.00000000000001\n}\n',
            "model,L_uH,d1_mm,d2_mm,Dbar1_mm,Dbar2_mm\n"
            "full,34.445510610569656,42.00000000000001,42.00000000000001,"
            "71.00000000000001,71.00000000000001\n",
        ),
        "square": (
            '{\n  "model": "square",\n  "L_uH": 34.445510610569656,\n'
            '  "d1_mm": 42.00000000000001,\n  "d2_mm": 42.00000000000001,\n'
            '  "Dbar1_mm": 71.00000000000001,\n  "Dbar2_mm": 71.00000000000001\n}\n',
            "model,L_uH,d1_mm,d2_mm,Dbar1_mm,Dbar2_mm\n"
            "square,34.445510610569656,42.00000000000001,42.00000000000001,"
            "71.00000000000001,71.00000000000001\n",
        ),
        "mohan": (
            '{\n  "model": "mohan",\n  "L_uH": 2.5879599327338996,\n'
            '  "d1_mm": 42.00000000000001,\n  "d2_mm": 42.00000000000001,\n'
            '  "Dbar1_mm": 71.00000000000001,\n  "Dbar2_mm": 71.00000000000001\n}\n',
            "model,L_uH,d1_mm,d2_mm,Dbar1_mm,Dbar2_mm\n"
            "mohan,2.5879599327338996,42.00000000000001,42.00000000000001,"
            "71.00000000000001,71.00000000000001\n",
        ),
    }

    @pytest.mark.parametrize("model", sorted(PINNED))
    def test_estimate_output_bytes_are_pinned(self, capsys, model):
        args = self.GOLDEN[:-4] + ["--NL", "1"] if model == "mohan" else self.GOLDEN
        for fmt, expected in zip(("json", "csv"), self.PINNED[model]):
            code, out, err = run(capsys, "estimate", *args, "--model", model, "--format", fmt)
            assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("flag", ["--D1", "--D2", "--w", "--s", "--O"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_is_a_usage_error(self, capsys, flag, value):
        args = list(self.GOLDEN)
        index = args.index(flag)
        args[index:index + 2] = [f"{flag}={value}"]
        code, out, err = run(capsys, "estimate", *args)
        assert code == 2 and out == ""
        assert f"argument {flag}: must be finite" in err


class TestGrid:
    def test_builtin_corpus(self, capsys, tmp_path):
        out_csv = tmp_path / "a.csv"
        code, out, _ = run(capsys, "grid", "--spec", "A", "--out", str(out_csv))
        assert code == 0
        assert out.strip() == f"wrote 2060 windings to {out_csv}"
        assert len(read_geometry_csv(out_csv)) == 2060

    def test_custom_spec_with_labels(self, capsys, tmp_path):
        spec = small_spec_file(tmp_path)
        out_csv = tmp_path / "labeled.csv"
        code, out, _ = run(capsys, "grid", "--spec", str(spec),
                           "--labels", "default", "--out", str(out_csv))
        assert code == 0 and "labeled windings" in out
        samples = read_csv(out_csv)
        for sample in samples[:25]:
            model = inductance(sample.geometry, DEFAULT_COEFFICIENTS)
            assert sample.L_ref == pytest.approx(model, rel=1e-11)

    def test_builtin_corpus_ab_is_a_then_b(self, capsys, tmp_path):
        out_csv = tmp_path / "ab.csv"
        code, out, _ = run(capsys, "grid", "--spec", "AB", "--out", str(out_csv))
        assert code == 0
        assert out.strip() == f"wrote 6010 windings to {out_csv}"
        rows = read_geometry_csv(out_csv)
        n_a = len(generate_grid(dataset_a_spec()))
        assert len(rows) == 6010 and n_a == 2060
        # Corpus A has both sides 70..110 mm, corpus B 120..160 mm.
        assert all(g.D2 <= 110e-3 + 1e-12 for g in rows[:n_a])
        assert all(g.D1 >= 120e-3 - 1e-12 for g in rows[n_a:])

    def test_noise_needs_labels(self, capsys, tmp_path):
        code, _, err = run(capsys, "grid", "--spec", "A",
                           "--out", str(tmp_path / "x.csv"), "--noise", "0.01")
        assert code == 2 and "--labels" in err

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "grid", "--spec", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 3 and "error:" in err

    def test_malformed_spec_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "grid", "--spec", str(bad),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 3 and "bad JSON" in err


class TestSynth:
    def test_labels_unlabeled_geometry(self, capsys, tmp_path):
        spec = small_spec_file(tmp_path, NL_values=[1], w_values=[3.0])
        geo_csv = tmp_path / "geo.csv"
        run(capsys, "grid", "--spec", str(spec), "--out", str(geo_csv))
        labeled = tmp_path / "labeled.csv"
        code, out, _ = run(capsys, "synth", "--in", str(geo_csv),
                           "--coeffs", "default", "--out", str(labeled))
        assert code == 0 and "labeled windings" in out
        samples = read_csv(labeled)
        assert len(samples) == len(read_geometry_csv(geo_csv))
        model = inductance(samples[0].geometry, DEFAULT_COEFFICIENTS)
        assert samples[0].L_ref == pytest.approx(model, rel=1e-11)


@pytest.fixture()
def labeled_corpus(capsys, tmp_path):
    spec = small_spec_file(tmp_path)
    path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "grid", "--spec", str(spec),
                     "--labels", "default", "--out", str(path))
    assert code == 0
    return path


class TestFitAndEval:
    def test_noiseless_closure(self, capsys, tmp_path, labeled_corpus):
        coeffs_json = tmp_path / "coeffs.json"
        report_json = tmp_path / "report.json"
        code, out, _ = run(capsys, "fit", "--in", str(labeled_corpus),
                           "--out", str(coeffs_json), "--report", str(report_json))
        assert code == 0
        assert "MAE 0.0000%" in out
        fitted = json.loads(coeffs_json.read_text())
        for name, want in DEFAULT_COEFFICIENTS.to_mapping().items():
            if name == "label":
                continue
            assert fitted[name] == pytest.approx(want, rel=1e-8)
        report = json.loads(report_json.read_text())
        assert report["mae_pct"] <= 1e-8
        assert report["n_train"] + report["n_eval"] == len(read_csv(labeled_corpus))
        assert report["seed"] == 0 and report["repeats"] == 1
        assert "dispersion" not in report

        eval_json = tmp_path / "eval.json"
        hist_csv = tmp_path / "hist.csv"
        code, out, _ = run(capsys, "eval", "--in", str(labeled_corpus),
                           "--coeffs", str(coeffs_json),
                           "--report", str(eval_json), "--hist", str(hist_csv))
        assert code == 0 and "MAE 0.0000%" in out
        evaluation = json.loads(eval_json.read_text())
        assert evaluation["mae_pct"] <= 1e-8
        hist_lines = hist_csv.read_text().splitlines()
        assert hist_lines[0] == "bin_center_pct,count"
        counts = [int(line.split(",")[1]) for line in hist_lines[1:]]
        assert sum(counts) == evaluation["n_eval"]

    def test_written_coefficients_load_back(self, capsys, tmp_path, labeled_corpus):
        # The key rule accepts every document the package writes.
        coeffs_json = tmp_path / "c.json"
        report_json = tmp_path / "r.json"
        code, _, _ = run(capsys, "fit", "--in", str(labeled_corpus),
                         "--out", str(coeffs_json), "--report", str(report_json))
        assert code == 0
        fitted = CoefficientSet.from_mapping(json.loads(coeffs_json.read_text()))
        report = json.loads(report_json.read_text())
        assert CoefficientSet.from_mapping(report["coefficients"]) == fitted
        problem = default_problem().to_mapping()
        problem["coefficients"] = fitted.to_mapping()
        assert OptimizationProblem.from_mapping(problem).coefficients == fitted

    def test_repeats_add_dispersion(self, capsys, tmp_path, labeled_corpus):
        coeffs_json = tmp_path / "c.json"
        report_json = tmp_path / "r.json"
        code, _, _ = run(capsys, "fit", "--in", str(labeled_corpus),
                         "--repeats", "2", "--out", str(coeffs_json),
                         "--report", str(report_json))
        assert code == 0
        report = json.loads(report_json.read_text())
        assert set(report["dispersion"]) == {"mean", "std", "spread"}
        assert report["repeats"] == 2

    def test_eval_with_builtin_coefficients(self, capsys, tmp_path, labeled_corpus):
        eval_json = tmp_path / "eval.json"
        code, out, _ = run(capsys, "eval", "--in", str(labeled_corpus),
                           "--coeffs", "default", "--report", str(eval_json))
        assert code == 0 and "evaluated" in out

    def test_too_few_samples(self, capsys, tmp_path, labeled_corpus):
        lines = labeled_corpus.read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:9]) + "\n")
        code, _, err = run(capsys, "fit", "--in", str(short),
                           "--out", str(tmp_path / "c.json"))
        assert code == 3 and "error:" in err

    def test_rank_deficient_corpus(self, capsys, tmp_path):
        spec = small_spec_file(tmp_path, w_values=[3.0], NL_values=[1])
        samples = tmp_path / "flat.csv"
        run(capsys, "grid", "--spec", str(spec), "--labels", "default",
            "--out", str(samples))
        code, _, err = run(capsys, "fit", "--in", str(samples),
                           "--out", str(tmp_path / "c.json"))
        assert code == 5
        assert "rank" in err

    def test_linalg_error_is_a_numerical_failure(self, capsys, tmp_path, labeled_corpus,
                                                 monkeypatch):
        def lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        out = tmp_path / "c.json"
        code, stdout, err = run(capsys, "fit", "--in", str(labeled_corpus), "--out", str(out))
        assert (code, stdout) == (5, "")
        assert err == "error: SVD did not converge in Linear Least Squares\n"
        assert not out.exists()

    def test_corrupt_row_reports_its_line(self, capsys, tmp_path, labeled_corpus):
        lines = labeled_corpus.read_text().splitlines()
        fields = lines[2].split(",")
        fields[4] = "x"
        lines[2] = ",".join(fields)
        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "eval", "--in", str(corrupt),
                           "--coeffs", "default", "--report", str(tmp_path / "r.json"))
        assert code == 3
        assert ":3:" in err and "w_mm" in err

    def test_non_finite_row_reports_its_line(self, capsys, tmp_path, labeled_corpus):
        lines = labeled_corpus.read_text().splitlines()
        fields = lines[2].split(",")
        # Every number in the row, the counts aside; O_mm stays empty for one layer.
        for i in (0, 1, 2, 3, 4, 5, 8, 9):
            if fields[i] != "":
                fields[i] = "nan"
        lines[2] = ",".join(fields)
        corrupt = tmp_path / "nan.csv"
        corrupt.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "eval", "--in", str(corrupt),
                             "--coeffs", "default", "--report", str(report))
        assert code == 3 and out == ""
        assert ":3:" in err and "finite" in err
        assert not report.exists()


class TestOptimize:
    def test_reference_problem(self, capsys, tmp_path):
        out_json = tmp_path / "opt.json"
        code, out, _ = run(capsys, "optimize", "--problem", "default",
                           "--restarts", "2", "--seed", "0", "--out", str(out_json))
        assert code == 0
        assert out.startswith("best L = ")
        mapping = json.loads(out_json.read_text())
        assert mapping["feasible_found"] is True
        assert mapping["best"]["N_T"] == 8
        assert mapping["restarts_run"] == 16

    def test_oracle_comparison(self, capsys, tmp_path):
        out_json = tmp_path / "opt.json"
        code, out, _ = run(capsys, "optimize", "--problem", "default",
                           "--restarts", "2", "--seed", "0",
                           "--oracle", "--out", str(out_json))
        assert code == 0 and "oracle L = " in out
        mapping = json.loads(out_json.read_text())
        oracle = mapping["oracle"]
        assert "restarts" not in oracle and "restarts_run" not in oracle
        assert oracle["feasible_found"] is True
        assert abs(mapping["oracle_agreement_pct"]) <= 0.1

    def test_bad_resolution(self, capsys, tmp_path):
        for resolution in ("q=1", "w=abc"):
            code, _, err = run(capsys, "optimize", "--problem", "default",
                               "--restarts", "2", "--oracle",
                               "--resolution", resolution,
                               "--out", str(tmp_path / "x.json"))
            assert code == 2 and "error:" in err

    @pytest.mark.parametrize("flags", [
        ("--oracle", "--resolution", "D1=nan"),
        ("--oracle", "--resolution", "s=inf"),
        ("--resolution", "D1=0.5"),
        ("--oracle", "--resolution", "D1=0"),
        ("--oracle", "--resolution", "D1=-0.5"),
        ("--oracle", "--resolution", "w=1e-300"),
        ("--oracle", "--resolution", "D1=0.001"),
        ("--oracle", "--resolution", ""),
        ("--oracle", "--resolution", "D1=1,D1=2"),
    ])
    def test_resolution_is_checked_before_the_search(self, capsys, tmp_path, flags):
        # A bad --resolution, or one without --oracle, fails before maximize
        # runs: nothing is printed and no result file is written.
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "optimize", "--problem", "default",
                                "--restarts", "2", *flags, "--out", str(out))
        assert code == 2 and stdout == ""
        assert "--resolution" in err
        assert not out.exists()

    def test_problem_is_read_before_the_resolution_is_checked(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "optimize", "--problem", str(tmp_path / "absent.json"),
                                "--oracle", "--resolution", "q=1", "--out", str(out))
        assert (code, stdout) == (3, "")
        assert "absent.json" in err and not out.exists()

    def test_infeasible_problem_is_reported_not_raised(self, capsys, tmp_path):
        problem = {
            "D1": [12, 54], "D2": [55, 101], "d1": [53, 54], "d2": [54, 99],
            "w": [2.5, 5], "s": [0.1, 1], "NT": [8], "NL": 4, "O_mm": 0.5,
        }
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(problem))
        out_json = tmp_path / "opt.json"
        code, out, _ = run(capsys, "optimize", "--problem", str(path),
                           "--restarts", "2", "--oracle", "--out", str(out_json))
        assert code == 0
        assert "no feasible point found" in out
        assert "skipping the oracle" in out
        mapping = json.loads(out_json.read_text())
        assert mapping["best"] is None and "oracle" not in mapping

    @pytest.mark.parametrize("problem, out, code, message", [
        # maximize finds a point, and the oracle's 0.5 mm D grid has none in this box.
        ({"D1": [30, 30.2], "D2": [60, 60.2], "d1": [13.9, 14.5], "d2": [40, 50],
          "w": [2.5, 2.59], "s": [0.1, 0.19], "NT": [3], "NL": 1},
         "opt.json", 4, "error: no feasible grid point in the box at this resolution\n"),
        # Both searches succeed, and the result cannot be written.
        (None, "missing/opt.json", 3, "error: [Errno 2] No such file or directory: "),
    ])
    def test_nothing_is_printed_before_both_searches_and_the_write(
        self, capsys, tmp_path, monkeypatch, problem, out, code, message
    ):
        monkeypatch.chdir(tmp_path)
        if problem is not None:
            Path("problem.json").write_text(json.dumps(problem))
        got, stdout, err = run(capsys, "optimize", "--oracle", "--restarts", "100",
                               "--problem", "default" if problem is None else "problem.json",
                               "--out", out)
        assert (got, stdout) == (code, "")
        assert err.startswith(message)
        assert not Path(out).exists()

    def test_malformed_problem_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "optimize", "--problem", str(path),
                           "--out", str(tmp_path / "x.json"))
        assert code == 3 and "bad JSON" in err

    def test_incomplete_problem_json(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"D1": [12, 54]}))
        code, _, err = run(capsys, "optimize", "--problem", str(path),
                           "--out", str(tmp_path / "x.json"))
        assert code == 3 and "missing" in err

    def test_bad_restart_count(self, capsys, tmp_path):
        # Bad search flags are usage errors, not bad input files.
        for flag, value in (("--restarts", "0"), ("--seed", "-1")):
            out = tmp_path / "x.json"
            code, _, err = run(capsys, "optimize", "--problem", "default",
                               flag, value, "--out", str(out))
            assert code == 2 and flag in err
            assert not out.exists()


# optimize --restarts 0 and --seed -1 are in TestOptimize.test_bad_restart_count.
@pytest.mark.parametrize("command, flag, value, message", [
    ("fit", "--repeats", "0", "must be >= 1, got '0'"),
    ("fit", "--fraction", "1.5", "must be in (0, 1), got '1.5'"),
    ("fit", "--fraction", "0", "must be in (0, 1), got '0'"),
    ("fit", "--seed", "-1", "must be >= 0, got '-1'"),
    ("fit", "--threshold", "-1", "must be >= 0, got '-1'"),
    ("fit", "--bin-width", "0", "must be > 0, got '0'"),
    ("eval", "--bin-width", "0", "must be > 0, got '0'"),
    ("eval", "--threshold", "-1", "must be >= 0, got '-1'"),
    ("grid", "--seed", "-1", "must be >= 0, got '-1'"),
    ("grid", "--noise", "-1", "must be >= 0, got '-1'"),
    ("synth", "--seed", "-1", "must be >= 0, got '-1'"),
    ("synth", "--noise", "-1", "must be >= 0, got '-1'"),
    ("synth", "--noise", "nan", "must be finite, got 'nan'"),
    ("optimize", "--seed", "x", "invalid int value: 'x'"),
    ("estimate", "--D1", "abc", "not a number: 'abc'"),
    ("estimate", "--NT", "0", "must be >= 1, got '0'"),
    ("estimate", "--NL", "0", "must be >= 1, got '0'"),
])
def test_out_of_range_flag_is_a_usage_error(capsys, tmp_path, labeled_corpus,
                                            command, flag, value, message):
    # Checked as the flag is parsed: no input is read and nothing is written.
    out = tmp_path / "out"
    args = {
        "fit": ["--in", str(labeled_corpus), "--out", str(out)],
        "eval": ["--in", str(labeled_corpus), "--coeffs", "default", "--report", str(out)],
        "grid": ["--spec", "A", "--labels", "default", "--out", str(out)],
        "synth": ["--in", str(labeled_corpus), "--coeffs", "default", "--out", str(out)],
        "optimize": ["--problem", "default", "--out", str(out)],
        "estimate": [*TestEstimate.GOLDEN[2:], "--output", str(out)],
    }[command]
    code, stdout, err = run(capsys, command, *args, flag, value)
    assert code == 2 and stdout == ""
    assert f"argument {flag}: {message}" in err
    assert not out.exists()


# A key of None puts the value in place of the whole document; a value of
# REPEATED gives the key twice.
REPEATED = object()


@pytest.mark.parametrize("command, key, value", [
    ("optimize", "NT", [8.7]),
    ("optimize", "NT", ["8"]),
    ("optimize", "NT", [True]),
    ("optimize", "NL", 4.9),
    ("grid", "NT_values", [6.9]),
    ("grid", "NL_values", [1.5]),
    ("grid", "strict_inner", "false"),
    ("optimize", "NT", 8),
    ("optimize", "D1", [None, 54]),
    ("optimize", "w", ["2.5", 5]),
    ("optimize", "coefficients", 5),
    ("grid", "NT_values", 6),
    ("grid", "D1_values", [70.0, True]),
    # An integer too large for a float is out of range, not an overflow.
    ("grid", "D1_values", [10 ** 400]),
    ("optimize", "D1", [12, 10 ** 400]),
    ("estimate", "a1", [1]),
    ("estimate", "a7", "1.794"),
    ("optimize", None, 5),
    ("grid", None, 5),
    ("estimate", None, 5),
    ("estimate", "label", None),
    ("estimate", "label", 5),
    ("optimize", "coefficients", {**DEFAULT_COEFFICIENTS.to_mapping(), "label": [1]}),
    ("optimize", "coefficients", {**DEFAULT_COEFFICIENTS.to_mapping(), "label": {"a": 1}}),
    # Unknown keys, misspelt optional ones above all, are rejected too.
    ("optimize", "N_L", 4),
    ("optimize", "O", 0.5),
    ("grid", "min_iner", 17.0),
    ("estimate", "lable", "fit"),
    ("optimize", "coefficients", {**DEFAULT_COEFFICIENTS.to_mapping(), "a10": 0.0}),
    # The problem's O_mm on a single layer would be dropped.
    ("optimize", "NL", 1),
    # A key given twice, its first occurrence nested in the problem's
    # coefficients for "a1"; plain json.load would keep the second value.
    ("optimize", "NT", REPEATED),
    ("grid", "NT_values", REPEATED),
    ("estimate", "a1", REPEATED),
    ("optimize", "a1", REPEATED),
    # So is a count that large, though counts are never converted to floats.
    ("grid", "NT_values", [10 ** 400]),
    ("optimize", "NT", [3, 10 ** 400]),
])
def test_non_integer_count_or_non_boolean_strict_is_bad_input(capsys, tmp_path, command, key, value):
    mapping = {
        "grid": json.loads(small_spec_file(tmp_path).read_text()),
        "optimize": default_problem().to_mapping(),
        "estimate": DEFAULT_COEFFICIENTS.to_mapping(),
    }[command]
    if key is None:
        mapping = value
    elif value is not REPEATED:
        mapping[key] = value
    text = json.dumps(mapping)
    if value is REPEATED:
        text = text.replace(f'"{key}": ', f'"{key}": null, "{key}": ', 1)
    path = tmp_path / "document.json"
    path.write_text(text)
    out = tmp_path / "out"
    args = {
        "grid": ["--spec", str(path), "--out", str(out)],
        "optimize": ["--problem", str(path), "--restarts", "1", "--out", str(out)],
        "estimate": [*TestEstimate.GOLDEN, "--coeffs", str(path), "--output", str(out)],
    }[command]
    code, stdout, err = run(capsys, command, *args)
    assert code == 3 and stdout == ""
    assert "error:" in err
    assert value is not REPEATED or f"error: JSON object repeats key '{key}'" in err
    assert "float range" not in err or err.startswith(f"error: {key} must be a JSON ")
    assert not out.exists()


# a1 = a2 = -150: each factor stays finite, and their product is inf.
BIG_COEFFICIENTS = {**DEFAULT_COEFFICIENTS.to_mapping(), "a1": -150.0, "a2": -150.0}
# a1 = a2 = 150: on windings of centimeters the product underflows to 0.0.
SMALL_COEFFICIENTS = {**DEFAULT_COEFFICIENTS.to_mapping(), "a1": 150.0, "a2": 150.0}


@pytest.mark.parametrize("command, flags", [
    # O ** (a9 * (N_L - 1)) or a mean side ** a3 overflows as the model is evaluated.
    ("estimate", ["--D1", "100", "--D2", "100", "--w", "5", "--s", "1",
                  "--NT", "5", "--NL", "100000", "--O", "1.6"]),
    ("estimate", ["--D1", "1e300", "--D2", "1e300", "--w", "5", "--s", "1",
                  "--NT", "5", "--NL", "4", "--O", "1.6"]),
    ("grid", ["--spec", "spec.json", "--labels", "default"]),
    ("optimize", ["--problem", "problem.json", "--restarts", "1"]),
    # The product of finite factors is inf: each command checks L, not the factors.
    ("estimate", ["--D1", "10", "--D2", "10", "--w", "1", "--s", "0.5",
                  "--NT", "2", "--NL", "1", "--coeffs", "big.json"]),
    ("grid", ["--spec", "A", "--labels", "big.json"]),
    ("synth", ["--in", "geometries.csv", "--coeffs", "big.json"]),
    ("eval", ["--in", "samples.csv", "--coeffs", "big.json"]),
    ("optimize", ["--problem", "big_problem.json"]),
    ("optimize", ["--problem", "big_problem.json", "--oracle"]),
    # An underflow to 0.0 is outside the range too, wherever the model is evaluated.
    ("estimate", ["--D1", "10", "--D2", "10", "--w", "1", "--s", "0.5",
                  "--NT", "2", "--NL", "1", "--coeffs", "small.json"]),
    ("grid", ["--spec", "A", "--labels", "small.json"]),
    ("eval", ["--in", "samples.csv", "--coeffs", "small.json"]),
    # SLSQP spends its 200 iterations at -log10 L = +inf, so two restarts, not 100.
    ("optimize", ["--problem", "small_problem.json", "--restarts", "2"]),
    ("optimize", ["--problem", "small_problem.json", "--restarts", "2", "--oracle"]),
])
@pytest.mark.filterwarnings("error")
def test_a_model_value_outside_the_float_range_exits_5(capsys, tmp_path, monkeypatch,
                                                       command, flags):
    monkeypatch.chdir(tmp_path)
    small_spec_file(tmp_path, NL_values=[100000])
    Path("problem.json").write_text(json.dumps({**default_problem().to_mapping(), "NL": 10 ** 30}))
    for name, coefficients in (("big", BIG_COEFFICIENTS), ("small", SMALL_COEFFICIENTS)):
        Path(f"{name}.json").write_text(json.dumps(coefficients))
        Path(f"{name}_problem.json").write_text(
            json.dumps({**default_problem().to_mapping(), "coefficients": coefficients})
        )
    geometries = generate_grid(dataset_a_spec())
    write_geometry_csv(geometries, "geometries.csv")
    write_csv(synth_labels(geometries, DEFAULT_COEFFICIENTS), "samples.csv")
    out_flag = {"estimate": "--output", "eval": "--report"}.get(command, "--out")
    code, stdout, err = run(capsys, command, *flags, out_flag, "out")
    assert code == 5 and stdout == ""
    # One line and no traceback; the mark turns any NumPy warning into a failure.
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a model value is outside the float range: ")
    assert "small" not in "".join(flags) or err.endswith(": L = 0.0 H\n")
    assert not Path("out").exists()


def run_python(code, cwd=None):
    """Run ``code`` in a fresh interpreter under -W error; returns (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(planarwind.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_importing_the_cli_leaves_the_worker_pool_unloaded():
    # maximize imports its process pool when it runs; start-up pays nothing for it.
    code, out, err = run_python(
        "import sys, planarwind.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    assert (code, out, err) == (0, "[]\n", "")


def test_an_overflow_in_a_worker_exits_5_with_one_line(tmp_path):
    # Three CPUs, so the restarts run in forked workers on any host.
    Path(tmp_path, "big_problem.json").write_text(
        json.dumps({**default_problem().to_mapping(), "coefficients": BIG_COEFFICIENTS})
    )
    code, out, err = run_python(
        "import sys, planarwind.optimizer as optimizer; from planarwind.cli import main; "
        "optimizer._cpus = lambda: 3; "
        "sys.exit(main(['optimize', '--problem', 'big_problem.json', '--out', 'out']))",
        cwd=tmp_path,
    )
    assert code == 5 and out == ""
    assert err == "error: a model value is outside the float range: L = inf H\n"
    assert not Path(tmp_path, "out").exists()


class TestDeterminism:
    def test_estimate_repeats_byte_identical(self, capsys):
        args = ["estimate", "--D1", "100", "--D2", "165", "--w", "3", "--s", "0.1",
                "--NT", "10", "--NL", "4", "--O", "0.45", "--format", "json"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_optimize_repeats_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for path in (first, second):
            code, _, _ = run(capsys, "optimize", "--problem", "default",
                             "--restarts", "3", "--seed", "7", "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_fit_repeats_byte_identical(self, capsys, tmp_path, labeled_corpus):
        first = tmp_path / "c1.json"
        second = tmp_path / "c2.json"
        for path in (first, second):
            code, _, _ = run(capsys, "fit", "--in", str(labeled_corpus),
                             "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


# Each subcommand's flags as (option, default, required), in --help order.
FLAGS = {
    "estimate": [
        ("--D1", None, True), ("--D2", None, True), ("--w", None, True),
        ("--s", None, True), ("--NT", None, True), ("--NL", None, True),
        ("--O", None, False), ("--model", "full", False), ("--coeffs", None, False),
        ("--format", "text", False), ("--output", None, False),
    ],
    "grid": [
        ("--spec", None, True), ("--out", None, True), ("--labels", None, False),
        ("--noise", 0.0, False), ("--seed", 0, False),
    ],
    "synth": [
        ("--in", None, True), ("--coeffs", None, True), ("--noise", 0.0, False),
        ("--seed", 0, False), ("--out", None, True),
    ],
    "fit": [
        ("--in", None, True), ("--fraction", 0.8, False), ("--seed", 0, False),
        ("--repeats", 1, False), ("--out", None, True), ("--report", None, False),
        ("--threshold", 5.0, False), ("--bin-width", 0.5, False),
    ],
    "eval": [
        ("--in", None, True), ("--coeffs", None, True), ("--threshold", 5.0, False),
        ("--bin-width", 0.5, False), ("--report", None, True), ("--hist", None, False),
    ],
    "optimize": [
        ("--problem", None, True), ("--restarts", 100, False), ("--seed", 0, False),
        ("--out", None, True), ("--oracle", False, False), ("--resolution", None, False),
    ],
}


def test_every_flag_keeps_its_option_default_and_required():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [
            (*action.option_strings, action.default, action.required)
            for action in command._actions if action.dest != "help"
        ]
        for name, command in commands.choices.items()
    }
    assert got == FLAGS
    # 0 == 0.0, so pin the types of the numeric defaults too.
    assert [type(flag[1]) for flags in got.values() for flag in flags] == [
        type(flag[1]) for flags in FLAGS.values() for flag in flags
    ]
