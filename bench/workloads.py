"""The benchmark's three workloads and the probes of its traced run.

Each workload is closed loop with one client: ``run_pass`` returns only
when the pass is done, and the runner starts the next pass after that.
Every call into planarwind made here sits in a span named after the
public function called, so the traced run can split a pass by layer.
Importing this module imports planarwind (and with it NumPy and SciPy),
which the runner counts as set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from planarwind import cli
from planarwind.dataset import (
    default_corpus,
    read_csv,
    split_train_eval,
    synth_labels,
    write_csv,
)
from planarwind.estimator import DEFAULT_COEFFICIENTS, inductance, inductance_from_dims
from planarwind.geometry import WindingGeometry
from planarwind.optimizer import (
    DEFAULT_RESOLUTION,
    brute_force_max,
    default_problem,
    maximize,
)
from planarwind.regression import build_design_matrix, evaluate, fit_ols, repeated_fit
from planarwind.units import m_to_mm

# Per-layer metrics of the traced run: name -> unit.  Each workload's
# layer_metrics() returns the ones of the layers it runs.
LAYER_UNITS = {
    "geometry.construct_us": "us",
    "estimator.inductance_us": "us",
    "estimator.inductance_from_dims_ns_per_row": "ns",
    "dataset.synth_labels_s": "s",
    "dataset.write_csv_s": "s",
    "dataset.read_csv_s": "s",
    "dataset.split_train_eval_s": "s",
    "dataset.csv_bytes": "bytes",
    "dataset.read_csv_rows_per_s": "1/s",
    "regression.build_design_matrix_s": "s",
    "regression.fit_ols_s": "s",
    "regression.evaluate_s": "s",
    "regression.design_matrix_bytes": "bytes",
    "optimizer.maximize_s": "s",
    "optimizer.maximize_ms_per_restart": "ms",
    "optimizer.maximize_restarts": "count",
    "optimizer.maximize_feasible_ratio": "ratio",
    **{f"optimizer.maximize_s.NT{nt}": "s" for nt in range(3, 11)},
    "optimizer.brute_force_max_s": "s",
    "optimizer.brute_force_max_grid_points": "count",
    "optimizer.brute_force_max_ns_per_point": "ns",
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_scipy_optimize_ms": "ms",
    "cli.import_planarwind_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_pct": "%",
}


def _median_over_passes(tracer, name: str, passes) -> float:
    by_pass = tracer.self_seconds_by_pass(name)
    return statistics.median(by_pass.get(p, 0.0) for p in passes)


class Workload:
    """Defaults for the optional steps of a workload."""

    # Peak RSS of the program's own subprocesses, when it runs in them.
    peak_rss_kb = None

    def final_check(self, output) -> list[str]:
        return []

    def cleanup(self) -> None:
        pass


class DesignSearch(Workload):
    """``planarwind optimize --problem default --oracle`` as library calls."""

    name = "design-search"
    item = "design searches"
    # Criterion 8: the reference optimum (mm, N_T) and the oracle gap.
    expected_point = (54.0, 101.0, 2.5, 0.1, 8)
    ORACLE_GAP = 1e-3

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.restarts = 2 if tiny else 100

    def seeds(self) -> dict:
        return {"maximize_seed": self.seed}

    def setup(self, tracer) -> None:
        self.problem = default_problem()

    def run_pass(self, tracer):
        with tracer.span("optimizer.maximize"):
            result = maximize(self.problem, restarts=self.restarts, seed=self.seed)
        with tracer.span("optimizer.brute_force_max"):
            oracle = brute_force_max(self.problem)
        return result, oracle

    def items(self, output) -> int:
        return 1

    def check(self, output) -> list[str]:
        result, oracle = output
        if not result.feasible_found:
            return ["maximize found no feasible point"]
        g = result.best
        point = (m_to_mm(g.D1), m_to_mm(g.D2), m_to_mm(g.w), m_to_mm(g.s), g.n_turns)
        failures = []
        want = self.expected_point
        if any(abs(a - b) > 1e-6 for a, b in zip(point[:4], want[:4])) or point[4] != want[4]:
            failures.append(f"optimum {point} differs from {want}")
        gap = abs(result.L_best - oracle.L_best) / oracle.L_best
        if not gap <= self.ORACLE_GAP:
            failures.append(f"optimizer and oracle differ by {gap:.3%}")
        return failures

    def grid_points(self) -> int:
        points = len(self.problem.NT_domain)
        for key, step in DEFAULT_RESOLUTION.items():
            lo, hi = self.problem.bounds[key]
            points *= int(round((hi - lo) / step)) + 1
        return points

    def probe(self, tracer, output) -> list[str]:
        """Time maximize on each single-N_T sub-problem.

        Restarts are seeded (seed, N_T, index), so each sub-problem repeats
        exactly the full run's restarts for that N_T; a mismatch fails.
        """
        full = output[0].restarts
        failures = []
        for nt in self.problem.NT_domain:
            sub = dataclasses.replace(self.problem, NT_domain=(nt,))
            tracer.pass_id = f"NT{nt}"
            with tracer.span("optimizer.maximize"):
                result = maximize(sub, restarts=self.restarts, seed=self.seed)
            if result.restarts != tuple(r for r in full if r.n_turns == nt):
                failures.append(f"N_T={nt} sub-problem restarts differ from the full run's")
        return failures

    def layer_metrics(self, tracer, passes, output) -> dict:
        result = output[0]
        maximize_s = _median_over_passes(tracer, "optimizer.maximize", passes)
        oracle_s = _median_over_passes(tracer, "optimizer.brute_force_max", passes)
        by_nt = tracer.self_seconds_by_pass("optimizer.maximize")
        points = self.grid_points()
        metrics = {
            "optimizer.maximize_s": maximize_s,
            "optimizer.maximize_ms_per_restart": maximize_s * 1e3 / result.restarts_run,
            "optimizer.maximize_restarts": len(result.restarts),
            "optimizer.maximize_feasible_ratio":
                sum(r.feasible for r in result.restarts) / len(result.restarts),
            "optimizer.brute_force_max_s": oracle_s,
            "optimizer.brute_force_max_grid_points": points,
            "optimizer.brute_force_max_ns_per_point": oracle_s * 1e9 / points,
        }
        for nt in range(3, 11):
            metrics[f"optimizer.maximize_s.NT{nt}"] = by_nt.get(f"NT{nt}", 0.0)
        return metrics


class CorpusX10(Workload):
    """``grid --labels``, ``fit --repeats 5`` and ``eval`` at ten times the AB corpus."""

    name = "corpus-x10"
    item = "rows"
    NOISE_SIGMA = 0.0086
    # Ten noise copies also in the smoke test: at one copy the exponent
    # shifts exceed 0.05 for many noise seeds.
    COPIES = 10
    FRACTION = 0.8
    REPEATS = 5
    # Criterion 5: exponent shifts and held-out MAE under 2% label noise.
    MAX_EXPONENT_SHIFT = 0.05
    MAE_RANGE = (1.0, 4.0)
    expected = DEFAULT_COEFFICIENTS

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.path = out_dir / f"corpus-{os.getpid()}.csv"

    def noise_seeds(self) -> list[int]:
        return [self.seed * 10 + k for k in range(self.COPIES)]

    def split_seeds(self) -> list[int]:
        # repeated_fit's derived seeds for base_seed = workload seed.
        return [self.seed + i for i in range(self.REPEATS)]

    def seeds(self) -> dict:
        return {"noise_seeds": self.noise_seeds(), "split_seeds": self.split_seeds()}

    def setup(self, tracer) -> None:
        geometries = default_corpus()
        self.samples = []
        for noise_seed in self.noise_seeds():
            with tracer.span("dataset.synth_labels"):
                labeled = synth_labels(geometries, DEFAULT_COEFFICIENTS, self.NOISE_SIGMA, noise_seed)
            self.samples.extend(labeled)

    def run_pass(self, tracer):
        with tracer.span("dataset.write_csv"):
            write_csv(self.samples, self.path)
        with tracer.span("dataset.read_csv"):
            back = read_csv(self.path)
        fits = []
        for split_seed in self.split_seeds():
            with tracer.span("dataset.split_train_eval"):
                split = split_train_eval(back, self.FRACTION, split_seed)
            train = [back[i] for i in split.train]
            held_out = [back[i] for i in split.eval]
            with tracer.span("regression.build_design_matrix"):
                X, y = build_design_matrix(train)
            with tracer.span("regression.fit_ols"):
                coefficients = fit_ols(X, y)
            with tracer.span("regression.evaluate"):
                report = evaluate(held_out, coefficients)
            fits.append((coefficients, report, X.shape))
        return back, fits

    def items(self, output) -> int:
        return len(output[0])

    def check(self, output) -> list[str]:
        back, fits = output
        failures = []
        if len(back) != len(self.samples):
            failures.append(f"read {len(back)} rows, wrote {len(self.samples)}")
        # Lengths are clean decimals and survive the 4-decimal mm format
        # exactly; labels keep 12 significant digits.
        mismatched = sum(
            a.geometry != b.geometry or a.source != b.source
            or abs(a.L_ref - b.L_ref) > 1e-11 * a.L_ref
            for a, b in zip(self.samples, back)
        )
        if mismatched:
            failures.append(f"{mismatched} rows read back differ from the rows written")
        want = self.expected.as_tuple()[1:]
        for coefficients, report, _ in fits:
            shift = max(abs(a - b) for a, b in zip(coefficients.as_tuple()[1:], want))
            if not shift <= self.MAX_EXPONENT_SHIFT:
                failures.append(f"exponent shift {shift:.4f} exceeds {self.MAX_EXPONENT_SHIFT}")
            lo, hi = self.MAE_RANGE
            if not lo <= report.mae_pct <= hi:
                failures.append(f"held-out MAE {report.mae_pct:.3f}% outside {lo}..{hi}%")
        return failures

    def final_check(self, output) -> list[str]:
        """After timing: the first fit equals repeated_fit's first result."""
        back, fits = output
        results, _ = repeated_fit(back, self.FRACTION, base_seed=self.seed, repeats=1)
        if results[0][0].as_tuple() != fits[0][0].as_tuple():
            return ["first fit differs from repeated_fit's first result"]
        return []

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)

    def probe(self, tracer, output) -> list[str]:
        """Per-call costs of the geometry and model kernels over the corpus."""
        back = output[0]
        fields = [
            (g.D1, g.D2, g.w, g.s, g.n_turns, g.n_layers, g.layer_gap)
            for g in (sample.geometry for sample in back)
        ]
        tracer.pass_id = "probe"
        with tracer.span("geometry.WindingGeometry"):
            rebuilt = [WindingGeometry(*f) for f in fields]
        with tracer.span("estimator.inductance"):
            scalar = [inductance(g) for g in rebuilt]
        failures = []
        if rebuilt != [sample.geometry for sample in back]:
            failures.append("rebuilt geometries differ from the corpus")
        # The vectorised kernel takes one layer count per call, so the
        # rows are evaluated in groups of equal N_L.
        columns = np.array([
            (g.D1, g.D2, g.d1, g.d2, g.w, g.s, g.n_turns, g.n_layers, g.layer_gap or 1.0)
            for g in rebuilt
        ]).T
        groups = [(int(nl), columns[:, columns[7] == nl]) for nl in np.unique(columns[7])]
        vector = np.empty(len(rebuilt))
        for repeat in range(5):
            tracer.pass_id = f"vector{repeat}"
            for nl, cols in groups:
                with tracer.span("estimator.inductance_from_dims"):
                    values = inductance_from_dims(*cols[:7], nl, cols[8] if nl > 1 else None)
                vector[columns[7] == nl] = values
        worst = float(np.max(np.abs(vector - np.array(scalar)) / np.array(scalar)))
        if not worst <= 1e-12:
            failures.append(f"scalar and vectorised kernels differ by {worst:.2e}")
        self.probe_rows = len(rebuilt)
        return failures

    def layer_metrics(self, tracer, passes, output) -> dict:
        back, fits = output
        rows = len(back)
        read_s = _median_over_passes(tracer, "dataset.read_csv", passes)
        vector_s = statistics.median(
            tracer.self_seconds_by_pass("estimator.inductance_from_dims").values()
        )
        train_rows, columns = fits[0][2]
        return {
            "geometry.construct_us":
                tracer.self_seconds_by_pass("geometry.WindingGeometry")["probe"] * 1e6 / self.probe_rows,
            "estimator.inductance_us":
                tracer.self_seconds_by_pass("estimator.inductance")["probe"] * 1e6 / self.probe_rows,
            "estimator.inductance_from_dims_ns_per_row": vector_s * 1e9 / self.probe_rows,
            "dataset.synth_labels_s": tracer.self_seconds_by_pass("dataset.synth_labels")["setup"],
            "dataset.write_csv_s": _median_over_passes(tracer, "dataset.write_csv", passes),
            "dataset.read_csv_s": read_s,
            "dataset.split_train_eval_s":
                _median_over_passes(tracer, "dataset.split_train_eval", passes),
            "dataset.csv_bytes": self.path.stat().st_size,
            "dataset.read_csv_rows_per_s": rows / read_s,
            "regression.build_design_matrix_s":
                _median_over_passes(tracer, "regression.build_design_matrix", passes),
            "regression.fit_ols_s": _median_over_passes(tracer, "regression.fit_ols", passes),
            "regression.evaluate_s": _median_over_passes(tracer, "regression.evaluate", passes),
            # Computed from the shape of X (float64) and y, not measured.
            "regression.design_matrix_bytes": train_rows * (columns + 1) * 8,
        }


class CliEstimate(Workload):
    """Sequential ``python -m planarwind.cli estimate`` subprocesses."""

    name = "cli-estimate"
    item = "calls"
    MODELS = ("full", "simplified", "square", "mohan")
    FORMATS = ("text", "json", "csv")
    CALL_TIMEOUT_S = 60.0

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.calls = 0
        self.peak_rss_kb = 0

    def seeds(self) -> dict:
        return {"argument_seed": self.seed}

    def arguments(self) -> list[list[str]]:
        """One winding per model and format, drawn from the seed.

        Square and mohan need D1 = D2, mohan a single layer.  Draws are
        rejected until the inner side clears 10 mm, so every call succeeds.
        """
        rng = np.random.default_rng(self.seed)
        out = []
        for model in self.MODELS:
            for fmt in self.FORMATS:
                while True:
                    D1, D2 = sorted(np.round(rng.uniform(40.0, 160.0, 2), 1))
                    w = round(float(rng.uniform(1.0, 5.0)), 1)
                    s = round(float(rng.uniform(0.1, 1.0)), 1)
                    nt = int(rng.integers(2, 11))
                    nl = 1 if model == "mohan" else int(rng.integers(1, 5))
                    if model in ("square", "mohan"):
                        D2 = D1
                    if D1 - 2 * nt * (w + s) + 2 * s > 10.0:
                        break
                args = ["estimate", "--D1", f"{D1:g}", "--D2", f"{D2:g}", "--w", f"{w:g}",
                        "--s", f"{s:g}", "--NT", str(nt), "--NL", str(nl)]
                if nl > 1:
                    args += ["--O", f"{round(float(rng.uniform(0.2, 2.0)), 2):g}"]
                out.append(args + ["--model", model, "--format", fmt])
        return out

    def setup(self, tracer) -> None:
        self.argument_lists = self.arguments()
        self.expected = [self.in_process(args)[1] for args in self.argument_lists]

    @staticmethod
    def in_process(args) -> tuple[int, bytes]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(args))
        return code, buffer.getvalue().encode()

    def subprocess_call(self, command) -> tuple[int, bytes, int]:
        """Run one command; exit code, stdout and the child's peak RSS (KiB).

        os.wait4 gives this child's own resource usage, which the
        subprocess module's wait would discard.  A watchdog kills a child
        that outlives the timeout; the child is reaped only here, so its
        pid cannot be reused before the kill.
        """
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(self.CALL_TIMEOUT_S, os.kill, (child.pid, signal.SIGKILL))
        watchdog.start()
        try:
            out = child.stdout.read()
            child.stderr.read()
        finally:
            watchdog.cancel()
            child.stdout.close()
            child.stderr.close()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        return child.returncode, out, usage.ru_maxrss

    def run_pass(self, tracer):
        index = self.calls % len(self.argument_lists)
        self.calls += 1
        command = [sys.executable, "-m", "planarwind.cli", *self.argument_lists[index]]
        with tracer.span("cli.estimate_subprocess"):
            code, out, rss_kb = self.subprocess_call(command)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return index, code, out

    def items(self, output) -> int:
        return 1

    def check(self, output) -> list[str]:
        index, code, out = output
        failures = []
        if code != 0:
            failures.append(f"call {index} exited {code}")
        if out != self.expected[index]:
            failures.append(f"call {index} stdout differs from in-process cli.main")
        return failures

    def probe(self, tracer, output) -> list[str]:
        """Interpreter start, import costs and in-process main."""
        tracer.pass_id = "probe"
        failures = []
        self.interpreter_ms = []
        for _ in range(5):
            start = time.perf_counter()
            with tracer.span("cli.interpreter"):
                code, _, _ = self.subprocess_call([sys.executable, "-c", "pass"])
            self.interpreter_ms.append((time.perf_counter() - start) * 1e3)
            if code != 0:
                failures.append(f"python -c pass exited {code}")
        self.imports_ms = {"numpy": [], "scipy.optimize": [], "planarwind": []}
        for _ in range(3):
            with tracer.span("cli.importtime"):
                done = subprocess.run(
                    [sys.executable, "-X", "importtime", "-c", "import planarwind.cli"],
                    capture_output=True, text=True, timeout=self.CALL_TIMEOUT_S,
                )
            # Lines read "import time: self [us] | cumulative | name".
            for line in done.stderr.splitlines():
                match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
                if match and match.group(2) in self.imports_ms:
                    self.imports_ms[match.group(2)].append(int(match.group(1)) * 1e-3)
        failures += [f"import of {name} not in -X importtime output"
                     for name, values in self.imports_ms.items() if len(values) != 3]
        for round_ in range(10):
            for index, args in enumerate(self.argument_lists):
                tracer.pass_id = f"main{round_}.{index}"
                with tracer.span("cli.main"):
                    _, out = self.in_process(args)
                if out != self.expected[index]:
                    failures.append(f"in-process call {index} is not deterministic")
        return failures

    def layer_metrics(self, tracer, passes, output) -> dict:
        main_s = tracer.self_seconds_by_pass("cli.main").values()
        return {
            "cli.interpreter_ms": statistics.median(self.interpreter_ms),
            "cli.import_numpy_ms": statistics.median(self.imports_ms["numpy"] or [0.0]),
            "cli.import_scipy_optimize_ms":
                statistics.median(self.imports_ms["scipy.optimize"] or [0.0]),
            "cli.import_planarwind_ms": statistics.median(self.imports_ms["planarwind"] or [0.0]),
            "cli.main_ms": statistics.median(main_s) * 1e3,
        }


WORKLOADS = {w.name: w for w in (DesignSearch, CorpusX10, CliEstimate)}
