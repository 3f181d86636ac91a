"""Frozen parent implementations, one per production function.

Each public function is a production function of the same name as it was
at the commit its docstring names.  The tests require the two to agree,
bit for bit unless a test says otherwise.
"""

import csv
import math
from dataclasses import replace

import numpy as np

from planarwind import (
    MU0,
    SOURCES,
    GeometryError,
    InfeasibleProblemError,
    Sample,
    SampleFileError,
    WindingGeometry,
    inductance_from_dims,
    split_train_eval,
)
from planarwind import regression
from planarwind.dataset import CSV_HEADER
from planarwind.geometry import inner_side, meets_min_inner
from planarwind.optimizer import _TINY, _axis, _result, oracle_steps
from planarwind.units import h_to_uh, m_to_mm, mm_to_m, uh_to_h


def generate_grid(spec):
    """generate_grid as of da03447: nested loops, each value converted where it is used."""
    min_inner_m = mm_to_m(spec.min_inner)
    out = []
    for D1 in spec.D1_values:
        for D2 in spec.D2_values:
            if D1 > D2:
                continue
            for w in spec.w_values:
                for s in spec.s_values:
                    for nt in spec.NT_values:
                        d1 = inner_side(mm_to_m(D1), nt, mm_to_m(w), mm_to_m(s))
                        if d1 <= 0.0 or not meets_min_inner(d1, min_inner_m):
                            continue
                        for nl in spec.NL_values:
                            if nl == 1:
                                out.append(WindingGeometry(
                                    mm_to_m(D1), mm_to_m(D2), mm_to_m(w), mm_to_m(s), nt, 1,
                                ))
                            else:
                                for gap in spec.O_values:
                                    out.append(WindingGeometry(
                                        mm_to_m(D1), mm_to_m(D2), mm_to_m(w), mm_to_m(s),
                                        nt, nl, mm_to_m(gap),
                                    ))
    return out


def _format_row(geometry, L_uH, source):
    g = geometry
    gap = f"{m_to_mm(g.layer_gap):.4f}" if g.layer_gap is not None else ""
    return [
        f"{m_to_mm(g.D1):.4f}", f"{m_to_mm(g.D2):.4f}", f"{m_to_mm(g.d1):.4f}",
        f"{m_to_mm(g.d2):.4f}", f"{m_to_mm(g.w):.4f}", f"{m_to_mm(g.s):.4f}",
        str(g.n_turns), str(g.n_layers), gap, L_uH, source,
    ]


def _write_rows(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def write_csv(samples, path):
    """write_csv as of 8f66576: a csv.writer over one formatted cell list per row."""
    _write_rows(path, (
        _format_row(sample.geometry, f"{h_to_uh(sample.L_ref):.12g}", sample.source)
        for sample in samples
    ))


def write_geometry_csv(geometries, path):
    """write_geometry_csv as of 8f66576: write_csv's rows with the label and source empty."""
    _write_rows(path, (_format_row(geometry, "", "") for geometry in geometries))


def _parse_float(path, line, name, text):
    try:
        return float(text)
    except ValueError:
        raise SampleFileError(path, line, f"{name} is not a number: {text!r}") from None


def _parse_geometry(path, line, row):
    lengths = []
    for name, text in zip(CSV_HEADER[:6], row[:6]):
        try:
            lengths.append(float(text))
        except ValueError:
            raise SampleFileError(path, line, f"{name} is not a number: {text.strip()!r}") from None
    D1, D2, d1, d2, w, s = lengths
    counts = []
    for name, text in zip(CSV_HEADER[6:8], row[6:8]):
        try:
            counts.append(int(text))
        except ValueError:
            raise SampleFileError(path, line, f"{name} is not an integer: {text.strip()!r}") from None
    nt, nl = counts
    gap_text = row[8].strip()
    if nl == 1 and gap_text != "":
        raise SampleFileError(path, line, f"O_mm must be empty for a single-layer row, got {gap_text!r}")
    if nl >= 2 and gap_text == "":
        raise SampleFileError(path, line, f"O_mm is required for N_L={nl}")
    gap = _parse_float(path, line, "O_mm", gap_text) if gap_text != "" else None
    try:
        geometry = WindingGeometry(
            mm_to_m(D1), mm_to_m(D2), mm_to_m(w), mm_to_m(s), nt, nl,
            mm_to_m(gap) if gap is not None else None,
        )
    except GeometryError as exc:
        raise SampleFileError(path, line, str(exc)) from None
    for name, given_mm, derived in (("d1_mm", d1, geometry.d1), ("d2_mm", d2, geometry.d2)):
        if not abs(given_mm - m_to_mm(derived)) <= 1e-3:
            raise SampleFileError(
                path, line,
                f"{name}={given_mm} does not match the value derived from the "
                f"outer side and turns ({m_to_mm(derived):.4f})",
            )
    return geometry


def _read_rows(path):
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SampleFileError(path, 1, "empty file, expected a header row") from None
        if tuple(cell.strip() for cell in header) != CSV_HEADER:
            raise SampleFileError(path, 1, f"bad header, expected {','.join(CSV_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise SampleFileError(path, line, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            yield line, row


def read_csv(path):
    """read_csv as of 8f66576 with aeb291b's underflow rule: the CSV rules stated row by row."""
    samples = []
    for line, row in _read_rows(path):
        geometry = _parse_geometry(path, line, row)
        label = row[9].strip()
        if label == "":
            raise SampleFileError(path, line, "missing label L_uH")
        L_uH = _parse_float(path, line, "L_uH", label)
        if not (L_uH > 0.0 and math.isfinite(L_uH)):
            raise SampleFileError(path, line, f"L_uH must be positive and finite, got {L_uH}")
        # Not in the replaced reader, whose Sample raised with no line: the rule since.
        if uh_to_h(L_uH) == 0.0:
            raise SampleFileError(path, line, f"L_uH = {L_uH} underflows to 0.0 H")
        source = row[10].strip()
        if source not in SOURCES:
            raise SampleFileError(
                path, line, f"source must be one of {', '.join(SOURCES)}, got {source!r}"
            )
        samples.append(Sample(geometry=geometry, L_ref=uh_to_h(L_uH), source=source))
    return samples


def read_geometry_csv(path):
    """read_geometry_csv as of 8f66576: read_csv's geometry rules, label and source ignored."""
    return [_parse_geometry(path, line, row) for line, row in _read_rows(path)]


def _design_row(sample):
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


def build_design_matrix(samples):
    """build_design_matrix as of 06fd39e: the logged features and response built row by row."""
    rows = [_design_row(sample) for sample in samples]
    return np.array([(1.0, *row[:9]) for row in rows]), np.array([row[9] for row in rows])


def evaluate(samples, coefficients, threshold_pct=5.0, bin_width_pct=0.5):
    """evaluate as of 08aedc2: each field pulled into a list, the array kernel run per N_L.

    A per-sample inductance is no bit-exact reference: on corpus AB the
    scalar kernel differs from the array kernel in the last bit on 1,054
    of 6,010 rows.
    """
    geometries = [sample.geometry for sample in samples]
    columns = [np.array([getattr(g, name) for g in geometries], dtype=float)
               for name in ("D1", "D2", "d1", "d2", "w", "s", "n_turns")]
    layers = np.array([g.n_layers for g in geometries])
    gaps = np.array([g.layer_gap for g in geometries], dtype=float)
    L_model = np.empty(len(samples))
    layer_counts = np.unique(layers).tolist()
    for nl in layer_counts:
        rows = layers == nl
        L_model[rows] = inductance_from_dims(
            *(column[rows] for column in columns), nl,
            gaps[rows] if nl > 1 else None, coefficients=coefficients,
        )
    L_ref = np.array([sample.L_ref for sample in samples])
    errors = (L_ref - L_model) / L_ref * 100.0
    return regression.FitReport(
        coefficients=coefficients,
        mean_error_pct=float(errors.mean()),
        std_error_pct=float(errors.std()),
        mae_pct=float(np.abs(errors).mean()),
        threshold_pct=threshold_pct,
        histogram=regression._histogram(errors, bin_width_pct),
        exceedance_by_NL={nl: int(np.sum((np.abs(errors) > threshold_pct) & (layers == nl)))
                          for nl in layer_counts},
        n_eval=len(samples),
    )


def repeated_fit(samples, fraction=0.8, base_seed=0, repeats=1, threshold_pct=5.0,
                 bin_width_pct=0.5):
    """repeated_fit as of aeb291b, less the dispersion: each repeat logs its own training rows."""
    regression._check_report_settings(threshold_pct, bin_width_pct)
    results = []
    for seed in range(base_seed, base_seed + repeats):
        split = split_train_eval(samples, fraction, seed)
        train = [samples[i] for i in split.train]
        held_out = [samples[i] for i in split.eval]
        X, y = regression.build_design_matrix(train)
        coefficients = regression.fit_ols(X, y, label=f"ols seed={seed} n_train={len(train)}")
        report = regression.evaluate(held_out, coefficients, threshold_pct, bin_width_pct)
        results.append((coefficients, replace(report, n_train=len(train), seed=seed,
                                              repeats=repeats)))
    return results


def inductance_simplified(g):
    """inductance_simplified as of 5d47e20, now inductance(g, SIMPLIFIED_COEFFICIENTS)."""
    Dbar1 = (g.D1 + g.d1) / 2.0
    Dbar2 = (g.D2 + g.d2) / 2.0
    value = (
        1.7274
        * MU0
        * g.D1 ** -0.592
        * g.D2 ** -0.378
        * Dbar1 ** 1.175
        * Dbar2 ** 1.072
        * g.w ** -0.183
        * (g.n_turns * g.n_layers) ** 1.8
    )
    if g.n_layers > 1:
        value *= g.layer_gap ** (-0.006 * (g.n_layers - 1))
    return value


def mohan_inductance(D, d, w, s, n_turns):
    """mohan_inductance as of 5d47e20: its closed form, before it moved onto the kernel."""
    Dbar = (D + d) / 2.0
    return (
        1.5428
        * MU0
        * D ** -1.21
        * Dbar ** 2.4
        * w ** -0.147
        * s ** -0.03
        * n_turns ** 1.78
    )


def objective(problem, nt, x):
    """The value function of optimizer._objective as of ab0c55e, before gradients were added."""
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


def _better(value, point, best_value, best_point):
    """optimizer._better as of 48f6d3c: the comparator each search folded over its candidates."""
    if best_value is None or value > best_value:
        return True
    return value == best_value and point < best_point


def brute_force_max(problem, resolution=None):
    """brute_force_max as of 48f6d3c: the kernel and feasibility mask on a 4-D array per N_T."""
    steps = oracle_steps(problem, resolution)
    b = problem.bounds
    D1 = _axis(*b["D1"], steps["D1"])[:, None, None, None]
    D2 = _axis(*b["D2"], steps["D2"])[None, :, None, None]
    w = _axis(*b["w"], steps["w"])[None, None, :, None]
    s = _axis(*b["s"], steps["s"])[None, None, None, :]
    best_value = None
    best_point = None
    for nt in problem.NT_domain:
        d1 = inner_side(D1, nt, w, s)
        d2 = inner_side(D2, nt, w, s)
        mask = (
            (D1 < D2)
            & (d1 > 0.0)
            & (d2 > 0.0)
            & (d1 >= b["d1"][0]) & (d1 <= b["d1"][1])
            & (d2 >= b["d2"][0]) & (d2 <= b["d2"][1])
        )
        if not mask.any():
            continue
        L = inductance_from_dims(
            D1, D2, np.maximum(d1, _TINY), np.maximum(d2, _TINY), w, s,
            nt, problem.n_layers, problem.layer_gap,
            coefficients=problem.coefficients,
        )
        L = np.where(mask, L, -np.inf)
        flat_index = int(np.argmax(L))
        value = float(L.reshape(-1)[flat_index])
        i, j, k, m = np.unravel_index(flat_index, L.shape)
        point = (
            float(D1[i, 0, 0, 0]), float(D2[0, j, 0, 0]),
            float(w[0, 0, k, 0]), float(s[0, 0, 0, m]), nt,
        )
        if _better(value, point, best_value, best_point):
            best_value = value
            best_point = point
    if best_point is None:
        raise InfeasibleProblemError("no feasible grid point in the box at this resolution")
    return _result(problem, best_point, ())
