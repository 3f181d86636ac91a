"""One invariant over the command line: every failure exits with its documented code.

Hypothesis draws ``estimate`` argv from its flag table; ``optimize
--restarts 1 [--oracle]`` problem and coefficient documents and ``grid``
specs from their key rules (``units.json_keys``); and the sample and
geometry CSV files that ``synth``, ``fit`` and ``eval`` read, with bad
cells and missing columns.  Numbers range across the float range and past
it: 0, the NaN and Infinity tokens, integers too large for a float and
values of the wrong JSON type.  Output targets are new, in a missing
folder, existing files or a folder.  Whatever is drawn, ``main`` returns
0, 2, 3, 4 or 5, never 1 (an uncaught exception); a command that succeeds
writes JSON documents without the NaN and Infinity tokens; a command that
fails prints nothing on stdout and leaves every file as it found it; and no
command leaves a staged temporary behind.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from dataclasses import fields

from hypothesis import event, example, given, settings, strategies as st

from planarwind import (
    DEFAULT_COEFFICIENTS,
    GridSpec,
    default_problem,
    generate_grid,
    synth_labels,
    write_csv,
    write_geometry_csv,
)
from planarwind.cli import main
from planarwind.estimator import COEFFICIENT_NAMES
from planarwind.optimizer import BOUND_KEYS

EXIT_CODES = {0, 2, 3, 4, 5}

# json.dump writes float nan and inf as the NaN and Infinity tokens.
_EXTREMES = [0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300,
             math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)]
_numbers = st.one_of(st.sampled_from(_EXTREMES), st.floats(), st.integers(-10 ** 6, 10 ** 6))
_anything = st.one_of(_numbers, st.sampled_from(["1", "", True, None, [], {}, [1.0], {"a": 1}]))

# a1 = a2 = 150: on windings of centimeters the model underflows to 0.0.
SMALL = {**DEFAULT_COEFFICIENTS.to_mapping(), "a1": 150.0, "a2": 150.0}
# maximize finds a point in this box, and the oracle's 0.5 mm D grid has none.
NARROW = {"D1": [30, 30.2], "D2": [60, 60.2], "d1": [13.9, 14.5], "d2": [40, 50],
          "w": [2.5, 2.59], "s": [0.1, 0.19], "NT": [3], "NL": 1}


def _edited(draw, document, values):
    """document with up to three keys set from values[key], and maybe one dropped or added."""
    document = dict(document)
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=3)):
        document[key] = draw(values[key])
    change = draw(st.sampled_from([None, None, None, None, "drop", "add"]))
    if change == "drop":
        del document[draw(st.sampled_from(sorted(document)))]
    elif change == "add":
        document["unknown"] = draw(_anything)
    return document


@st.composite
def coefficient_documents(draw):
    values = {name: st.one_of(st.floats(-200.0, 200.0), _anything) for name in COEFFICIENT_NAMES}
    values["label"] = st.one_of(st.text(max_size=3), _anything)
    return _edited(draw, DEFAULT_COEFFICIENTS.to_mapping(), values)


def _bounds(key):
    # Scaled default bounds, most of the time, keep the oracle's grid near
    # the reference size and the search feasible or nearly so.
    lo, hi = default_problem().to_mapping()[key]
    scales = st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0])
    scaled = st.tuples(scales, scales).map(lambda f: [lo * f[0], hi * f[1]])
    return st.one_of(scaled, scaled, scaled, st.lists(_anything, min_size=2, max_size=2),
                     st.lists(_numbers, max_size=3), _anything)


@st.composite
def problem_documents(draw):
    values = {key: _bounds(key) for key in BOUND_KEYS}
    turns = st.lists(st.integers(1, 12), min_size=1, max_size=4)
    values["NT"] = st.one_of(turns, turns, st.lists(_anything, max_size=4), _anything)
    values["NL"] = st.one_of(st.integers(1, 6), _anything)
    values["O_mm"] = st.one_of(st.sampled_from([0.1, 0.5, 2.0]), _anything)
    values["coefficients"] = st.one_of(coefficient_documents(), _anything)
    return _edited(draw, default_problem().to_mapping(), values)


# estimate's flag table: plausible values to start from, and any text in their place.
_PLAUSIBLE = {
    "--D1": ["10", "30", "54", "100"], "--D2": ["10", "30", "60", "100"],
    "--w": ["0.5", "1", "2.5", "5"], "--s": ["0.1", "0.5", "1"],
    "--NT": ["1", "2", "5", "8", "10"], "--NL": ["1", "1", "2", "4"],
}
_lengths = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "abc", ""]),
    st.floats().map(repr),
)
_counts = st.one_of(st.integers(-1, 12).map(str),
                    st.sampled_from(["1000", "100000", str(10 ** 400), "1.5", "x"]))
_OPTIONS = {
    "--model": st.sampled_from(["full", "simplified", "square", "mohan"]),
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--coeffs": st.one_of(st.just("default"), coefficient_documents()),
    "--output": st.just("out.txt"),
}
_WILD = {
    **{flag: _lengths for flag in ("--D1", "--D2", "--w", "--s", "--O")},
    "--NT": _counts, "--NL": _counts,
    "--model": st.sampled_from(["other", ""]),
    "--format": st.sampled_from(["xml", ""]),
    "--coeffs": st.sampled_from(["missing.json", ""]),
}


@st.composite
def estimate_flags(draw):
    flags = {flag: draw(st.sampled_from(values)) for flag, values in _PLAUSIBLE.items()}
    if flags["--NL"] != "1":
        flags["--O"] = draw(st.sampled_from(["0.1", "0.5", "1.6"]))
    flags.update(draw(st.fixed_dictionaries({}, optional=_OPTIONS)))
    return _edited(draw, flags, _WILD)


def _tree(directory):
    """Every file under directory with its bytes, and every folder with None."""
    tree = {}
    for root, folders, files in os.walk(directory):
        for name in folders:
            tree[os.path.join(root, name)] = None
        for name in files:
            with open(os.path.join(root, name), "rb") as handle:
                tree[os.path.join(root, name)] = handle.read()
    return tree


# The flags that name an output file, and those whose file is a JSON document,
# by command; estimate's --output is one under --format json.
_OUTPUT_FLAGS = ("--out", "--output", "--report", "--hist")
_JSON_FLAGS = {"estimate": ("--output",), "fit": ("--out", "--report"), "eval": ("--report",),
               "optimize": ("--out",)}


def _strict_json(text):
    """text parsed as JSON, whose grammar has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def _json_documents(argv, stdout):
    """The JSON texts that a run of argv which succeeded left, in files or on stdout."""
    pairs = list(zip(argv, argv[1:]))
    if argv[0] == "estimate" and ("--format", "json") not in pairs:
        return []
    if argv[0] == "estimate" and "--output" not in argv:
        return [stdout]
    # Of a target given twice, the later file is the one left.
    last_flag = {path: flag for flag, path in pairs if flag in _OUTPUT_FLAGS}
    texts = []
    for path, flag in last_flag.items():
        if flag in _JSON_FLAGS.get(argv[0], ()):
            with open(path) as handle:
                texts.append(handle.read())
    return texts


def _check(argv, directory):
    """Run main(argv) on files in directory; assert the output contract.

    The exit code is a documented one; on success every JSON document
    written parses as JSON, NaN and Infinity rejected; on failure stdout is
    empty and the directory is as it was, no file added and none changed;
    and in every case no staged temporary is left.
    """
    before = _tree(directory)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in EXIT_CODES, argv
    event(f"exit {code}")
    after = _tree(directory)
    if code == 0:
        for text in _json_documents(argv, stdout.getvalue()):
            _strict_json(text)
    else:
        assert stdout.getvalue() == ""
        assert after == before
    assert not [path for path in after if path.endswith(".tmp")]


def _write(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle)
    return path


_GOLDEN = {"--D1": "10", "--D2": "10", "--w": "1", "--s": "0.5", "--NT": "2", "--NL": "1"}


@given(flags=estimate_flags())
@example(flags={**_GOLDEN, "--coeffs": SMALL})
@example(flags={**_GOLDEN, "--coeffs": SMALL, "--output": "out.txt"})
@settings(max_examples=80)
def test_estimate_exits_with_a_documented_code(flags):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["estimate"]
        for flag, value in flags.items():
            if isinstance(value, dict):
                value = _write(os.path.join(directory, "coeffs.json"), value)
            elif flag == "--output":
                value = os.path.join(directory, value)
            argv += [flag, str(value)]
        _check(argv, directory)


@given(problem=problem_documents(), oracle=st.booleans(), restarts=st.just(1))
@example(problem={**default_problem().to_mapping(), "coefficients": SMALL}, oracle=False,
         restarts=1)
@example(problem={**default_problem().to_mapping(), "coefficients": SMALL}, oracle=True,
         restarts=1)
# Nine of the first 100 restarts end feasible here; the first is index 5.
@example(problem=NARROW, oracle=True, restarts=100)
@settings(max_examples=40)
def test_optimize_exits_with_a_documented_code(problem, oracle, restarts):
    with tempfile.TemporaryDirectory() as directory:
        out = os.path.join(directory, "out.json")
        argv = ["optimize", "--problem", _write(os.path.join(directory, "problem.json"), problem),
                "--restarts", str(restarts), "--out", out]
        _check(argv + ["--oracle"] * oracle, directory)


# Output targets: a new file, an existing file, one in a missing folder and a folder.
_TARGETS = st.sampled_from(["out", "out", "existing", "existing",
                            os.path.join("missing", "out"), "folder"])


def _targets(directory, *names):
    """The drawn target names as paths in directory, beside an existing file and a folder."""
    with open(os.path.join(directory, "existing"), "w") as handle:
        handle.write("existing bytes\n")
    os.mkdir(os.path.join(directory, "folder"))
    return [os.path.join(directory, name) for name in names]


# A small grid: every list short, so a drawn spec generates quickly.
SMALL_SPEC = GridSpec(
    D1_values=(70.0, 90.0), D2_values=(70.0, 100.0), w_values=(3.0, 4.0),
    s_values=(0.1, 0.5), O_values=(0.5, 1.5), NT_values=(6, 8), NL_values=(1, 2, 3),
)


def _spec_values(name):
    lo, hi = getattr(SMALL_SPEC, name)[0], getattr(SMALL_SPEC, name)[-1]
    element = st.integers(1, 12) if name in ("NT_values", "NL_values") else st.sampled_from(
        [lo * 0.5, lo, hi, hi * 2.0])
    plausible = st.lists(element, min_size=1, max_size=3)
    return st.one_of(plausible, plausible, st.lists(_anything, max_size=3), _anything)


@st.composite
def grid_spec_documents(draw):
    values = {f.name: _spec_values(f.name) for f in fields(GridSpec) if f.name.endswith("_values")}
    values["min_inner"] = st.one_of(st.sampled_from([0.0, 17.0, 60.0]), _anything)
    return _edited(draw, SMALL_SPEC.to_mapping(), values)


@given(spec=grid_spec_documents(), labels=st.sampled_from([None, "default", "coeffs"]),
       coefficients=coefficient_documents(), noise=st.sampled_from([None, "0", "0.01", "1e300"]),
       target=_TARGETS)
@example(spec=SMALL_SPEC.to_mapping(), labels="coeffs", coefficients=SMALL, noise=None,
         target="existing")
@example(spec={**SMALL_SPEC.to_mapping(), "NT_values": [10 ** 400]}, labels=None,
         coefficients={}, noise=None, target="out")
@settings(max_examples=40, deadline=None)
def test_grid_exits_with_a_documented_code(spec, labels, coefficients, noise, target):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["grid", "--spec", _write(os.path.join(directory, "spec.json"), spec),
                "--out", *_targets(directory, target)]
        if labels is not None:
            argv += ["--labels", labels if labels == "default"
                     else _write(os.path.join(directory, "coeffs.json"), coefficients)]
        if noise is not None:
            argv += ["--noise", noise, "--seed", "1"]
        _check(argv, directory)


def _rows(labeled):
    """The CSV rows of SMALL_SPEC's windings, header first, labeled or not."""
    geometries = generate_grid(SMALL_SPEC)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.csv")
        if labeled:
            write_csv(synth_labels(geometries, DEFAULT_COEFFICIENTS), path)
        else:
            write_geometry_csv(geometries, path)
        with open(path, newline="") as handle:
            return list(csv.reader(handle))


def _csv_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


SAMPLE_ROWS = _rows(labeled=True)
GEOMETRY_ROWS = _rows(labeled=False)
SAMPLE_TEXT = _csv_text(SAMPLE_ROWS)
_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "-1", "0", "abc", "1.5", "1e400", "1e-300",
                     str(10 ** 400), "simulated", "measured", "other"]),
    st.floats().map(repr),
)


@st.composite
def csv_texts(draw, rows):
    """rows as CSV text, with up to three cells replaced and maybe a column dropped or added."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(rows[row]) - 1))
        rows[row][column] = draw(_CELLS)
    change = draw(st.sampled_from([None] * 6 + ["drop", "drop row", "add"]))
    column = draw(st.integers(0, len(rows[0]) - 1))
    if change == "drop":
        rows = [row[:column] + row[column + 1:] for row in rows]
    elif change == "drop row":
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:column] + rows[row][column + 1:]
    elif change == "add":
        rows[-1] = rows[-1] + [draw(_CELLS)]
    return _csv_text(rows)


def _write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)
    return path


@given(text=csv_texts(GEOMETRY_ROWS), coefficients=st.one_of(st.just("default"),
       coefficient_documents()), target=_TARGETS)
@settings(max_examples=40, deadline=None)
def test_synth_exits_with_a_documented_code(text, coefficients, target):
    with tempfile.TemporaryDirectory() as directory:
        if coefficients != "default":
            coefficients = _write(os.path.join(directory, "coeffs.json"), coefficients)
        argv = ["synth", "--in", _write_text(os.path.join(directory, "in.csv"), text),
                "--coeffs", coefficients, "--out", *_targets(directory, target)]
        _check(argv, directory)


@given(text=csv_texts(SAMPLE_ROWS), out=_TARGETS, report=st.one_of(st.none(), _TARGETS),
       fraction=st.sampled_from(["0.5", "0.8", "0.99"]), repeats=st.sampled_from(["1", "2"]))
# The coefficients can be written and the report cannot, so neither is.
@example(text=SAMPLE_TEXT, out="out", report=os.path.join("missing", "out"), fraction="0.8",
         repeats="1")
@settings(max_examples=40, deadline=None)
def test_fit_exits_with_a_documented_code(text, out, report, fraction, repeats):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["fit", "--in", _write_text(os.path.join(directory, "in.csv"), text),
                "--fraction", fraction, "--repeats", repeats,
                "--out", *_targets(directory, out)]
        if report is not None:
            argv += ["--report", os.path.join(directory, report)]
        _check(argv, directory)


@given(text=csv_texts(SAMPLE_ROWS), coefficients=st.one_of(st.just("default"),
       coefficient_documents()), report=_TARGETS, hist=st.one_of(st.none(), _TARGETS))
# The report can be written and the histogram cannot: the existing report stays.
@example(text=SAMPLE_TEXT, coefficients="default", report="existing",
         hist=os.path.join("missing", "out"))
# Finite model values whose errors overflow: no report of -Infinity and NaN.
@example(text=SAMPLE_TEXT, coefficients={**DEFAULT_COEFFICIENTS.to_mapping(), "a0": 1e308},
         report="out", hist=None)
@settings(max_examples=40, deadline=None)
def test_eval_exits_with_a_documented_code(text, coefficients, report, hist):
    with tempfile.TemporaryDirectory() as directory:
        if coefficients != "default":
            coefficients = _write(os.path.join(directory, "coeffs.json"), coefficients)
        argv = ["eval", "--in", _write_text(os.path.join(directory, "in.csv"), text),
                "--coeffs", coefficients, "--report", *_targets(directory, report)]
        if hist is not None:
            argv += ["--hist", os.path.join(directory, hist)]
        _check(argv, directory)
