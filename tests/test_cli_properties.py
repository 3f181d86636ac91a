"""One invariant over the command line: every failure exits with its documented code.

Hypothesis draws ``estimate`` argv from its flag table, and ``optimize
--restarts 1 [--oracle]`` problem and coefficient documents from their key
rules (``units.json_keys``), with numbers across the float range and past
it: 0, the NaN and Infinity tokens, integers too large for a float and
values of the wrong JSON type.  Whatever is drawn, ``main`` returns 0, 2, 3,
4 or 5, never 1 (an uncaught exception), and a command that fails prints
nothing on stdout and leaves no output file.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from planarwind import DEFAULT_COEFFICIENTS, default_problem
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


def _check(argv, output):
    """Run main(argv); assert its exit code, and on failure no stdout and no output file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in EXIT_CODES, argv
    if code != 0:
        assert stdout.getvalue() == ""
        assert not os.path.exists(output)


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
        _check(argv, os.path.join(directory, "out.txt"))


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
        _check(argv + ["--oracle"] * oracle, out)
