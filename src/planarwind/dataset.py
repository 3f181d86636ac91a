"""Winding corpora: grid generation, train/eval splits, labels, CSV files.

Grid specifications and files use millimeters and microhenries; everything
returned to callers is SI (see :mod:`planarwind.units`).

A corpus from a parameter sweep holds a few distinct lengths in long
runs.  Windings built here share one float per value:
:func:`generate_grid` converts each spec value once, and the CSV readers
give every length above 0 the file's first float of its value, and a
sample its source name from :data:`SOURCES`.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .estimator import CoefficientSet, inductance, require_in_range
from .geometry import (
    GeometryError, WindingGeometry, frozen_slots, inner_side, is_integer, meets_min_inner,
)
from .units import h_to_uh, json_field, json_keys, m_to_mm, mm_to_m, uh_to_h

SOURCES = ("simulated", "measured", "synthetic")

CSV_HEADER = (
    "D1_mm", "D2_mm", "d1_mm", "d2_mm", "w_mm", "s_mm",
    "N_T", "N_L", "O_mm", "L_uH", "source",
)

# Corpus sizes quoted for the original simulation campaigns on datasets A
# and B.  Regenerating the grids from their stated value lists and 17 mm
# minimum inner side gives neither reading of the threshold: A has 2,060
# windings with d1 >= 17 mm and 1,970 with d1 > 17 mm, B 3,950 with either.
# generate_grid keeps d1 >= min_inner; these are reported, never asserted.
NOMINAL_GRID_COUNTS = {"A": 1800, "B": 4050}


@frozen_slots
@dataclass(frozen=True, slots=True)
class Sample:
    """One labeled winding: geometry plus reference inductance (H)."""

    geometry: WindingGeometry
    L_ref: float
    source: str = "synthetic"

    def __post_init__(self) -> None:
        if not (self.L_ref > 0.0 and math.isfinite(self.L_ref)):
            raise ValueError(f"L_ref must be positive and finite, got {self.L_ref}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid of winding parameters, in millimeters.

    A winding is generated for every combination of the value lists that
    satisfies canonical orientation (D1 <= D2) and whose inner side d1
    is at least min_inner (d2 >= d1 always, so checking d1 suffices; see
    :func:`planarwind.geometry.meets_min_inner`).  O_values apply only to
    multilayer combinations; single-layer windings carry no gap.  Counts
    are stored as int, so that a spec of NumPy integers maps to JSON.
    """

    D1_values: tuple[float, ...]
    D2_values: tuple[float, ...]
    w_values: tuple[float, ...]
    s_values: tuple[float, ...]
    O_values: tuple[float, ...]
    NT_values: tuple[int, ...]
    NL_values: tuple[int, ...]
    min_inner: float = 0.0

    def __post_init__(self) -> None:
        length = (lambda v: 0 < v < math.inf, "positive and finite")
        count = (lambda v: is_integer(v) and v >= 1, "integers >= 1")
        for name, (valid, wants) in (
            ("D1_values", length), ("D2_values", length), ("w_values", length),
            ("s_values", length), ("NT_values", count), ("NL_values", count),
            ("O_values", length),
        ):
            values = getattr(self, name)
            if len(values) == 0 and name != "O_values":
                raise ValueError(f"{name} must not be empty")
            if not all(valid(v) for v in values):
                raise ValueError(f"{name} must be {wants}, got {values}")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} contains duplicates: {values}")
        for name in ("NT_values", "NL_values"):
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        if max(self.NL_values) >= 2 and len(self.O_values) == 0:
            raise ValueError("O_values must not be empty when NL_values includes multilayer counts")
        if not 0 <= self.min_inner < math.inf:
            raise ValueError(f"min_inner must be >= 0 and finite, got {self.min_inner}")

    def to_mapping(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "GridSpec":
        # The value lists are the fields without a default, in field order.
        lists = [f.name for f in fields(cls) if f.default is MISSING]
        json_keys("grid spec", mapping, lists, [f.name for f in fields(cls) if f.name not in lists])
        values = {}
        for name in lists:
            kind = "integer" if name in ("NT_values", "NL_values") else "number"
            items = json_field(name, mapping[name], "list")
            values[name] = tuple(json_field(name, v, kind) for v in items)
        return cls(
            **values,
            min_inner=json_field("min_inner", mapping.get("min_inner", 0.0), "number"),
        )


def _standard_spec(side1: tuple, side2: tuple) -> GridSpec:
    return GridSpec(
        D1_values=side1,
        D2_values=side2,
        w_values=(3.0, 4.0, 5.0),
        s_values=(0.1, 0.3, 0.5),
        O_values=(0.5, 1.0, 1.5),
        NT_values=(6, 8, 10),
        NL_values=(1, 2, 3, 4),
        min_inner=17.0,
    )


_SIDES_SMALL = (70.0, 80.0, 90.0, 100.0, 110.0)
_SIDES_LARGE = (120.0, 130.0, 140.0, 150.0, 160.0)


def dataset_a_spec() -> GridSpec:
    """Small-winding corpus: both sides 70..110 mm in 10 mm steps."""
    return _standard_spec(_SIDES_SMALL, _SIDES_SMALL)


def dataset_b_spec() -> GridSpec:
    """Large-winding corpus: both sides 120..160 mm in 10 mm steps."""
    return _standard_spec(_SIDES_LARGE, _SIDES_LARGE)


def dataset_c_spec() -> GridSpec:
    """Mixed corpus: small D1 against large D2.

    Covers the aspect ratios absent from datasets A and B.  Not part of
    the default corpus; generate it explicitly when needed.
    """
    return _standard_spec(_SIDES_SMALL, _SIDES_LARGE)


def generate_grid(spec: GridSpec) -> list[WindingGeometry]:
    """All windings of a grid spec, in deterministic nested order.

    Loops run in field order with D1 outermost and O innermost, so equal
    specs always yield the same sequence.  Combinations with D1 > D2 are
    skipped (the D1 <= D2 mirror is generated instead), as are combinations
    whose turns do not fit or whose inner side misses min_inner.
    """
    min_inner_m = mm_to_m(spec.min_inner)
    # Each value is converted once, so the windings share one float per value.
    # The sides keep their millimeters, in which the orientation is decided.
    sides1 = [(D, mm_to_m(D)) for D in spec.D1_values]
    sides2 = [(D, mm_to_m(D)) for D in spec.D2_values]
    widths = [mm_to_m(w) for w in spec.w_values]
    spacings = [mm_to_m(s) for s in spec.s_values]
    gaps = [mm_to_m(gap) for gap in spec.O_values]
    out: list[WindingGeometry] = []
    for (D1_mm, D1), (D2_mm, D2), w, s, nt in itertools.product(
        sides1, sides2, widths, spacings, spec.NT_values,
    ):
        if D1_mm > D2_mm:
            continue
        # GridSpec guarantees positive, finite lengths and N_T >= 1, so the
        # turns fit exactly when d1 > 0 (d2 >= d1 as D2 >= D1).
        d1 = inner_side(D1, nt, w, s)
        if not (d1 > 0.0 and meets_min_inner(d1, min_inner_m)):
            continue
        for nl in spec.NL_values:
            for gap in (None,) if nl == 1 else gaps:
                out.append(WindingGeometry(D1, D2, w, s, nt, nl, gap))
    return out


# Each built-in corpus is one or more grid specs, generated in order.
BUILTIN_CORPORA = {"A": (dataset_a_spec,), "B": (dataset_b_spec,), "C": (dataset_c_spec,),
                   "AB": (dataset_a_spec, dataset_b_spec)}


def default_corpus() -> list[WindingGeometry]:
    """Built-in corpus AB, datasets A then B, the default fitting corpus."""
    return [g for make in BUILTIN_CORPORA["AB"] for g in generate_grid(make())]


@dataclass(frozen=True)
class SplitAssignment:
    """Index sets of a train/eval split, each sorted ascending, and its seed as an int."""

    train: tuple[int, ...]
    eval: tuple[int, ...]
    seed: int
    fraction: float


def split_train_eval(samples: Sequence, fraction: float, seed: int) -> SplitAssignment:
    """Disjoint, exhaustive train/eval split by seeded shuffle.

    Shuffles index order with numpy's default PCG64 generator seeded with
    ``seed``. The first round(fraction * n) indices train, the rest
    evaluate. Same seed and length give the same split on any platform.

    Raises:
        ValueError: if fraction is outside (0, 1), either side would be
            empty, or seed is not an integer >= 0.
    """
    n = len(samples)
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    n_train = int(round(fraction * n))
    if n_train < 1 or n_train > n - 1:
        raise ValueError(
            f"fraction {fraction} leaves an empty subset for {n} samples "
            f"(n_train would be {n_train})"
        )
    order = np.random.default_rng(seed).permutation(n)
    train = tuple(np.sort(order[:n_train]).tolist())
    eval_ = tuple(np.sort(order[n_train:]).tolist())
    return SplitAssignment(train=train, eval=eval_, seed=int(seed), fraction=fraction)


def synth_labels(
    geometries: Sequence[WindingGeometry],
    coefficients: CoefficientSet,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> list[Sample]:
    """Label geometries with model inductance plus optional log-space noise.

    Each label is L = model(geometry) * 10**eps with eps ~ N(0, noise_sigma)
    drawn from a generator seeded with ``seed``.  noise_sigma is the standard
    deviation in log10 space; 0.0086 corresponds to about 2% multiplicative
    scatter.  With noise_sigma = 0 the labels equal the model exactly.  A
    label is a model value, in (0, inf) by :func:`require_in_range`; a noise
    factor 10**eps past the float range counts as inf, as one below it
    counts as 0.0.

    Raises:
        ValueError: if noise_sigma is not finite and >= 0, or seed is not
            an integer >= 0.
    """
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, noise_sigma, size=len(geometries))
    return [
        Sample(geometry=g, L_ref=require_in_range(inductance(g, coefficients) * _power_of_ten(e)),
               source="synthetic")
        for g, e in zip(geometries, eps.tolist())
    ]


def _power_of_ten(e: float) -> float:
    """10.0 ** e, or inf where Python raises on it."""
    try:
        return 10.0 ** e
    except OverflowError:
        return math.inf


class SampleFileError(ValueError):
    """Malformed sample CSV content, with file position."""

    def __init__(self, path: Union[str, Path], line: int, message: str):
        self.path = str(path)
        self.line = line
        self.message = message
        super().__init__(f"{self.path}:{line}: {message}")


# Inner sides in the file must match the derivation to 1 um.
_D_TOLERANCE_MM = 1e-3


# The cells D1_mm to N_L of a CSV line.  Every cell of a line is a number,
# empty or a SOURCES name, so none needs quoting.
_GEOMETRY_CELLS = "%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,"


def _write_rows(path: Union[str, Path], label_cells: str, rows) -> None:
    """Write the header and one line per (geometry, L_uH, source) row.

    label_cells formats the last two values; "%.0s" formats a value as
    nothing, which leaves its cell empty, as O_mm is for a single layer.
    """
    single = _GEOMETRY_CELLS + "%.0s," + label_cells + "\n"
    multi = _GEOMETRY_CELLS + "%.4f," + label_cells + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        handle.writelines(
            (single if g.layer_gap is None else multi) % (
                m_to_mm(g.D1), m_to_mm(g.D2), m_to_mm(g.d1), m_to_mm(g.d2), m_to_mm(g.w),
                m_to_mm(g.s), g.n_turns, g.n_layers,
                None if g.layer_gap is None else m_to_mm(g.layer_gap), L_uH, source,
            )
            for g, L_uH, source in rows
        )


def write_csv(samples: Sequence[Sample], path: Union[str, Path]) -> None:
    """Write labeled samples as CSV, lengths in mm and inductance in uH.

    Lengths are written with 4 decimals (0.1 um); the label keeps 12
    significant digits so that noiseless labels survive a round trip.
    """
    _write_rows(path, "%.12g,%s", (
        (sample.geometry, h_to_uh(sample.L_ref), sample.source) for sample in samples
    ))


def write_geometry_csv(geometries: Sequence[WindingGeometry], path: Union[str, Path]) -> None:
    """Write unlabeled geometries in the sample CSV layout, label columns empty."""
    _write_rows(path, "%.0s,%.0s", ((geometry, None, None) for geometry in geometries))


def _parse_float(path, line: int, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SampleFileError(path, line, f"{name} is not a number: {text!r}") from None


def _bad_cell(path, line: int, row: Sequence[str]) -> SampleFileError:
    """The error for the first of the eight numeric cells of row that does not convert."""
    for name, text, convert, kind in zip(
        CSV_HEADER, row, (float,) * 6 + (int,) * 2, ("a number",) * 6 + ("an integer",) * 2,
    ):
        try:
            convert(text)
        except ValueError:
            return SampleFileError(path, line, f"{name} is not {kind}: {text.strip()!r}")
    raise AssertionError("every numeric cell converts")


def _parse_geometries(path: Union[str, Path]):
    """Yield (line, row, geometry) for each row of a sample CSV.

    Every length cell (D1_mm, D2_mm, w_mm, s_mm, O_mm) whose value is
    above 0 takes the file's first float of that value, whichever column
    or row it came from: equal floats are the same number.  A corpus from
    a parameter sweep holds a few distinct lengths, so its windings then
    share one float per value, not one per row.  A zero keeps its own
    float, so that an error message shows the sign its cell gave it.
    """
    share = {}.setdefault

    def length(value: float) -> float:
        value = mm_to_m(value)
        return share(value, value) if value > 0.0 else value

    # A cell whose text equals the same cell of the row above holds the
    # same value, so it takes that row's float without converting its text.
    # No cell equals None, so the first row converts every cell.
    last_row, last = (None,) * len(CSV_HEADER), None
    for line, row in _read_rows(path):
        # float() and int() skip surrounding whitespace, so the numeric
        # cells are converted as read; only an error message strips its cell.
        try:
            D1 = last.D1 if row[0] == last_row[0] else length(float(row[0]))
            D2 = last.D2 if row[1] == last_row[1] else length(float(row[1]))
            d1, d2 = float(row[2]), float(row[3])
            w = last.w if row[4] == last_row[4] else length(float(row[4]))
            s = last.s if row[5] == last_row[5] else length(float(row[5]))
            nt, nl = int(row[6]), int(row[7])
        except ValueError:
            raise _bad_cell(path, line, row) from None
        gap_text = row[8].strip()
        if nl == 1 and gap_text != "":
            raise SampleFileError(path, line, f"O_mm must be empty for a single-layer row, got {gap_text!r}")
        if nl >= 2 and gap_text == "":
            raise SampleFileError(path, line, f"O_mm is required for N_L={nl}")
        if gap_text == "":
            gap = None
        elif row[8] == last_row[8]:
            # A gap cell that is not empty belongs to a multilayer row.
            gap = last.layer_gap
        else:
            gap = length(_parse_float(path, line, "O_mm", gap_text))
        try:
            geometry = WindingGeometry(D1, D2, w, s, nt, nl, gap)
        except GeometryError as exc:
            raise SampleFileError(path, line, str(exc)) from None
        # Written so that a NaN or infinite inner side fails too; only a
        # failing row pays for naming the side.
        if not (abs(d1 - m_to_mm(geometry.d1)) <= _D_TOLERANCE_MM
                and abs(d2 - m_to_mm(geometry.d2)) <= _D_TOLERANCE_MM):
            for name, given, derived in (("d1_mm", d1, geometry.d1), ("d2_mm", d2, geometry.d2)):
                if not abs(given - m_to_mm(derived)) <= _D_TOLERANCE_MM:
                    raise SampleFileError(
                        path, line,
                        f"{name}={given} does not match the value derived from the "
                        f"outer side and turns ({m_to_mm(derived):.4f})",
                    )
        yield line, row, geometry
        last_row, last = row, geometry


def _read_rows(path: Union[str, Path]):
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SampleFileError(path, 1, "empty file, expected a header row") from None
        if tuple(cell.strip() for cell in header) != CSV_HEADER:
            raise SampleFileError(
                path, 1, f"bad header, expected {','.join(CSV_HEADER)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise SampleFileError(
                    path, line, f"expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            yield line, row


def read_csv(path: Union[str, Path]) -> list[Sample]:
    """Read labeled samples from CSV, converting to SI.

    Every row must carry a positive label and a known source, and every
    number must be finite; inner sides are cross-checked against the
    derivation within 1 um.  Errors report the offending line number.
    """
    samples = []
    for line, row, geometry in _parse_geometries(path):
        try:
            L_uH = float(row[9])
        except ValueError:
            label = row[9].strip()
            if label == "":
                raise SampleFileError(path, line, "missing label L_uH") from None
            raise SampleFileError(path, line, f"L_uH is not a number: {label!r}") from None
        if not 0.0 < L_uH < math.inf:
            raise SampleFileError(path, line, f"L_uH must be positive and finite, got {L_uH}")
        L_ref = uh_to_h(L_uH)
        if L_ref == 0.0:
            raise SampleFileError(path, line, f"L_uH = {L_uH} underflows to 0.0 H")
        # The SOURCES name itself, not the cell's copy of it.
        try:
            source = SOURCES[SOURCES.index(row[10].strip())]
        except ValueError:
            raise SampleFileError(
                path, line, f"source must be one of {', '.join(SOURCES)}, got {row[10].strip()!r}"
            ) from None
        samples.append(Sample(geometry, L_ref, source))
    return samples


def read_geometry_csv(path: Union[str, Path]) -> list[WindingGeometry]:
    """Read geometries from CSV, ignoring any label columns."""
    return [geometry for _, _, geometry in _parse_geometries(path)]
