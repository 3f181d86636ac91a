import csv
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from planarwind import (
    DEFAULT_COEFFICIENTS,
    GridSpec,
    Sample,
    SOURCES,
    SampleFileError,
    WindingGeometry,
    dataset_a_spec,
    dataset_b_spec,
    dataset_c_spec,
    default_corpus,
    generate_grid,
    inductance,
    read_csv,
    read_geometry_csv,
    split_train_eval,
    synth_labels,
    validate,
    write_csv,
    write_geometry_csv,
)
from planarwind.dataset import CSV_HEADER
from planarwind.geometry import (
    GeometryError, InfeasibleGeometryError, derive_inner_side, meets_min_inner,
)
from planarwind.units import h_to_uh, m_to_mm, mm_to_m, uh_to_h


def small_spec(**overrides):
    fields = dict(
        D1_values=(70.0, 80.0),
        D2_values=(70.0, 80.0),
        w_values=(3.0,),
        s_values=(0.5,),
        O_values=(1.0,),
        NT_values=(6,),
        NL_values=(1, 2),
        min_inner=0.0,
        strict_inner=False,
    )
    fields.update(overrides)
    return GridSpec(**fields)


class TestGridSpec:
    def test_mapping_roundtrip(self):
        spec = dataset_a_spec()
        assert GridSpec.from_mapping(spec.to_mapping()) == spec

    def test_rejects_empty_and_duplicate_lists(self):
        with pytest.raises(ValueError):
            small_spec(D1_values=())
        with pytest.raises(ValueError):
            small_spec(w_values=(3.0, 3.0))
        with pytest.raises(ValueError):
            small_spec(NT_values=(0,))
        with pytest.raises(ValueError):
            small_spec(s_values=(-0.1,))
        with pytest.raises(ValueError):
            small_spec(O_values=(), NL_values=(1, 2))
        with pytest.raises(ValueError):
            small_spec(min_inner=-1.0)
        with pytest.raises(ValueError, match="^NT_values must not be empty$"):
            small_spec(NT_values=())
        with pytest.raises(ValueError, match=r"^NT_values contains duplicates: \(6, 6\)$"):
            small_spec(NT_values=(6, 6))
        with pytest.raises(ValueError, match=r"^O_values contains duplicates: \(1.0, 1.0\)$"):
            small_spec(O_values=(1.0, 1.0))

    def test_from_mapping_names_missing_keys(self):
        mapping = small_spec().to_mapping()
        for key in ("D2_values", "NL_values"):
            del mapping[key]
        with pytest.raises(ValueError, match="^grid spec is missing D2_values, NL_values$"):
            GridSpec.from_mapping(mapping)

    def test_from_mapping_names_unknown_keys(self):
        # A misspelt optional key is rejected, not read as its default.
        mapping = small_spec().to_mapping()
        mapping["min_iner"] = mapping.pop("min_inner")
        with pytest.raises(ValueError, match="^grid spec has unknown key 'min_iner'$"):
            GridSpec.from_mapping(mapping)
        # Missing keys are named before unknown ones.
        del mapping["D1_values"]
        with pytest.raises(ValueError, match="^grid spec is missing D1_values$"):
            GridSpec.from_mapping(mapping)

    def test_to_mapping_is_field_order_with_lists(self):
        mapping = dataset_a_spec().to_mapping()
        assert list(mapping) == [
            "D1_values", "D2_values", "w_values", "s_values", "O_values",
            "NT_values", "NL_values", "min_inner", "strict_inner",
        ]
        assert mapping["NT_values"] == [6, 8, 10] and mapping["O_values"] == [0.5, 1.0, 1.5]
        assert (mapping["min_inner"], mapping["strict_inner"]) == (17.0, False)

    @pytest.mark.parametrize("field", ["D1_values", "D2_values", "w_values", "s_values",
                                       "O_values", "min_inner"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            small_spec(**{field: value if field == "min_inner" else (70.0, value)})

    @pytest.mark.parametrize("field, value", [
        ("NT_values", [6.9]),
        ("NT_values", [6.0]),
        ("NT_values", ["8"]),
        ("NT_values", [True]),
        ("NL_values", [1.5]),
        ("strict_inner", "false"),
        ("strict_inner", 0),
        ("strict_inner", None),
        ("NT_values", 6),
        ("NL_values", None),
        ("D1_values", 70.0),
        ("D2_values", {"70": 80}),
        ("w_values", ["3"]),
        ("s_values", [None]),
        ("O_values", [[1.0]]),
        ("D1_values", [70.0, True]),
        ("min_inner", "17"),
        ("min_inner", None),
    ])
    def test_from_mapping_rejects_non_integer_counts_and_non_boolean_strict(self, field, value):
        # Counts follow the WindingGeometry rule and lists and lengths must have
        # their JSON shape; nothing is truncated or coerced.
        mapping = small_spec().to_mapping()
        mapping[field] = value
        with pytest.raises(ValueError, match=field):
            GridSpec.from_mapping(mapping)

    def test_accepts_numpy_integer_counts(self):
        spec = small_spec(NT_values=(np.int64(6),), NL_values=(np.int32(1), np.int64(2)))
        assert generate_grid(spec) == generate_grid(small_spec())

    def test_single_layer_spec_needs_no_gaps(self):
        # Two side values make three ordered (D1, D2) pairs.
        spec = small_spec(O_values=(), NL_values=(1,))
        assert len(generate_grid(spec)) == 3


class TestGeneration:
    def test_frozen_counts(self):
        # Counts of this generator, frozen as regression guards.  They do
        # not match the originally quoted 1800/4050 under either threshold
        # convention; see NOMINAL_GRID_COUNTS.
        assert len(generate_grid(dataset_a_spec())) == 2060
        assert len(generate_grid(dataset_b_spec())) == 3950
        assert len(generate_grid(dataset_c_spec())) == 4100
        a_strict = dataclasses.replace(dataset_a_spec(), strict_inner=True)
        assert len(generate_grid(a_strict)) == 1970
        assert len(default_corpus()) == 6010

    def test_deterministic_order(self):
        spec = dataset_a_spec()
        assert generate_grid(spec) == generate_grid(spec)
        first = generate_grid(spec)[0]
        assert first == WindingGeometry(
            mm_to_m(70.0), mm_to_m(70.0), mm_to_m(3.0), mm_to_m(0.1), 6, 1
        )

    def test_every_geometry_respects_the_spec(self):
        spec = dataset_a_spec()
        sides = {mm_to_m(v) for v in spec.D1_values}
        widths = {mm_to_m(v) for v in spec.w_values}
        spacings = {mm_to_m(v) for v in spec.s_values}
        gaps = {mm_to_m(v) for v in spec.O_values}
        for g in generate_grid(spec):
            assert g.D1 in sides and g.D2 in sides and g.D1 <= g.D2
            assert g.w in widths and g.s in spacings
            assert g.n_turns in spec.NT_values and g.n_layers in spec.NL_values
            assert (g.layer_gap is None) == (g.n_layers == 1)
            if g.layer_gap is not None:
                assert g.layer_gap in gaps
            assert validate(g, mm_to_m(spec.min_inner), spec.strict_inner).passed

    def test_no_mixed_aspect_pairs_in_default_corpus(self):
        small = {mm_to_m(v) for v in dataset_a_spec().D1_values}
        large = {mm_to_m(v) for v in dataset_b_spec().D1_values}
        for g in default_corpus():
            assert not (g.D1 in small and g.D2 in large)

    def test_canonical_pairs_only(self):
        for g in generate_grid(small_spec()):
            assert g.D1 <= g.D2
        # 2 x 2 sides give 3 ordered pairs; NL in {1, 2} doubles them
        assert len(generate_grid(small_spec())) == 6


class TestSplit:
    def test_reference_split_arithmetic(self):
        split = split_train_eval(list(range(5850)), 0.8, seed=0)
        assert len(split.train) == 4680
        assert len(split.eval) == 1170

    def test_disjoint_and_exhaustive(self):
        split = split_train_eval(list(range(101)), 0.8, seed=3)
        train, held = set(split.train), set(split.eval)
        assert train.isdisjoint(held)
        assert train | held == set(range(101))
        assert split.train == tuple(sorted(split.train))

    @given(
        n=st.integers(2, 500),
        fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_properties(self, n, fraction, seed):
        n_train = round(fraction * n)
        if not 1 <= n_train <= n - 1:
            with pytest.raises(ValueError, match="empty subset"):
                split_train_eval(range(n), fraction, seed)
            return
        split = split_train_eval(range(n), fraction, seed)
        assert set(split.train).isdisjoint(split.eval)
        assert sorted(split.train + split.eval) == list(range(n))
        assert list(split.train) == sorted(split.train)
        assert list(split.eval) == sorted(split.eval)
        assert len(split.train) == n_train

    def test_deterministic_and_seed_sensitive(self):
        items = list(range(200))
        assert split_train_eval(items, 0.8, 7) == split_train_eval(items, 0.8, 7)
        assert split_train_eval(items, 0.8, 7) != split_train_eval(items, 0.8, 8)

    def test_rejects_degenerate_fractions(self):
        with pytest.raises(ValueError):
            split_train_eval(list(range(10)), 0.0, 0)
        with pytest.raises(ValueError):
            split_train_eval(list(range(10)), 1.0, 0)
        with pytest.raises(ValueError):
            split_train_eval([1], 0.5, 0)
        with pytest.raises(ValueError):
            split_train_eval(list(range(5)), 0.999, 0)


class TestSynthLabels:
    def test_noiseless_labels_equal_model(self):
        geometries = generate_grid(small_spec())
        for sample in synth_labels(geometries, DEFAULT_COEFFICIENTS):
            assert sample.L_ref == inductance(sample.geometry, DEFAULT_COEFFICIENTS)
            assert sample.source == "synthetic"

    def test_noise_is_seeded(self):
        geometries = generate_grid(small_spec())
        first = synth_labels(geometries, DEFAULT_COEFFICIENTS, 0.0086, seed=5)
        second = synth_labels(geometries, DEFAULT_COEFFICIENTS, 0.0086, seed=5)
        other = synth_labels(geometries, DEFAULT_COEFFICIENTS, 0.0086, seed=6)
        assert [s.L_ref for s in first] == [s.L_ref for s in second]
        assert [s.L_ref for s in first] != [s.L_ref for s in other]

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            synth_labels([], DEFAULT_COEFFICIENTS, -0.01)

    def test_sample_validation(self):
        g = WindingGeometry(0.1, 0.1, 0.004, 0.002, 5, 1)
        with pytest.raises(ValueError):
            Sample(g, -1e-6)
        with pytest.raises(ValueError):
            Sample(g, 1e-6, source="guessed")


class TestCsv:
    def write_some(self, path, noise=0.0):
        geometries = generate_grid(small_spec())
        samples = synth_labels(geometries, DEFAULT_COEFFICIENTS, noise, seed=1)
        write_csv(samples, path)
        return samples

    def test_roundtrip_labeled(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = self.write_some(path)
        back = read_csv(path)
        assert len(back) == len(samples)
        for original, restored in zip(samples, back):
            assert restored.geometry == original.geometry
            assert restored.L_ref == pytest.approx(original.L_ref, rel=1e-11)
            assert restored.source == original.source

    def test_roundtrip_geometry_only(self, tmp_path):
        path = tmp_path / "geoms.csv"
        geometries = generate_grid(small_spec())
        write_geometry_csv(geometries, path)
        assert read_geometry_csv(path) == geometries

    def test_geometry_reader_accepts_labeled_files(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = self.write_some(path)
        assert read_geometry_csv(path) == [s.geometry for s in samples]

    def _write_lines(self, tmp_path, *rows):
        path = tmp_path / "bad.csv"
        header = "D1_mm,D2_mm,d1_mm,d2_mm,w_mm,s_mm,N_T,N_L,O_mm,L_uH,source"
        path.write_text("\n".join((header,) + rows) + "\n")
        return path

    def test_row_errors_carry_line_numbers(self, tmp_path):
        good = "70.0000,70.0000,33.0000,33.0000,3.0000,0.1000,6,1,,2.69928209664,synthetic"
        path = self._write_lines(tmp_path, good, "70.0,70.0,33.0,33.0,3.0,0.1,6,1,")
        with pytest.raises(SampleFileError) as err:
            read_csv(path)
        assert err.value.line == 3
        assert "11 fields" in str(err.value)

    def test_rejects_bad_numbers(self, tmp_path):
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,three,0.1,6,1,,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="w_mm"):
            read_csv(path)
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6.5,1,,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="N_T"):
            read_csv(path)
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6,2,half,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match=":2: O_mm is not a number: 'half'"):
            read_csv(path)
        good = "70.0000,70.0000,33.0000,33.0000,3.0000,0.1000,6,1,,2.69928209664,synthetic"
        path = self._write_lines(tmp_path, good, "70.0,70.0,33.0,33.0,3.0,0.1,6,1,,2.7uH,synthetic")
        with pytest.raises(SampleFileError, match=":3: L_uH is not a number: '2.7uH'"):
            read_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = self.write_some(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [""] + lines[3:] + [""]) + "\n")
        back = read_csv(path)
        assert [s.geometry for s in back] == [s.geometry for s in samples]
        # Line numbers still count the blank line.
        lines.insert(3, "")
        lines[4] = lines[4].replace("synthetic", "guessed")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFileError) as err:
            read_csv(path)
        assert err.value.line == 5

    def test_rejects_gap_rule_violations(self, tmp_path):
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6,1,0.5,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="O_mm must be empty"):
            read_csv(path)
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6,2,,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="O_mm is required"):
            read_csv(path)

    def test_rejects_inconsistent_inner_sides(self, tmp_path):
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.1,33.0,3.0,0.1,6,1,,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="d1_mm"):
            read_csv(path)
        # 1 um of slack is allowed
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.001,33.0,3.0,0.1,6,1,,2.7,synthetic"
        )
        assert len(read_csv(path)) == 1

    def test_rejects_swapped_sides(self, tmp_path):
        path = self._write_lines(
            tmp_path, "90.0,70.0,53.0,33.0,3.0,0.1,6,1,,2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="out of order"):
            read_csv(path)

    def test_rejects_bad_labels(self, tmp_path):
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6,1,,-2.7,synthetic"
        )
        with pytest.raises(SampleFileError, match="L_uH"):
            read_csv(path)
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6,1,,2.7,oracle"
        )
        with pytest.raises(SampleFileError, match="source"):
            read_csv(path)
        path = self._write_lines(
            tmp_path, "70.0,70.0,33.0,33.0,3.0,0.1,6,1,,,"
        )
        with pytest.raises(SampleFileError, match="missing label"):
            read_csv(path)

    @pytest.mark.parametrize("column", [0, 1, 2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_numbers(self, tmp_path, column, value):
        good = "70.0000,70.0000,33.0000,33.0000,3.0000,0.1000,6,2,1.0000,2.7,synthetic"
        fields = good.split(",")
        fields[column] = value
        path = self._write_lines(tmp_path, good, ",".join(fields))
        with pytest.raises(SampleFileError) as err:
            read_csv(path)
        assert err.value.line == 3

    def test_padded_cells_read_as_unpadded(self, tmp_path):
        plain = "70.0000,70.0000,33.0000,33.0000,3.0000,0.1000,6,2,1.0000,2.7,measured"
        padded = ",".join(f" {cell}\t" for cell in plain.split(","))
        assert read_csv(self._write_lines(tmp_path, padded)) == \
            read_csv(self._write_lines(tmp_path, plain))
        padded = padded.replace(" 3.0000\t", " three\t")
        with pytest.raises(SampleFileError, match="w_mm is not a number: 'three'"):
            read_csv(self._write_lines(tmp_path, padded))

    def test_quoted_cells_read_as_unquoted(self, tmp_path):
        plain = "70.0000,70.0000,33.0000,33.0000,3.0000,0.1000,6,2,1.0000,2.7,measured"
        quoted = ",".join(f'"{cell}"' for cell in plain.split(","))
        assert read_csv(self._write_lines(tmp_path, quoted)) == \
            read_csv(self._write_lines(tmp_path, plain))

    def test_rejects_bad_header_and_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("D1,D2\n")
        with pytest.raises(SampleFileError, match="header"):
            read_csv(path)
        path.write_text("")
        with pytest.raises(SampleFileError, match="empty"):
            read_csv(path)

    def test_unlabeled_rows_fail_sample_read(self, tmp_path):
        path = tmp_path / "geoms.csv"
        write_geometry_csv(generate_grid(small_spec()), path)
        with pytest.raises(SampleFileError, match="missing label"):
            read_csv(path)


def _mm(lo: float, hi: float):
    """Lengths in mm with 4 decimals, the precision of the CSV format."""
    return st.integers(round(lo * 1e4), round(hi * 1e4)).map(lambda k: k / 1e4)


def _distinct(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(tuple)


@given(
    spec=st.builds(
        GridSpec,
        D1_values=_distinct(_mm(20.0, 200.0), 3),
        D2_values=_distinct(_mm(20.0, 200.0), 3),
        w_values=_distinct(_mm(0.2, 5.0), 2),
        s_values=_distinct(_mm(0.05, 2.0), 2),
        O_values=_distinct(_mm(0.05, 3.0), 2),
        NT_values=_distinct(st.integers(1, 12), 3),
        NL_values=_distinct(st.integers(1, 6), 3),
    ),
    noise=st.floats(0.0, 0.05),
    seed=st.integers(0, 2**32 - 1),
    sources=st.lists(st.sampled_from(SOURCES), min_size=1),
)
def test_csv_roundtrip_property(spec, noise, seed, sources):
    geometries = generate_grid(spec)
    assume(geometries)
    samples = [
        dataclasses.replace(sample, source=sources[i % len(sources)])
        for i, sample in enumerate(synth_labels(geometries, DEFAULT_COEFFICIENTS, noise, seed))
    ]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "samples.csv"
        write_csv(samples, path)
        back = read_csv(path)
        assert read_geometry_csv(path) == geometries
    assert [s.geometry for s in back] == geometries
    assert [s.source for s in back] == [s.source for s in samples]
    for original, restored in zip(samples, back):
        # The label is written with 12 significant digits.
        assert restored.L_ref == pytest.approx(original.L_ref, rel=1e-11)


def _parent_generate_grid(spec):
    """The nested-loop generate_grid that the single product loop replaced."""
    min_inner_m = mm_to_m(spec.min_inner)
    out = []
    for D1 in spec.D1_values:
        for D2 in spec.D2_values:
            if D1 > D2:
                continue
            for w in spec.w_values:
                for s in spec.s_values:
                    for nt in spec.NT_values:
                        try:
                            d1 = derive_inner_side(mm_to_m(D1), nt, mm_to_m(w), mm_to_m(s))
                        except InfeasibleGeometryError:
                            continue
                        if not meets_min_inner(d1, min_inner_m, spec.strict_inner):
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


@st.composite
def _edge_grid_specs(draw):
    """Random grid specs, one of whose outer sides puts d1 exactly on min_inner.

    min_inner is 0 or positive, strict_inner either setting, and turn
    counts up to 12 on sides down to 20 mm leave many turns that do not fit.
    """
    w_values = draw(_distinct(_mm(0.2, 5.0), 2))
    s_values = draw(_distinct(_mm(0.05, 2.0), 2))
    NT_values = draw(_distinct(st.integers(1, 12), 3))
    min_inner = draw(st.just(0.0) | _mm(0.0, 40.0))
    w, s, nt = (draw(st.sampled_from(values)) for values in (w_values, s_values, NT_values))
    edge = round(min_inner + 2 * nt * (w + s) - 2 * s, 4)
    D1_values = draw(_distinct(_mm(20.0, 200.0), 2))
    return GridSpec(
        D1_values=D1_values if edge in D1_values else D1_values + (edge,),
        D2_values=draw(_distinct(_mm(20.0, 200.0), 3)),
        w_values=w_values,
        s_values=s_values,
        O_values=draw(_distinct(_mm(0.05, 3.0), 2)),
        NT_values=NT_values,
        NL_values=draw(_distinct(st.integers(1, 6), 3)),
        min_inner=min_inner,
        strict_inner=draw(st.booleans()),
    )


@given(spec=_edge_grid_specs())
def test_generate_grid_matches_the_nested_loop(spec):
    assert generate_grid(spec) == _parent_generate_grid(spec)


_LENGTHS = st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=4, unique=True)
_COUNTS = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4, unique=True)


@given(
    D1=_LENGTHS, D2=_LENGTHS, w=_LENGTHS, s=_LENGTHS,
    O=st.lists(st.floats(min_value=1e-6, max_value=1e6), max_size=4, unique=True),
    NT=_COUNTS, NL=_COUNTS,
    min_inner=st.floats(min_value=0.0, max_value=1e6), strict=st.booleans(),
)
def test_grid_spec_mapping_roundtrip(D1, D2, w, s, O, NT, NL, min_inner, strict):
    assume(max(NL) == 1 or O)
    spec = GridSpec(tuple(D1), tuple(D2), tuple(w), tuple(s), tuple(O), tuple(NT), tuple(NL),
                    min_inner, strict)
    assert GridSpec.from_mapping(spec.to_mapping()) == spec
    # The mapping is a JSON document: it survives a trip through the text.
    assert GridSpec.from_mapping(json.loads(json.dumps(spec.to_mapping()))) == spec


# The CSV writer and reader that the one-format-call writer and the
# one-conversion reader replaced, kept as the references their bytes and
# error messages must equal.

def _parent_format_row(geometry, L_uH, source):
    g = geometry
    gap = f"{m_to_mm(g.layer_gap):.4f}" if g.layer_gap is not None else ""
    return [
        f"{m_to_mm(g.D1):.4f}", f"{m_to_mm(g.D2):.4f}", f"{m_to_mm(g.d1):.4f}",
        f"{m_to_mm(g.d2):.4f}", f"{m_to_mm(g.w):.4f}", f"{m_to_mm(g.s):.4f}",
        str(g.n_turns), str(g.n_layers), gap, L_uH, source,
    ]


def _parent_write_rows(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _parent_write_csv(samples, path):
    _parent_write_rows(path, (
        _parent_format_row(sample.geometry, f"{h_to_uh(sample.L_ref):.12g}", sample.source)
        for sample in samples
    ))


def _parent_write_geometry_csv(geometries, path):
    _parent_write_rows(path, (_parent_format_row(geometry, "", "") for geometry in geometries))


def _parent_parse_float(path, line, name, text):
    try:
        return float(text)
    except ValueError:
        raise SampleFileError(path, line, f"{name} is not a number: {text!r}") from None


def _parent_parse_geometry(path, line, row):
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
    gap = _parent_parse_float(path, line, "O_mm", gap_text) if gap_text != "" else None
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


def _parent_read_rows(path):
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


def _parent_read_csv(path):
    samples = []
    for line, row in _parent_read_rows(path):
        geometry = _parent_parse_geometry(path, line, row)
        label = row[9].strip()
        if label == "":
            raise SampleFileError(path, line, "missing label L_uH")
        L_uH = _parent_parse_float(path, line, "L_uH", label)
        if not (L_uH > 0.0 and math.isfinite(L_uH)):
            raise SampleFileError(path, line, f"L_uH must be positive and finite, got {L_uH}")
        source = row[10].strip()
        if source not in SOURCES:
            raise SampleFileError(
                path, line, f"source must be one of {', '.join(SOURCES)}, got {source!r}"
            )
        samples.append(Sample(geometry=geometry, L_ref=uh_to_h(L_uH), source=source))
    return samples


def _parent_read_geometry_csv(path):
    return [_parent_parse_geometry(path, line, row) for line, row in _parent_read_rows(path)]


@st.composite
def _windings(draw):
    """Feasible windings of random SI lengths, counts as int or NumPy integers."""
    w = draw(st.floats(1e-5, 1e-2))
    s = draw(st.floats(1e-6, 1e-2))
    count = draw(st.sampled_from([int, np.int64]))
    nt = draw(st.integers(1, 20))
    nl = draw(st.integers(1, 6))
    D1 = 2 * nt * (w + s) - 2 * s + draw(st.floats(1e-6, 0.2))
    D2 = D1 + draw(st.floats(0.0, 0.2))
    gap = draw(st.floats(1e-6, 1e-2)) if nl > 1 else None
    return WindingGeometry(D1, D2, w, s, count(nt), count(nl), gap)


@given(
    samples=st.lists(
        st.builds(Sample, _windings(), st.floats(1e-12, 1e3), st.sampled_from(SOURCES)),
        max_size=12,
    ),
)
def test_writers_match_the_csv_writer_reference(samples):
    geometries = [sample.geometry for sample in samples]
    with tempfile.TemporaryDirectory() as directory:
        def written(write, records):
            path = Path(directory) / "out.csv"
            write(records, path)
            return path.read_bytes()

        assert written(write_csv, samples) == written(_parent_write_csv, samples)
        assert written(write_geometry_csv, geometries) == \
            written(_parent_write_geometry_csv, geometries)


# Corruptions of one cell: (columns it may hit, values it may write).
# A value of None derives the cell from the row instead.
_CORRUPTIONS = {
    "bad number": (range(6), ["three", "", "1.2.3", "0x10", "1e", "--1", "7 0"]),
    "non-integer count": ((6, 7), ["6.5", "", "six", "1e1", "7.0", "0x7"]),
    "non-finite": ((0, 1, 2, 3, 4, 5, 8, 9), ["nan", "inf", "-inf", "NaN", "Infinity", "1e400"]),
    "gap on a one-layer row": ((7,), None),
    "missing gap": ((8,), None),
    "swapped sides": ((0,), None),
    "inner side off": ((2, 3), None),
    "bad label": ((9,), ["-2.7", "0", "", "2.7uH", "-0.0", "1e-400"]),
    "bad source": ((10,), ["oracle", "", "Simulated", "synthetic!", "measured "]),
}
# One test case per corruption and value, so that each value is tried.
_CORRUPTION_CASES = [(kind, value) for kind, (_, values) in _CORRUPTIONS.items()
                     for value in values or [None]]


def _corrupt(row, kind, column, value, shift):
    """Apply the corruption kind to row in place; True if the row must then be rejected."""
    if kind == "gap on a one-layer row":
        row[7], row[8] = "1", row[8] or "1.0000"
    elif kind == "missing gap":
        row[7], row[8] = row[7] if row[7] != "1" else "2", ""
    elif kind == "swapped sides":
        row[0], row[1], row[2], row[3] = row[1], row[0], row[3], row[2]
        return row[0] != row[1]
    elif kind == "inner side off":
        row[column] = f"{float(row[column]) + shift:.4f}"
        return abs(shift) >= 0.002
    else:
        row[column] = value
        return kind != "bad source" or value.strip() not in SOURCES
    return True


def _outcome(read, path):
    try:
        return "ok", read(path)
    except SampleFileError as exc:
        return "error", (str(exc), exc.line)


@given(
    spec=st.builds(
        GridSpec,
        D1_values=_distinct(_mm(20.0, 200.0), 2),
        D2_values=_distinct(_mm(20.0, 200.0), 2),
        w_values=_distinct(_mm(0.2, 5.0), 2),
        s_values=_distinct(_mm(0.05, 2.0), 1),
        O_values=_distinct(_mm(0.05, 3.0), 1),
        NT_values=_distinct(st.integers(1, 12), 2),
        NL_values=_distinct(st.integers(1, 4), 2),
    ),
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(SOURCES),
    data=st.data(),
)
@settings(max_examples=15)
@pytest.mark.parametrize("kind, value", _CORRUPTION_CASES)
def test_readers_raise_the_reference_errors(kind, value, spec, seed, source, data):
    geometries = generate_grid(spec)
    assume(geometries)
    samples = [dataclasses.replace(sample, source=source)
               for sample in synth_labels(geometries, DEFAULT_COEFFICIENTS, 0.0086, seed)]
    index = data.draw(st.integers(0, len(samples) - 1), label="row")
    column = data.draw(st.sampled_from(_CORRUPTIONS[kind][0]), label="column")
    shift = data.draw(st.floats(-5.0, 5.0), label="shift")
    pad = data.draw(st.sampled_from(["", " ", "\t "]), label="pad")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "samples.csv"
        write_csv(samples, path)
        lines = path.read_text().splitlines()
        row = lines[index + 1].split(",")
        must_fail = _corrupt(row, kind, column, value, shift)
        row[column] = pad + row[column] + pad
        lines[index + 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        samples_back = _outcome(read_csv, path)
        assert samples_back == _outcome(_parent_read_csv, path)
        assert _outcome(read_geometry_csv, path) == _outcome(_parent_read_geometry_csv, path)
    if must_fail:
        assert samples_back[0] == "error" and samples_back[1][1] == index + 2


def test_records_are_slotted_frozen_and_hashable():
    def geometry():
        return WindingGeometry(0.07, 0.08, 0.003, 0.0005, 6, 2, 0.001)

    def sample():
        return Sample(geometry(), 2.7e-6, "measured")

    for make, field in ((geometry, "D1"), (sample, "source")):
        record, twin = make(), make()
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(twin, field))
        assert record == twin and record is not twin
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    assert sample() != dataclasses.replace(sample(), source="simulated")
    assert geometry() != dataclasses.replace(geometry(), n_layers=3)
