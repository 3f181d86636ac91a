import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
import numpy as np
from hypothesis import assume, given, strategies as st

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
from planarwind.geometry import InfeasibleGeometryError, derive_inner_side, meets_min_inner
from planarwind.units import mm_to_m


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
