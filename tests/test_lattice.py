"""Grid domains, base families, measures, and file round-trips."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (GridDomain, Measure, build_base, fsum,
                      iter_dyadic_boxes, read_field_csv, simultaneous_children,
                      write_field_csv)
from oscillab.errors import BadParams as _BadParams
from oscillab.lattice import BaseSet, axis_parent

import oracles


class TestGridDomain:
    def test_sides_must_be_powers_of_two(self):
        with pytest.raises(_BadParams):
            GridDomain((3,))
        with pytest.raises(_BadParams):
            GridDomain((0,))

    def test_only_one_or_two_dims(self):
        with pytest.raises(_BadParams):
            GridDomain((2, 2, 2))

    def test_basic_geometry(self):
        dom = GridDomain((8,))
        assert dom.dims == 1
        assert dom.num_cells == 8
        full = dom.full_box()
        assert (tuple(full.lo), tuple(full.hi)) == ((0,), (8,))

    def test_round_trip_dict(self):
        dom = GridDomain((4, 4), split=(1, 1))
        again = GridDomain.from_dict(dom.to_dict())
        assert again == dom


class TestDyadicEnumeration:
    def test_line_count_matches_brute_force(self):
        dom = GridDomain((8,))
        got = {(tuple(b.lo), tuple(b.hi)) for b in iter_dyadic_boxes(dom)}
        assert got == oracles.brute_dyadic_cubes((8,))
        assert len(got) == 15

    def test_square_lattice_is_interval_product(self):
        # iter_dyadic_boxes walks the full per-axis lattice, mixed scales
        # included; the cube base family is the simultaneous-halving subset.
        dom = GridDomain((4, 4))
        got = {(tuple(b.lo), tuple(b.hi)) for b in iter_dyadic_boxes(dom)}
        assert got == oracles.brute_dyadic_rectangles((4, 4))
        assert len(got) == 49
        base = build_base(dom, Measure.uniform(dom), "dyadic-cubes")
        cube_labels = {(tuple(b.lo), tuple(b.hi)) for b in base.sets}
        assert cube_labels == oracles.brute_dyadic_cubes((4, 4))
        assert len(cube_labels) == 21

    def test_children_partition_parent(self):
        box = BaseSet((0, 0), (4, 4))
        kids = simultaneous_children(box)
        assert len(kids) == 4
        cells = []
        for k in kids:
            cells.extend(oracles.box_cells((tuple(k.lo), tuple(k.hi))))
        assert sorted(cells) == oracles.box_cells(((0, 0), (4, 4)))

    def test_axis_parent_doubles_one_side(self):
        dom = GridDomain((8,))
        box = BaseSet((2,), (4,))
        par = axis_parent(box, 0, dom)
        assert (tuple(par.lo), tuple(par.hi)) == ((0,), (4,))
        top = BaseSet((0,), (8,))
        assert axis_parent(top, 0, dom) is None


class TestBuildBase:
    def test_known_kinds_and_counts(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        assert len(build_base(dom, mea, "dyadic-cubes").sets) == 15
        assert len(build_base(dom, mea, "all-cubes").sets) == 36
        got = {(tuple(b.lo), tuple(b.hi))
               for b in build_base(dom, mea, "all-cubes").sets}
        assert got == oracles.brute_all_intervals(8)

    def test_rectangles_need_split_domain(self):
        dom = GridDomain((4, 4))
        mea = Measure.uniform(dom)
        with pytest.raises(_BadParams):
            build_base(dom, mea, "dyadic-rectangles")
        dom2 = GridDomain((4, 4), split=(1, 1))
        base = build_base(dom2, Measure.uniform(dom2), "dyadic-rectangles")
        got = {(tuple(b.lo), tuple(b.hi)) for b in base.sets}
        assert got == oracles.brute_dyadic_rectangles((4, 4))
        assert len(got) == 49

    def test_unknown_kind_rejected(self):
        dom = GridDomain((4,))
        with pytest.raises(_BadParams):
            build_base(dom, Measure.uniform(dom), "bogus")

    def test_zero_mass_sets_dropped(self):
        dom = GridDomain((4,))
        mea = Measure.general(dom, np.array([0.0, 0.0, 1.0, 1.0]))
        base = build_base(dom, mea, "dyadic-cubes")
        labels = {(tuple(b.lo), tuple(b.hi)) for b in base.sets}
        assert ((0,), (2,)) not in labels
        assert base.dropped_zero_mass > 0
        assert ((0,), (4,)) in labels

    def test_base_id_tracks_inputs(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        a = build_base(dom, mea, "dyadic-cubes")
        b = build_base(dom, mea, "dyadic-cubes")
        c = build_base(dom, mea, "all-cubes")
        assert a.base_id == b.base_id
        assert a.base_id != c.base_id


class TestMeasure:
    def test_density_requires_positive_values(self):
        dom = GridDomain((4,))
        with pytest.raises(_BadParams):
            Measure.density(dom, np.array([1.0, -1.0, 1.0, 1.0]))

    def test_mass_bookkeeping(self):
        dom = GridDomain((4,))
        mea = Measure.density(dom, np.array([1.0, 2.0, 3.0, 4.0]))
        assert mea.total_mass == pytest.approx(oracles.box_sum(mea.masses, ((0,), (4,))))
        assert mea.mass_of(BaseSet((1,), (3,))) == pytest.approx(float(np.sum(mea.masses[1:3])))

    def test_uniform_gives_unit_cells(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        assert mea.total_mass == pytest.approx(8.0)
        assert np.all(mea.masses == 1.0)


class TestAverages:
    def test_fsum_sums_exactly(self):
        # 0.1 added ten times misses 1.0 in naive left-to-right float order;
        # the compensated path lands on the correctly rounded value.
        vals = [0.1] * 10
        assert fsum(vals) == 1.0


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        dom = GridDomain((4, 4))
        values = np.arange(16.0).reshape(4, 4) / 7.0
        path = tmp_path / "field.csv"
        write_field_csv(path, dom, values)
        dom2, values2 = read_field_csv(path)
        assert dom2 == dom
        assert np.array_equal(values, values2)

    @given(st.lists(st.floats(-1e6, 1e6).map(float), min_size=8, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_bit_exact(self, vals):
        dom = GridDomain((8,))
        values = np.array(vals)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            write_field_csv(path, dom, values)
            _, values2 = read_field_csv(path)
        assert np.array_equal(values, values2)

    def test_shape_mismatch_rejected(self, tmp_path):
        dom = GridDomain((4,))
        with pytest.raises(Exception):
            write_field_csv(tmp_path / "bad.csv", dom, np.zeros(5))
