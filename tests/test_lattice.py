"""Grid domains, base families, measures, and file round-trips."""

from __future__ import annotations

import ast
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (CenteredDiff, DualHardy, GridDomain,
                      Measure, TLSeq, TLSequence, TheoremId, Weight,
                      a1_constant, build_base, cz_selection,
                      doubling_constant, fsum, jn_exp_moment, lattice, maximal,
                      muckenhoupt_constant, oscillation_norm, read_field_csv,
                      reverse_holder_constant, run_suite, write_field_csv)
from oscillab.cli import main
from oscillab.errors import BadParams as _BadParams
from oscillab.errors import EmptyBase, OscillabError, ZeroMassBaseSet
from oscillab.lattice import BASE_KINDS, BaseSet

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
        d = dom.to_dict()
        assert d == {"sides": [4, 4], "split": [1, 1]}
        assert GridDomain(tuple(d["sides"]), tuple(d["split"])) == dom


def _lattice_boxes(dom: GridDomain) -> dict:
    """{(lo, hi): sum of ones} over ``lattice.dyadic_grids``'s boxes."""
    out = {}
    for shape, sums in lattice.dyadic_grids(dom, np.ones(dom.sides)).items():
        for j in np.argwhere(np.ones(sums.shape, dtype=bool)):
            lo = j * shape
            out[tuple(lo.tolist()), tuple((lo + shape).tolist())] = sums[tuple(j)]
    return out


class TestDyadicEnumeration:
    def test_line_count_matches_brute_force(self):
        got = _lattice_boxes(GridDomain((8,)))
        assert set(got) == oracles.brute_dyadic_cubes((8,))
        assert len(got) == 15
        assert all(cells == hi[0] - lo[0] for (lo, hi), cells in got.items())

    def test_square_lattice_is_interval_product(self):
        # dyadic_grids walks the full per-axis lattice, mixed scales
        # included; the cube base family is the simultaneous-halving subset.
        dom = GridDomain((4, 4))
        got = _lattice_boxes(dom)
        assert set(got) == oracles.brute_dyadic_rectangles((4, 4))
        assert len(got) == 49
        assert all(cells == (hi[0] - lo[0]) * (hi[1] - lo[1])
                   for (lo, hi), cells in got.items())
        base = build_base(dom, Measure.uniform(dom), "dyadic-cubes")
        cube_labels = {(tuple(b.lo), tuple(b.hi)) for b in base.sets}
        assert cube_labels == oracles.brute_dyadic_cubes((4, 4))
        assert len(cube_labels) == 21

    # all-rectangles stops at 32 per side: on 64 x 64 it has 4.3 million
    # boxes, and the two sets of corner arrays would take over 250 MB.
    @pytest.mark.parametrize("sides, split", [
        *(((1 << k,), None) for k in range(9)),
        *((s, split) for s in ((2, 2), (4, 4), (8, 8), (16, 16), (32, 32),
                               (64, 64), (4, 8), (8, 4))
          for split in (None, (1, 1))),
    ])
    def test_corners_equal_per_shape_loop(self, monkeypatch, sides, split):
        dom = GridDomain(sides, split)
        one_pass = lattice._boxes_by_shape

        def both(build):
            got = []
            for pass_ in (one_pass, oracles.boxes_by_shape_loop):
                monkeypatch.setattr(lattice, "_boxes_by_shape", pass_)
                try:
                    got.append(build())
                except OscillabError as exc:
                    got.append(f"{type(exc).__name__}: {exc}")
            return got

        for min_scale in range(4):
            cases = [lambda kind=kind: lattice._candidate_corners(
                         dom, kind, min_scale)
                     for kind in BASE_KINDS
                     if kind != "all-rectangles" or max(sides) <= 32]
            for build in cases:
                got, want = both(build)
                if isinstance(got, str) or isinstance(want, str):
                    assert got == want
                    continue
                for g, w in zip(got, want):
                    assert (g.dtype, g.shape) == (w.dtype, w.shape)
                    assert g.flags.c_contiguous
                    assert np.array_equal(g, w)

    def test_children_partition_parent(self):
        box = BaseSet((0, 0), (4, 4))
        kids = oracles.simultaneous_children(box)
        assert len(kids) == 4
        cells = []
        for k in kids:
            cells.extend(oracles.box_cells((tuple(k.lo), tuple(k.hi))))
        assert sorted(cells) == oracles.box_cells(((0, 0), (4, 4)))


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

    @pytest.mark.parametrize("sides, kind", [
        ((8,), "dyadic-cubes"), ((16,), "all-cubes"),
        ((4, 8), "all-rectangles")])
    def test_set_masses_come_from_the_build(self, monkeypatch, sides, kind):
        # build_base sums the measure over every candidate; the kept boxes'
        # masses start the family's sums cache, so the first set_masses
        # makes no call of the family's summer.
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        masses = np.random.default_rng(4).uniform(0.0, 2.0, sides)
        masses.flat[[0, 3]] = 0.0
        mea = Measure.general(dom, masses)
        base = build_base(dom, mea, kind)
        assert base.dropped_zero_mass > 0
        assert len(base._sums) == 1
        calls, real = [], base.summer
        monkeypatch.setitem(base.__dict__, "summer",
                            lambda *args: calls.append(args) or real(*args))
        got = base.set_masses(mea)
        assert calls == [] and base._sums.hits == 1
        assert got.tobytes() == lattice.box_sums(mea.masses, base.lo,
                                                 base.hi).tobytes()
        assert not got.flags.writeable
        assert base.set_masses(Measure.uniform(dom)).tolist() == np.prod(
            base.hi - base.lo, axis=1).tolist()
        assert len(calls) == 1  # another measure is a miss

    def test_base_id_tracks_inputs(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        a = build_base(dom, mea, "dyadic-cubes")
        b = build_base(dom, mea, "dyadic-cubes")
        c = build_base(dom, mea, "all-cubes")
        assert a.base_id == b.base_id
        assert a.base_id != c.base_id


def _fresh_pool() -> None:
    """Empty the geometry pool within a test (the autouse fixture restores
    the module's own at teardown)."""
    lattice._GEOMETRIES = lattice.BoundedCache(lattice.POOL_BYTES,
                                               lattice._GEOMETRIES.size)


def _layout_bytes(layout) -> list:
    width, chunks = layout
    return [width] + [(a, *(arr.dtype.str + arr.tobytes().hex() for arr in rest))
                      for a, *rest in chunks]


@st.composite
def _supported_pair(draw):
    """(domain, kind, min_scale, two measures of one support): a support
    with zero cells, on a 1-d or a 2-d grid, and unrelated positive masses."""
    sides = draw(st.sampled_from([(8,), (16,), (4, 4), (4, 8)]))
    dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
    n = dom.num_cells
    support = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    support[draw(st.integers(0, n - 1))] = True
    values = st.sampled_from([1.0, 0.25, 3.5, 1e-300, 7e200])
    first, second = (np.where(support, draw(st.lists(
        values, min_size=n, max_size=n)), 0.0).reshape(sides) for _ in range(2))
    return (dom, draw(st.sampled_from(BASE_KINDS)), draw(st.integers(0, 1)),
            Measure.general(dom, first), Measure.general(dom, second))


class TestGeometryPool:
    """``build_base`` pools one ``Geometry`` per (sides, split, kind,
    min_scale), of every candidate box, and derives each support's family
    from it: a family built on a pool hit is bit for bit the family a fresh
    build gives."""

    @given(_supported_pair())
    @settings(max_examples=150, deadline=None)
    def test_hit_matches_a_fresh_build(self, case):
        dom, kind, min_scale, first, second = case
        _fresh_pool()
        try:
            # The full support first: every support shares its geometry.
            build_base(dom, Measure.uniform(dom), kind, min_scale)
        except OscillabError:
            return  # the kind does not fit this grid or scale
        build_base(dom, first, kind, min_scale)
        assert lattice._GEOMETRIES.misses == 1
        hits = lattice._GEOMETRIES.hits
        hit = build_base(dom, second, kind, min_scale)
        assert lattice._GEOMETRIES.hits == hits + 1
        _fresh_pool()
        fresh = build_base(dom, second, kind, min_scale)
        assert hit.geometry is not fresh.geometry
        values = np.random.default_rng(len(hit)).normal(size=dom.sides)
        for base in (hit, fresh):
            assert not base.lo.flags.writeable and not base.hi.flags.writeable
            assert not base.tile_index.flags.writeable
            assert not any(arr.flags.writeable for chunk in base.layout[1]
                           for arr in chunk[1:])
        for got, want in [(hit.lo, fresh.lo), (hit.hi, fresh.hi),
                          (hit.set_masses(second), fresh.set_masses(second)),
                          (hit.summer(values), fresh.summer(values)),
                          (hit.tile_index, fresh.tile_index)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert hit.dropped_zero_mass == fresh.dropped_zero_mass
        assert _layout_bytes(hit.layout) == _layout_bytes(fresh.layout)
        assert (hit.key, hit.base_id) == (fresh.key, fresh.base_id)
        assert hit.domain is dom and hit.geometry.domain is not dom
        assert hit.runs == fresh.runs
        stop = 0
        for a, b, shape in hit.runs:
            assert a == stop < b and (hit.hi[a:b] - hit.lo[a:b] == shape).all()
            stop = b
        assert stop == len(hit)

    @pytest.mark.parametrize("kind", BASE_KINDS)
    def test_zero_mass_errors_raise_on_a_hit(self, kind):
        # A valid measure always has mass, so bypass its constructor's check.
        dom = GridDomain((4, 4), split=(1, 1))
        measure = Measure.uniform(dom)
        object.__setattr__(measure, "masses", np.zeros((4, 4)))
        error = ZeroMassBaseSet if kind in lattice.DYADIC_KINDS else EmptyBase
        for hits in (0, 1):
            with pytest.raises(error):
                build_base(dom, measure, kind)
            assert lattice._GEOMETRIES.hits == hits

    def test_second_build_reuses_the_set_up(self, monkeypatch):
        calls = []
        for name in ("_candidate_corners", "box_summer", "_term_layout"):
            real = getattr(lattice, name)
            monkeypatch.setattr(lattice, name, lambda *args, name=name, real=real: (
                calls.append(name) or real(*args)))
        dom = GridDomain((16,))
        f = np.arange(16.0) ** 2
        for full in (True, False):
            _fresh_pool()
            calls.clear()
            masses = np.linspace(1.0, 2.0, 16)
            if not full:
                masses[3] = 0.0  # some boxes are dropped
            for scale in (1.0, 3.0):
                mea = Measure.general(dom, scale * masses)
                base = build_base(dom, mea, "all-cubes")
                oscillation_norm(f, CenteredDiff(), Weight.unit(dom), 2.0, base, mea)
                maximal(f, base, mea, "uncentered")
                if scale == 1.0:
                    assert sorted(set(calls)) == sorted(
                        ("_candidate_corners", "box_summer", "_term_layout"))
                    first = len(calls)
            # A family with dropped boxes builds its own summer and layout.
            assert sorted(calls[first:]) == (
                [] if full else ["_term_layout", "box_summer"])

    def test_supports_share_one_geometry(self, monkeypatch):
        corners = []
        real = lattice._candidate_corners
        monkeypatch.setattr(lattice, "_candidate_corners",
                            lambda *args: corners.append(args) or real(*args))
        dom = GridDomain((8, 8), split=(1, 1))
        rng = np.random.default_rng(32)
        cases = []
        for kind in BASE_KINDS:
            _fresh_pool()
            for _ in range(50):
                support = rng.random(dom.sides) < 0.6
                support.flat[rng.choice(dom.num_cells, 2, replace=False)] = (False, True)
                mea = Measure.general(dom, np.where(support, rng.lognormal(
                    size=dom.sides), 0.0))
                cases.append((kind, mea, build_base(dom, mea, kind)))
            assert len(corners) == len(lattice._GEOMETRIES) == 1
            corners.clear()
        values = rng.normal(size=dom.sides)
        for kind, mea, hit in cases:
            _fresh_pool()
            fresh = build_base(dom, mea, kind)
            assert hit.dropped_zero_mass == fresh.dropped_zero_mass > 0
            for got, want in [(hit.lo, fresh.lo), (hit.hi, fresh.hi),
                              (hit.set_masses(mea), fresh.set_masses(mea)),
                              (hit.summer(values), fresh.summer(values)),
                              (hit.tile_index, fresh.tile_index)]:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert _layout_bytes(hit.layout) == _layout_bytes(fresh.layout)

    def test_lattice_reads_the_rectangle_geometry(self, monkeypatch):
        # On a 2-d grid the dyadic lattice is the dyadic-rectangles geometry
        # of split (1, 1): once that family is built, the doubling constant
        # and the stopping time enumerate no box, and a grid declared with
        # no split holds the same one pool entry.
        corners = []
        real = lattice._candidate_corners
        monkeypatch.setattr(lattice, "_candidate_corners",
                            lambda *args: corners.append(args) or real(*args))
        rng = np.random.default_rng(33)
        f = rng.normal(size=(16, 16))
        split = GridDomain((16, 16), split=(1, 1))
        mea = Measure.uniform(split)
        base = build_base(split, mea, "dyadic-rectangles")
        assert len(corners) == len(lattice._GEOMETRIES) == 1
        for dom in (split, GridDomain((16, 16))):
            w = Weight(dom, rng.uniform(0.5, 2.0, (16, 16)))
            doubling_constant(w, Measure.uniform(dom))
            if dom is split:
                cz_selection(f, dom.full_box(), w, 0.5, base, mea)
        assert len(corners) == len(lattice._GEOMETRIES) == 1

    def test_dropped_boxes_do_not_overflow_the_kept_sums(self):
        # [0:2] has no mass and sums f past the float range; no kept box does.
        dom = GridDomain((4,))
        base = build_base(dom, Measure.general(dom, np.array([0.0, 0.0, 1.0, 1.0])),
                          "all-cubes")
        f = np.array([1e308, 1e308, -1e308, 0.0])
        want = [float(sum(map(Fraction, f[l:h].tolist())))
                for l, h in zip(base.lo[:, 0].tolist(), base.hi[:, 0].tolist())]
        assert base.sums(f).tolist() == want

    def test_bytes_never_pass_the_budget(self, monkeypatch):
        sizes = {}
        cases = [((n,), kind) for n in (8, 16, 64, 256) for kind in
                 ("dyadic-cubes", "all-cubes")] + [
            ((16, 16), kind) for kind in BASE_KINDS]
        for budget in (16 * lattice.POOL_BYTES, lattice.POOL_BYTES, 400_000,
                       60_000):
            monkeypatch.setattr(lattice, "_GEOMETRIES", lattice.BoundedCache(
                budget, lattice._GEOMETRIES.size))
            pool = lattice._GEOMETRIES
            for sides, kind in cases * 2:
                dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
                base = build_base(dom, Measure.uniform(dom), kind)
                sizes[sides, kind] = base.nbytes
                held = [geo.nbytes for geo in pool._data.values()]
                assert pool.total == sum(held) <= budget
                assert (base.geometry in pool._data.values()) == (
                    base.nbytes <= budget)
        # The nine families of the constants-large benchmark fit the pool
        # together; 64x64 all-cubes (about 155 MB of layout) does not.
        nbytes = {}
        for sides, kind in [((64,), "dyadic-cubes"), ((64,), "all-cubes"),
                            ((256,), "dyadic-cubes"), ((256,), "all-cubes"),
                            ((16, 16), "dyadic-cubes"), ((16, 16), "all-cubes"),
                            ((16, 16), "dyadic-rectangles"),
                            ((64, 64), "dyadic-cubes"),
                            ((64, 64), "dyadic-rectangles"), ((64, 64), "all-cubes")]:
            dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
            nbytes[sides, kind] = lattice.Geometry(
                kind, dom, 0, *lattice._candidate_corners(dom, kind, 0)).nbytes
        large = nbytes.pop(((64, 64), "all-cubes"))
        assert sum(nbytes.values()) <= lattice.POOL_BYTES < large

    @pytest.mark.parametrize("sides, kind", [
        ((2,), "dyadic-cubes"), ((8,), "all-cubes"), ((4, 4), "dyadic-cubes"),
        ((64,), "all-cubes"), ((16, 16), "all-cubes"),
        ((32, 32), "dyadic-rectangles"), ((16, 16), "all-rectangles")])
    def test_nbytes_bounds_what_a_geometry_holds(self, sides, kind):
        import tracemalloc
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        values = np.random.default_rng(5).normal(size=sides)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            geo = build_base(dom, Measure.uniform(dom), kind).geometry
            geo.layout, geo.tile_index, geo.summer(values), geo.key, geo.base_id
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= geo.nbytes


class TestTermLayout:
    """``BaseFamily.layout``: every member's flat cells, in chunks of whole
    members, built on the first kernel call."""

    @pytest.mark.parametrize("sides, kind, min_scale, gather", [
        ((16,), "dyadic-cubes", 0, 1 << 14), ((16,), "all-cubes", 1, 1 << 14),
        ((8, 8), "dyadic-cubes", 0, 1 << 14), ((8, 8), "all-cubes", 1, 1 << 14),
        ((4, 8), "dyadic-rectangles", 0, 1 << 14),
        ((4, 8), "all-rectangles", 1, 1 << 14),
        # Several chunks: at the real bound, and at bounds below a member.
        ((16, 16), "all-cubes", 0, 1 << 14), ((8, 8), "all-cubes", 0, 40),
        ((16,), "all-cubes", 0, 7)])
    @pytest.mark.parametrize("drop", [False, True])
    def test_cells_per_member_in_row_major_order(self, monkeypatch, sides,
                                                 kind, min_scale, gather,
                                                 drop):
        monkeypatch.setattr(lattice, "_GATHER_CELLS", gather)
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        masses = np.ones(sides)
        if drop:
            masses.flat[1::3] = 0.0
        base = build_base(dom, Measure.general(dom, masses), kind, min_scale)
        assert (base.dropped_zero_mass > 0) == (drop and min_scale == 0)
        assert "layout" not in vars(base.geometry)  # not built by build_base
        width, chunks = base.layout
        grid = np.arange(dom.num_cells).reshape(sides)
        want = [grid[base.box(i).slices()].ravel().tolist()
                for i in range(len(base))]
        got = []
        for a, cells, starts, counts in chunks:
            assert a == len(got) and cells.dtype == np.int32
            assert int(counts.sum()) == len(cells)
            assert len(cells) <= gather or len(counts) == 1
            assert starts.tolist() == (np.cumsum(counts) - counts).tolist()
            got += [cells[i:i + n].tolist()
                    for i, n in zip(starts.tolist(), counts.tolist())]
        assert got == want
        assert width == max(map(len, want))
        if gather < 1 << 14 or sides == (16, 16):
            assert len(chunks) > 1

    def test_two_norms_build_the_layout_once(self, monkeypatch):
        calls, real = [], lattice._term_layout
        monkeypatch.setattr(lattice, "_term_layout",
                            lambda *args: calls.append(1) or real(*args))
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        assert calls == []
        f, w = np.arange(16.0) ** 2, Weight.unit(dom)
        values = {oscillation_norm(f, CenteredDiff(), w, p, base, mea).value
                  for p in (1.5, 3.0)}
        assert len(values) == 2 and calls == [1]

    @pytest.mark.parametrize("field", ["normal", "alternating"])
    def test_traced_peak_of_a_large_norm(self, field):
        # One norm on the 2.83 M terms of 256-cell all-cubes: the layout
        # keeps 4 bytes a term, and ``block_max`` one chunk's terms.  On
        # 0, 1, 0, ... every even-length box ties at the top mean 1/4.
        import tracemalloc
        dom = GridDomain((256,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        f = np.random.default_rng(3).normal(size=256) if field == "normal" \
            else np.arange(256.0) % 2
        w = Weight.unit(dom)
        base.sums(w.values * mea.masses)
        base.sums(f * mea.masses)
        tracemalloc.start()
        try:
            oscillation_norm(f, CenteredDiff(), w, 2.0, base, mea)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 23.3e6


class TestMeasure:
    def test_density_requires_positive_values(self):
        dom = GridDomain((4,))
        with pytest.raises(_BadParams):
            Measure.density(dom, np.array([1.0, -1.0, 1.0, 1.0]))

    def test_mass_bookkeeping(self):
        dom = GridDomain((4,))
        mea = Measure.density(dom, np.array([1.0, 2.0, 3.0, 4.0]))
        assert mea.total_mass == pytest.approx(oracles.box_sum(mea.masses, ((0,), (4,))))
        assert lattice.box_sums(mea.masses, [[1]], [[3]])[0] \
            == pytest.approx(float(np.sum(mea.masses[1:3])))

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


class TestFirstMax:
    """``first_max``: the first strict maximum above the floor, a NaN never
    winning, or (floor, None) where no value is above the floor."""

    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.0, math.inf, -math.inf,
                         math.nan]),
        st.floats(allow_nan=True, allow_infinity=True)), max_size=40),
        st.sampled_from([-math.inf, -1.0, 0.0, 1.0, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_first_strict_maximum(self, values, floor):
        best, arg = lattice.first_max(values, floor)
        live = [v for v in values if v > floor]
        if not live:
            assert (best, arg) == (floor, None)
            return
        top = max(live)
        assert arg == next(i for i, v in enumerate(values)
                           if v > floor and v == top)
        assert np.float64(best).tobytes() == np.float64(values[arg]).tobytes()

    # Ties, signed zeros, +-inf, NaN, all-NaN, nothing above the floor and
    # the empty input, with the pick written out.
    @pytest.mark.parametrize("values, floor, want", [
        ([], -math.inf, (-math.inf, None)),
        ([math.nan] * 3, -math.inf, (-math.inf, None)),
        ([-math.inf, -math.inf], -math.inf, (-math.inf, None)),
        ([1.0, math.nan, 2.0, 2.0, math.inf, math.inf], -math.inf,
         (math.inf, 4)),
        ([math.nan, 3.0, -0.0, 0.0, 3.0], -1.0, (3.0, 1)),
        ([math.nan, 3.0, -0.0, 0.0, 3.0], 3.0, (3.0, None)),
        ([-0.0, 0.0], -1.0, (-0.0, 0)),
    ])
    def test_examples(self, values, floor, want):
        best, arg = lattice.first_max(values, floor)
        assert arg == want[1]
        assert np.float64(best).tobytes() == np.float64(want[0]).tobytes()


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


_LAZY_GRIDS = ((4,), (8,), (16,), (4, 4), (4, 8), (8, 8))


class TestLazySets:
    """A family is its corner arrays; ``BaseSet``s are built on demand."""

    @given(st.sampled_from(_LAZY_GRIDS), st.sampled_from(BASE_KINDS),
           st.integers(0, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sets_match_brute_force_and_box(self, sides, kind, min_scale,
                                            data):
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        n = int(np.prod(sides))
        masses = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n)))
        masses = masses.reshape(sides)
        masses.flat[-1] = 1.0  # some mass, so the measure is valid
        try:
            base = build_base(dom, Measure.general(dom, masses), kind,
                              min_scale)
        except OscillabError:
            return  # the kind does not fit, or no set has mass
        boxes = [base.box(i) for i in range(len(base))]
        assert "sets" not in vars(base)
        want, _ = oracles.brute_base(sides, masses, kind, min_scale)
        assert [(b.lo, b.hi) for b in base.sets] == want
        assert base.sets == tuple(boxes)
        assert base.sets is base.sets
        assert len(base) == len(base.lo) == len(base.hi) == len(want)
        for corners in (base.lo, base.hi):
            assert corners.dtype == np.intp
            with pytest.raises(ValueError):
                corners[0, 0] = 0


@pytest.fixture
def refuse_sets(monkeypatch):
    """Make building any family's ``sets`` fail the test."""
    def refuse(lo, hi):
        raise AssertionError("BaseFamily.sets was built")
    monkeypatch.setattr(lattice, "_box_tuple", refuse)


class TestCornerArraysOnly:
    """Paths that read only the corner arrays never build ``sets``."""

    @pytest.mark.parametrize("sides, kind", [
        ((16,), "dyadic-cubes"), ((16,), "all-cubes"),
        ((8, 8), "dyadic-rectangles"), ((8, 8), "all-rectangles")])
    @pytest.mark.parametrize("spread", [1.0, 200.0], ids=["plain", "log"])
    def test_constants_and_maximal(self, refuse_sets, sides, kind, spread):
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, kind)
        rng = np.random.default_rng(5)
        w = Weight(dom, np.exp(rng.uniform(-spread, spread, sides)))
        # At spread 200 both constants need log space: 200 * 5 > log(1e300).
        assert muckenhoupt_constant(w, 1.2, base, mea) >= 1.0
        assert reverse_holder_constant(w, 5.0, base, mea) >= 1.0
        assert w.record(("ap", 1.2, base.base_id, mea.digest, base.key)).argmax
        modes = ["uncentered"] + (["dyadic"] if kind.startswith("dyadic")
                                  else ["centered"] * (kind == "all-cubes"))
        for mode in modes:
            maximal(w.values, base, mea, mode)
            a1_constant(w, base, mea, mode=mode)

    @pytest.mark.parametrize("kind", ["dyadic-cubes", "all-cubes"])
    def test_oscillation_norms(self, refuse_sets, kind):
        dom = GridDomain((8, 8), split=(1, 1))
        rng = np.random.default_rng(6)
        f = rng.normal(size=(8, 8))
        w = Weight(dom, rng.uniform(0.5, 2.0, (8, 8)))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, kind)
        for spec in (CenteredDiff(), CenteredDiff(w)):
            assert oscillation_norm(f, spec, w, 2.0, base, mea).extremal_set
        assert jn_exp_moment(f, base, w, mea).extremal_set
        dens = Measure.density(dom, w.values)
        base_w = build_base(dom, dens, kind)
        assert oscillation_norm(f, DualHardy(w), Weight.unit(dom), 1.0,
                                base_w, dens).extremal_set
        if kind == "dyadic-cubes":
            seq = TLSequence(dom, {base.box(i): float(rng.normal())
                                   for i in (0, 3, 9, 40)})
            assert oscillation_norm(seq, TLSeq(alpha=0.5, q=2.0), w, 1.5,
                                    base, mea, per_set=True).extremal_set

    @pytest.mark.parametrize("suite", [t.value for t in TheoremId])
    def test_certificates(self, refuse_sets, suite):
        # No certificate path builds a family's ``sets``.
        assert run_suite(suite, 8, seed=3)["reports"]

    @pytest.mark.parametrize("argv", [
        ["--kind", "ap", "--gen", "random-log-bounded", "--grid", "64"],
        ["--kind", "rh", "--gen", "power", "--grid", "16x16",
         "--base", "all-cubes"],
        ["--kind", "a1", "--gen", "rubio-a1", "--grid", "8x8", "--split",
         "--base", "dyadic-rectangles"]])
    def test_cli_constant(self, refuse_sets, tmp_path, argv):
        assert main(["constant", *argv, "--out", str(tmp_path / "c.json")]) == 0


def _layout_reads(path: Path) -> list[str]:
    """``file:line`` of each ``.layout`` attribute in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "layout"]


def test_only_lattice_reads_the_layout():
    # Every per-box nonlinear sum goes through ``lattice.block_reduce`` or
    # ``block_max`` on the family's term layout, so the gather, the
    # massless-cell rule and the row sums have one site.
    src = Path(lattice.__file__).parent
    assert _layout_reads(src / "lattice.py")  # the check can see a use
    others = [use for path in sorted(src.glob("*.py"))
              if path.name != "lattice.py" for use in _layout_reads(path)]
    assert others == []


def test_only_box_summer_reads_the_box_block():
    # ``_BOX_BLOCK`` bounds the corner-gather temporaries of the box-sum
    # engine, ``box_summer`` (``box_sums`` is a one-shot summer); the A_p
    # and reverse Holder maxima confirm their boxes in one pass.
    sites = set()
    for path in sorted(Path(lattice.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name == "_BOX_BLOCK" and isinstance(node.ctx, ast.Load):
                    sites.add(f"{path.name}:{getattr(top, 'name', '?')}")
    assert sites == {"lattice.py:box_summer"}


def test_only_screened_max_keeps_boxes():
    # One keep rule in front of every screened maximum.  The maxima left
    # unscreened: the kernel's ``per_set`` rows (already exact), the JN
    # probe's log rows (their margin would be absolute) and ``_worst_pair``
    # (it ranks ``per_set`` rows).
    assert _call_sites("screened_max") == {"lattice.py:block_max",
                                           "weights.py:_extremal_constant"}
    assert _call_sites("first_max") == {"lattice.py:screened_max",
                                        "oscillation.py:_grouped_report",
                                        "oscillation.py:jn_exp_moment",
                                        "verify.py:_worst_pair"}


def test_running_sums_only_on_exact_ints():
    # Every float sum is an exact box sum: a running sum (``cumsum``) runs
    # only on exact ints, in the summed-area tables of ``box_summer``, the
    # per-shape box counts of ``_boxes_by_shape``, the term counts of the
    # layout (``_term_layout``) and the scaled masses of ``_medians``.  The
    # sequence rule's level fields go through ``box_sums``.
    assert _call_sites("cumsum") == {"lattice.py:box_summer",
                                     "lattice.py:_boxes_by_shape",
                                     "lattice.py:_term_layout",
                                     "oscillation.py:_medians"}


def test_one_shot_box_sums_only_in_level_fields():
    # The doubling constant and the stopping time read the dyadic lattice
    # through ``dyadic_grids`` and its pooled summer; the sequence rule's
    # level fields, whose boxes no geometry holds, keep the one-shot.
    assert _call_sites("box_sums") == {"oscillation.py:_level_fields"}
    assert _call_sites("dyadic_grids") == {"oscillation.py:cz_selection",
                                           "weights.py:_doubling_constant"}


def _call_sites(name: str) -> set[str]:
    """``file:function`` for each call of ``name`` (a bare or attribute
    name) in ``src/``, the function being the top-level one it sits in."""
    sites = set()
    for path in sorted(Path(lattice.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    sites.add(f"{path.name}:{getattr(top, 'name', '?')}")
    return sites


def test_one_kernel_forms_every_oscillation_norm():
    # A norm report is built in the kernel alone, and the exact per-row
    # medians are taken there and in ``weighted_median``: no norm walks
    # its own blocks.
    assert _call_sites("NormReport") == {"oscillation.py:_grouped_report"}
    assert _call_sites("_medians") == {"oscillation.py:_norm_group",
                                       "oscillation.py:weighted_median"}
