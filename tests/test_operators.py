"""Maximal operators, norm bounds, and the majorant construction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (GridDomain, Measure, Weight, build_base, lattice,
                      lp_norm, maximal, operators, rubio_de_francia)
from oscillab.errors import (BadParams, IncompatibleBase, OscillabError,
                             OverflowGuard, ZeroInput)
from oscillab.operators import default_norm_bound

import oracles


# (sides, split, kind): 1-d, square and non-square 2-d grids.
_GRIDS = [((16,), None, "dyadic-cubes"), ((32,), None, "all-cubes"),
          ((8, 8), None, "dyadic-cubes"), ((8, 8), (1, 1), "dyadic-rectangles"),
          ((4, 16), (1, 1), "dyadic-rectangles"),
          ((16, 2), (1, 1), "dyadic-rectangles"), ((8, 8), None, "all-cubes")]


@st.composite
def _instances(draw, kinds=None):
    """(field, base, measure, mode): a general measure whose zero-mass cells
    drop members, and a field that is at times non-finite."""
    grids = [g for g in _GRIDS if kinds is None or g[2] in kinds]
    sides, split, base_kind = draw(st.sampled_from(grids))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dom = GridDomain(sides, split)
    masses = rng.uniform(0.1, 3.0, size=sides)
    masses[rng.random(sides) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    masses.flat[rng.integers(masses.size)] = 1.0
    mea = Measure.general(dom, masses)
    f = rng.normal(size=sides) * 10.0 ** rng.integers(-3, 4)
    if draw(st.integers(0, 9)) == 0:
        f.flat[rng.integers(f.size)] = draw(st.sampled_from([np.nan, np.inf]))
    mode = draw(st.sampled_from(["dyadic", "uncentered", "centered"]))
    return f, build_base(dom, mea, base_kind), mea, mode


def _outcome(call):
    """A call's result, or its error as (type, message)."""
    try:
        return call()
    except OscillabError as exc:
        return type(exc), str(exc)


class TestMaximal:
    def test_spike_profile(self, line8):
        dom, mea, base = line8
        f = np.zeros(8)
        f[0] = 1.0
        got = maximal(f, base, mea, "dyadic")
        want = np.array([1.0, 0.5, 0.25, 0.25, 0.125, 0.125, 0.125, 0.125])
        assert np.array_equal(got, want)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_dyadic_base(self, seed):
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=16)
        got = maximal(f, base, mea)
        want = oracles.brute_maximal(f, mea.masses, oracles.brute_dyadic_cubes((16,)))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_centered_mode_on_all_cubes(self, seed):
        rng = np.random.default_rng(seed)
        dom = GridDomain((8,))
        mea = Measure.density(dom, np.exp(rng.uniform(-1, 1, size=8)))
        base = build_base(dom, mea, "all-cubes")
        f = rng.normal(size=8)
        got = maximal(f, base, mea, "centered")
        want = oracles.brute_centered_maximal(f, mea.masses,
                                              oracles.brute_all_intervals(8))
        assert np.allclose(got, want, rtol=1e-12)

    def test_dyadic_mode_rejects_all_cubes_base(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        with pytest.raises(IncompatibleBase):
            maximal(np.ones(8), base, mea, "dyadic")

    def test_dominates_the_function(self, line8):
        dom, mea, base = line8
        rng = np.random.default_rng(3)
        f = rng.normal(size=8)
        got = maximal(f, base, mea)
        assert np.all(got >= np.abs(f) - 1e-15)

    @given(_instances(kinds=("dyadic-cubes", "dyadic-rectangles")))
    @settings(max_examples=150, deadline=None)
    def test_tile_gather_is_the_per_shape_spread(self, inst):
        f, base, mea, mode = inst
        got = _outcome(lambda: maximal(f, base, mea, mode))
        want = _outcome(lambda: oracles.tiled_maximal(f, base, mea, mode))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gather", [30, 130, 1 << 14])
    def test_blocked_gather(self, monkeypatch, gather):
        # 25 shapes x 256 cells: blocks of 1, 5 (the last one short) and
        # all 256 cells.
        monkeypatch.setattr("oscillab.lattice._GATHER_CELLS", gather)
        rng = np.random.default_rng(11)
        dom = GridDomain((16, 16), (1, 1))
        masses = rng.uniform(0.5, 2.0, size=(16, 16))
        masses[rng.random((16, 16)) < 0.3] = 0.0
        mea = Measure.general(dom, masses)
        base = build_base(dom, mea, "dyadic-rectangles")
        f = rng.normal(size=(16, 16))
        for mode in ("dyadic", "uncentered"):
            assert maximal(f, base, mea, mode).tobytes() == \
                oracles.tiled_maximal(f, base, mea, mode).tobytes()

    @pytest.mark.parametrize("sides, split, kind", [
        ((8,), None, "dyadic-cubes"), ((8, 8), None, "dyadic-cubes"),
        ((4, 16), (1, 1), "dyadic-rectangles")])
    def test_tile_index_names_the_covering_member(self, sides, split, kind):
        rng = np.random.default_rng(5)
        dom = GridDomain(sides, split)
        masses = rng.uniform(0.5, 1.0, size=sides)
        masses[rng.random(sides) < 0.5] = 0.0
        masses.flat[0] = 1.0
        base = build_base(dom, Measure.general(dom, masses), kind)
        assert base.dropped_zero_mass > 0
        index = base.tile_index
        assert index.dtype == np.int32
        shapes = np.unique(base.hi - base.lo, axis=0)
        assert index.shape == (len(shapes), dom.num_cells)
        cells = np.indices(sides).reshape(len(sides), -1).T
        for row in index:
            for cell, i in zip(cells, row.tolist()):
                if i < len(base):
                    assert np.all(base.lo[i] <= cell)
                    assert np.all(cell < base.hi[i])
            members = row[row < len(base)]
            assert len(np.unique(base.hi[members] - base.lo[members],
                                 axis=0)) == 1
        # Every member covers its own cells in the row of its shape.
        hits = np.zeros(len(base), int)
        np.add.at(hits, index[index < len(base)], 1)
        assert np.array_equal(hits, np.prod(base.hi - base.lo, axis=1))

    def test_unknown_mode_rejected(self, line8):
        dom, mea, base = line8
        with pytest.raises(BadParams):
            maximal(np.ones(8), base, mea, "sideways")


class TestNormBounds:
    def test_dyadic_is_conjugate_exponent(self, line8):
        dom, mea, base = line8
        assert default_norm_bound("dyadic", base, 2.0) == pytest.approx(2.0)
        assert default_norm_bound("dyadic", base, 3.0) == pytest.approx(1.5)

    def test_all_mode_scales_with_dimension(self):
        # The covering bound, which both non-dyadic modes take.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        dom2 = GridDomain((4, 4))
        base2 = build_base(dom2, Measure.uniform(dom2), "all-cubes")
        for mode in ("uncentered", "centered"):
            assert default_norm_bound(mode, base, 2.0) == \
                pytest.approx(2 * 3 * 2.0)
            assert default_norm_bound(mode, base2, 2.0) == \
                pytest.approx(2 * 9 * 2.0)


class TestLpNorm:
    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8),
           st.floats(1.0, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_sum(self, vals, p):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        f = np.array(vals)
        assert lp_norm(f, p, mea) == pytest.approx(
            oracles.brute_lp(f, p, mea.masses), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("p, error", [
        (math.nan, BadParams), (0.0, BadParams), (1e308, OverflowGuard)])
    def test_bad_exponent_rejected(self, line8, p, error):
        # |f|^1e308 once overflowed with numpy's RuntimeWarning, which a
        # rubio-a1 weight with p = 1e308 raised through its provenance.
        dom, mea, _ = line8
        with pytest.raises(error):
            lp_norm(np.arange(8.0), p, mea)


class TestRubioDeFrancia:
    def test_four_cell_worked_value(self):
        dom = GridDomain((4,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        g = np.array([1.0, 0.0, 0.0, 0.0])
        u = rubio_de_francia(g, 2.0, base, mea)
        # geometric series of iterated averages: 1 + 1/4 + 1/16 + ... = 4/3
        assert u.values[0] == pytest.approx(4.0 / 3.0, abs=1e-9)

    @given(st.integers(0, 10_000), st.floats(1.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_three_defining_properties(self, seed, p):
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        g = rng.normal(size=16)
        u = rubio_de_francia(g, p, base, mea)
        bound = u.provenance["norm_bound"]
        # dominates the seed
        assert np.all(u.values >= np.abs(g) - 1e-12)
        # self-bounded under the maximal operator
        mu = maximal(u.values, base, mea)
        assert np.all(mu <= 2.0 * bound * u.values * (1 + 1e-8))
        # comparable norm
        assert lp_norm(u.values, p, mea) <= 2.0 * lp_norm(g, p, mea) * (1 + 1e-10)

    @given(_instances(), st.sampled_from([1.2, 2.0, 3.5]),
           st.sampled_from([1e-10, 1e-3]))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_term_series(self, inst, p, tol):
        f, base, mea, mode = inst
        got = _outcome(lambda: rubio_de_francia(f, p, base, mea, mode, tol))
        want = _outcome(lambda: oracles.per_term_rubio_de_francia(
            f, p, base, mea, mode, tol))
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.values.tobytes() == want.values.tobytes()
        for key in ("iterations", "norm_bound", "params"):
            assert got.provenance[key] == want.provenance[key]
        checks, expected = got.provenance["checks"], want.provenance["checks"]
        assert list(checks) == list(expected)
        for key, value in expected.items():
            assert type(checks[key]) is type(value)
            assert repr(checks[key]) == repr(value)

    def _guarded(self, line8, g):
        dom, mea, base = line8
        want = _outcome(lambda: oracles.per_term_rubio_de_francia(
            g, 2.0, base, mea, "dyadic"))
        assert want == (OverflowGuard, "the seed is too large for the series "
                        "to stay in the float range; rescale it")
        assert _outcome(lambda: rubio_de_francia(g, 2.0, base, mea)) == want

    def test_overflowing_partial_sum_rejected(self, line8):
        # u = g + M g / 4 would leave the float range at cell 0 from a
        # finite seed; the guard on the seed's scale names the cause first.
        g = np.zeros(8)
        g[0] = 1.5e308
        self._guarded(line8, g)

    def test_overflowing_seed_mass_rejected(self, line8):
        # The seed's mass, 8e308, would overflow its exact sum.
        self._guarded(line8, np.full(8, 1e308))

    def test_one_set_mass_lookup_per_series(self, line8):
        dom, mea, base = line8
        g = np.random.default_rng(2).normal(size=8)
        before = base._sums.hits + base._sums.misses
        u = rubio_de_francia(g, 2.0, base, mea)
        assert u.provenance["iterations"] >= 2
        assert base._sums.hits + base._sums.misses == before + 1

    def test_one_maximal_set_up_per_series(self, monkeypatch, line8):
        # The series sets up its maximal once and builds the family's
        # summer at most once.  Of k computed terms the last falls below
        # tol and is not added, so k = iterations + 1; with the final
        # self-bound that makes k + 1 summer calls.
        dom, mea, base = line8
        set_ups, built, calls = [], [], []
        real_set_up, real_summer = operators._maximal_of, lattice.box_summer

        def summer(*args):
            built.append(args)
            inner = real_summer(*args)
            return lambda values: calls.append(values) or inner(values)
        monkeypatch.setattr(operators, "_maximal_of", lambda *args: (
            set_ups.append(args) or real_set_up(*args)))
        monkeypatch.setattr(lattice, "box_summer", summer)
        # The pooled geometry's summer comes built with the family.
        built_summer = base.summer
        monkeypatch.setitem(vars(base.geometry), "summer", lambda values: (
            calls.append(values) or built_summer(values)))
        g = np.random.default_rng(2).normal(size=8)
        k = rubio_de_francia(g, 2.0, base, mea).provenance["iterations"] + 1
        assert k >= 2
        assert len(set_ups) == 1 and len(built) <= 1
        assert len(calls) == k + 1

    def test_zero_seed_rejected(self, line8):
        dom, mea, base = line8
        with pytest.raises(ZeroInput):
            rubio_de_francia(np.zeros(8), 2.0, base, mea)

    def test_provenance_carries_certificate(self, line8):
        dom, mea, base = line8
        rng = np.random.default_rng(0)
        u = rubio_de_francia(rng.normal(size=8), 2.0, base, mea)
        checks = u.provenance["checks"]
        assert checks["dominates_seed"] == 1
        assert checks["self_bound_ratio"] <= checks["self_bound_limit"] * (1 + 1e-8)
        assert checks["lp_ratio"] <= 2.0 * (1 + 1e-10)
        assert u.provenance["iterations"] >= 1
