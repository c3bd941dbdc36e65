"""Maximal operators, norm bounds, and the majorant construction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (GridDomain, MaximalKind, Measure, Weight, build_base,
                      lp_norm, maximal, rubio_de_francia)
from oscillab.errors import (BadParams, IncompatibleBase, OverflowGuard,
                             ZeroInput)
from oscillab.operators import default_norm_bound

import oracles


class TestMaximal:
    def test_spike_profile(self, line8):
        dom, mea, base = line8
        f = np.zeros(8)
        f[0] = 1.0
        got = maximal(f, base, mea, MaximalKind("dyadic"))
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
        got = maximal(f, base, mea, MaximalKind("centered"))
        want = oracles.brute_centered_maximal(f, mea.masses,
                                              oracles.brute_all_intervals(8))
        assert np.allclose(got, want, rtol=1e-12)

    def test_dyadic_mode_rejects_all_cubes_base(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        with pytest.raises(IncompatibleBase):
            maximal(np.ones(8), base, mea, MaximalKind("dyadic"))

    def test_dominates_the_function(self, line8):
        dom, mea, base = line8
        rng = np.random.default_rng(3)
        f = rng.normal(size=8)
        got = maximal(f, base, mea)
        assert np.all(got >= np.abs(f) - 1e-15)

    def test_unknown_mode_rejected(self, line8):
        dom, mea, base = line8
        with pytest.raises(BadParams):
            maximal(np.ones(8), base, mea, MaximalKind("sideways"))


class TestNormBounds:
    def test_dyadic_is_conjugate_exponent(self, line8):
        dom, mea, base = line8
        assert default_norm_bound("dyadic", base, 2.0) == pytest.approx(2.0)
        assert default_norm_bound("dyadic", base, 3.0) == pytest.approx(1.5)

    def test_all_mode_scales_with_dimension(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        assert default_norm_bound("all", base, 2.0) == pytest.approx(2 * 3 * 2.0)
        dom2 = GridDomain((4, 4))
        base2 = build_base(dom2, Measure.uniform(dom2), "all-cubes")
        assert default_norm_bound("all", base2, 2.0) == pytest.approx(2 * 9 * 2.0)


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
