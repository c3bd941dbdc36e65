"""Weight constants, self-improvement closed forms, and the power bump."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (GridDomain, Measure, SelfImprovementParams, Weight,
                      a1_constant, build_base, conjugate, doubling_constant,
                      generate_weight, muckenhoupt_constant, power_bump_check,
                      read_weight, reverse_holder_constant, self_improvement,
                      write_weight)
from oscillab import lattice, weights
from oscillab.errors import BadParams, ExponentOutOfRange, OverflowGuard
from oscillab.lattice import BaseSet, first_max

import oracles


def _random_weight(rng, n):
    return np.exp(rng.uniform(-2.0, 2.0, size=n))


class TestExactFixtures:
    def test_unit_weight_constants_are_one(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        assert muckenhoupt_constant(w, 2.0, base, mea) == pytest.approx(1.0, abs=1e-12)
        assert muckenhoupt_constant(w, 3.5, base, mea) == pytest.approx(1.0, abs=1e-12)
        assert reverse_holder_constant(w, 2.0, base, mea) == pytest.approx(1.0, abs=1e-12)
        assert a1_constant(w, base, mea) == pytest.approx(1.0, abs=1e-12)
        assert doubling_constant(w, mea) == pytest.approx(2.0, abs=1e-12)

    def test_two_cell_bump(self, two_cell):
        dom, mea, base, w = two_cell
        # avg(w) * avg(1/w) on {1, 2}: 1.5 * 0.75 = 1.125
        assert muckenhoupt_constant(w, 2.0, base, mea) == pytest.approx(1.125, abs=1e-12)
        # sqrt(avg(w^2)) / avg(w) = sqrt(2.5)/1.5
        want = np.sqrt(2.5) / 1.5
        assert reverse_holder_constant(w, 2.0, base, mea) == pytest.approx(want, abs=1e-12)

    def test_alternating_line(self, alternating8):
        dom, mea, base, w = alternating8
        assert muckenhoupt_constant(w, 2.0, base, mea) == pytest.approx(1.125, abs=1e-12)
        assert a1_constant(w, base, mea) == pytest.approx(1.5, abs=1e-12)
        assert doubling_constant(w, mea) == pytest.approx(3.0, abs=1e-12)


class TestAgainstBruteForce:
    @given(st.integers(0, 10_000), st.floats(1.1, 4.0), st.floats(1.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_constants_match_direct_formulas(self, seed, p, delta):
        rng = np.random.default_rng(seed)
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, _random_weight(rng, 8), {"kind": "test"})
        boxes = oracles.brute_dyadic_cubes((8,))
        assert muckenhoupt_constant(w, p, base, mea) == pytest.approx(
            oracles.brute_ap(w.values, mea.masses, boxes, p), rel=1e-10)
        assert reverse_holder_constant(w, delta, base, mea) == pytest.approx(
            oracles.brute_rh(w.values, mea.masses, boxes, delta), rel=1e-10)
        assert a1_constant(w, base, mea) == pytest.approx(
            oracles.brute_a1(w.values, mea.masses, boxes), rel=1e-10)
        assert doubling_constant(w, mea) == pytest.approx(
            oracles.brute_doubling(w.values, mea.masses, (8,)), rel=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_square_grid_doubling_matches(self, seed):
        rng = np.random.default_rng(seed)
        dom = GridDomain((4, 4))
        mea = Measure.density(dom, np.exp(rng.uniform(-0.5, 0.5, size=(4, 4))))
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=(4, 4))), {"kind": "test"})
        assert doubling_constant(w, mea) == pytest.approx(
            oracles.brute_doubling(w.values, mea.masses, (4, 4)), rel=1e-10)

    @given(st.integers(0, 10_000), st.floats(1.2, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_nonuniform_measure_constants(self, seed, p):
        rng = np.random.default_rng(seed)
        dom = GridDomain((8,))
        mea = Measure.density(dom, np.exp(rng.uniform(-1, 1, size=8)))
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, _random_weight(rng, 8), {"kind": "test"})
        boxes = oracles.brute_dyadic_cubes((8,))
        assert muckenhoupt_constant(w, p, base, mea) == pytest.approx(
            oracles.brute_ap(w.values, mea.masses, boxes, p), rel=1e-10)


def _numpy_scalar_constant(w, exponents, plain, base, measure):
    """(value, index) of the functional on numpy scalars, one box at a
    time: the plain-space path before it took Python floats."""
    masses = base.set_masses(measure)
    return first_max(plain(*(base.sums(w.values ** e * measure.masses) / masses
                             for e in exponents)))


def _ap_plain(p):
    return lambda m1, me: (a * b ** (p - 1.0) for a, b in zip(m1, me))


def _rh_plain(delta):
    return lambda md, m1: (a ** (1.0 / delta) / b for a, b in zip(md, m1))


class TestPlainFunctional:
    """The plain-space A_p and reverse Holder constants on Python floats
    against the numpy-scalar generator, bit for bit, argmax included."""

    @staticmethod
    def _assert_same(w, key, got, want, base, mea):
        assert np.float64(got).tobytes() == np.float64(want[0]).tobytes()
        record = w.record((*key, base.base_id, mea.digest, base.key))
        assert record.argmax == base.box(want[1])

    @given(st.sampled_from([((8,), "dyadic-cubes"), ((16,), "all-cubes"),
                            ((8, 8), "all-rectangles"),
                            ((4, 16), "dyadic-rectangles")]),
           st.integers(0, 2 ** 32 - 1),
           st.one_of(st.sampled_from([2.0, 3.0]), st.floats(1.05, 6.0)),
           st.sampled_from([7, lattice._BOX_BLOCK]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_scalars(self, grid, seed, p, block, dense):
        sides, kind = grid
        rng = np.random.default_rng(seed)
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        mea = (Measure.density(dom, np.exp(rng.normal(0.0, 1.0, sides)))
               if dense else Measure.uniform(dom))
        base = build_base(dom, mea, kind)
        w = Weight(dom, np.exp(rng.normal(0.0, 1.5, sides)))
        # A block of 7 boxes chains many blocks into one first maximum.
        with mock.patch.object(lattice, "_BOX_BLOCK", block):
            ap = muckenhoupt_constant(w, p, base, mea)
            rh = reverse_holder_constant(w, p, base, mea)
        self._assert_same(w, ("ap", p), ap, _numpy_scalar_constant(
            w, (1.0, -1.0 / (p - 1.0)), _ap_plain(p), base, mea), base, mea)
        self._assert_same(w, ("rh", p), rh, _numpy_scalar_constant(
            w, (p, 1.0), _rh_plain(p), base, mea), base, mea)

    def test_every_block_reaches_the_maximum(self):
        # The mean of w peaks on the last cell alone, the family's last box.
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        w = Weight(dom, np.r_[np.ones(15), 2.0])
        with mock.patch.object(lattice, "_BOX_BLOCK", 7):
            got = weights._extremal_constant(w, ("mean",), (1.0,), (1.0,), iter,
                                             None, "mean", base, mea)
        assert got == 2.0
        record = w.record(("mean", base.base_id, mea.digest, base.key))
        assert record.argmax == base.box(len(base) - 1) == BaseSet((15,), (16,))

    def test_underflowed_means_take_the_fallback(self):
        # w m underflows to 0 on the first four cells, so the boxes there
        # have mean 0 and the reverse Holder functional 0/0: Python raises,
        # numpy gives a nan that the first maximum skips.
        dom = GridDomain((8,))
        mea = Measure.general(dom, np.r_[np.full(4, 1e-300), np.ones(4)])
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, np.r_[np.full(4, 1e-100), 1.0, 2.0, 3.0, 4.0])
        masses = base.set_masses(mea)
        means = [(base.sums(w.values ** e * mea.masses) / masses).tolist()
                 for e in (2.0, 1.0)]
        with pytest.raises(ZeroDivisionError):
            list(_rh_plain(2.0)(*means))
        with np.errstate(invalid="ignore"):
            got = reverse_holder_constant(w, 2.0, base, mea)
            want = _numpy_scalar_constant(w, (2.0, 1.0), _rh_plain(2.0),
                                          base, mea)
        assert math.isfinite(got)
        self._assert_same(w, ("rh", 2.0), got, want, base, mea)

    def test_overflow_falls_back_to_the_same_error(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, np.linspace(1.0, 2.0, 8))
        plain = lambda m: (a ** 2000.0 for a in m)
        with pytest.raises(OverflowError):
            list(plain([1.5]))
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowGuard, match="^test constant left"):
            weights._extremal_constant(w, ("test",), (1.0,), (1.0,), plain,
                                       None, "test constant", base, mea)


class TestConjugate:
    def test_landmarks(self):
        assert conjugate(2.0) == pytest.approx(2.0)
        assert conjugate(1.5) == pytest.approx(3.0)
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0)

    @given(st.floats(1.01, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_involution_and_split(self, p):
        q = conjugate(p)
        assert conjugate(q) == pytest.approx(p, rel=1e-12)
        assert 1.0 / p + 1.0 / q == pytest.approx(1.0, rel=1e-12)

    def test_rejects_endpoint(self):
        with pytest.raises(ExponentOutOfRange):
            conjugate(1.0)


class TestSelfImprovement:
    """Gain exponents and caps follow the configured closed forms."""

    def test_euclidean_cubes(self):
        params = SelfImprovementParams("euclidean-cubes", dims=1)
        gain, cap = self_improvement(params, 2.0, 3.0)
        assert gain == pytest.approx(1.0 + 1.0 / (2.0 ** 2 * 3.0 - 1.0))
        assert cap == pytest.approx(2.0)
        gain2, _ = self_improvement(SelfImprovementParams("euclidean-cubes", dims=2), 2.0, 3.0)
        assert gain2 == pytest.approx(1.0 + 1.0 / (2.0 ** 3 * 3.0 - 1.0))

    def test_rectangles(self):
        params = SelfImprovementParams("rectangles")
        gain, cap = self_improvement(params, 2.5, 3.0)
        assert gain == pytest.approx(1.0 + 1.0 / (2.0 ** 4.5 * 3.0))
        assert cap == pytest.approx(2.0)

    def test_non_doubling(self):
        params = SelfImprovementParams("non-doubling", besicovitch=5.0)
        gain, cap = self_improvement(params, 2.0, 4.0)
        assert gain == pytest.approx(1.0 + 1.0 / (2.0 ** 3 * 5.0 * 4.0))
        assert cap == pytest.approx(2.0)

    def test_homogeneous(self):
        params = SelfImprovementParams("homogeneous", tau=6.0, kconst=3.5)
        gain, cap = self_improvement(params, 2.0, 4.0)
        assert gain == pytest.approx(1.0 + 1.0 / 24.0)
        assert cap == pytest.approx(3.5)

    @given(st.floats(1.05, 8.0), st.floats(1.0, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_gain_exceeds_one(self, p, t):
        for params in (SelfImprovementParams("euclidean-cubes", dims=1),
                       SelfImprovementParams("rectangles"),
                       SelfImprovementParams("non-doubling"),
                       SelfImprovementParams("homogeneous")):
            gain, cap = self_improvement(params, p, t)
            assert gain > 1.0
            assert cap >= 1.0

    def test_unknown_setting_rejected(self):
        with pytest.raises(BadParams):
            self_improvement(SelfImprovementParams("weird"), 2.0, 2.0)


class TestPowerBump:
    def test_two_cell_equality_case(self, two_cell):
        dom, mea, base, w = two_cell
        report = power_bump_check(w, 2.0, 2.0, base, mea)
        assert report.passed
        live = [c for c in report.checks if c.status != "skipped"]
        main = max(live, key=lambda c: abs(c.rhs or 0.0))
        # both sides land exactly on 45/32
        assert main.lhs == pytest.approx(1.40625, abs=1e-12)
        assert main.rhs == pytest.approx(1.40625, abs=1e-12)

    @given(st.integers(0, 10_000), st.floats(1.1, 4.0), st.floats(1.1, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_random_weights_never_violate(self, seed, p, delta):
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, _random_weight(rng, 16), {"kind": "test"})
        assert power_bump_check(w, p, delta, base, mea).passed


class TestGenerateAndSerialize:
    def test_kinds_are_deterministic(self, line8):
        dom, mea, base = line8
        for kind, params in (("power", {"exponent": 0.7}),
                             ("random-log-bounded", {"bound": 0.8}),
                             ("checkerboard", {"contrast": 2.0})):
            w1 = generate_weight(kind, params, 5, dom, base, mea)
            w2 = generate_weight(kind, params, 5, dom, base, mea)
            assert np.array_equal(w1.values, w2.values)
            assert w1.provenance["kind"] == kind
            assert np.all(w1.values > 0)

    def test_distinct_seeds_differ(self, line8):
        dom, mea, base = line8
        a = generate_weight("random-log-bounded", {"bound": 1.0}, 1, dom, base, mea)
        b = generate_weight("random-log-bounded", {"bound": 1.0}, 2, dom, base, mea)
        assert not np.array_equal(a.values, b.values)

    def test_power_profile_shape(self, line8):
        dom, mea, base = line8
        w = generate_weight("power", {"exponent": 1.0}, 0, dom, base, mea)
        # midpoints (i + 1/2)/8, increasing along the line
        assert w.values[0] == pytest.approx(1.0 / 16.0)
        assert np.all(np.diff(w.values) > 0)

    def test_round_trip_preserves_digest(self, line8):
        dom, mea, base = line8
        w = generate_weight("random-log-bounded", {"bound": 1.5}, 9, dom, base, mea)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.csv"
            write_weight(path, w)
            w2 = read_weight(path)
        assert np.array_equal(w.values, w2.values)
        assert w.digest == w2.digest

    def test_cached_constants_record(self, alternating8):
        dom, mea, base, w = alternating8
        before = len(w.cached_constants())
        muckenhoupt_constant(w, 2.0, base, mea)
        after = w.cached_constants()
        assert len(after) >= before
