"""Weight constants, self-improvement closed forms, and the power bump."""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
        # A measure with massless cells: the maximal function is 0 there,
        # and the recorded argmax is one cell with mass.
        masses = rng.uniform(0.2, 1.5, size=8)
        masses[rng.choice(8, size=3, replace=False)] = 0.0
        holed = Measure.general(dom, masses)
        holed_base = build_base(dom, holed, "dyadic-cubes")
        assert a1_constant(w, holed_base, holed) == pytest.approx(
            oracles.brute_a1(w.values, holed.masses, boxes), rel=1e-10)
        arg = w.record(("a1", "dyadic", holed_base.base_id, holed.digest,
                        holed_base.key)).argmax
        assert arg.cell_count() == 1 and holed.masses[arg.slices()].item() > 0

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


def _counting(functional):
    """``functional``, and the list of its calls on Python floats."""
    calls = []

    def counted(*means):
        if isinstance(means[0], float):
            calls.append(means)
        return functional(*means)
    return counted, calls


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
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_scalars(self, grid, seed, p, dense):
        sides, kind = grid
        rng = np.random.default_rng(seed)
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        mea = (Measure.density(dom, np.exp(rng.normal(0.0, 1.0, sides)))
               if dense else Measure.uniform(dom))
        base = build_base(dom, mea, kind)
        w = Weight(dom, np.exp(rng.normal(0.0, 1.5, sides)))
        ap = muckenhoupt_constant(w, p, base, mea)
        rh = reverse_holder_constant(w, p, base, mea)
        self._assert_same(w, ("ap", p), ap, _numpy_scalar_constant(
            w, (1.0, -1.0 / (p - 1.0)), _ap_plain(p), base, mea), base, mea)
        self._assert_same(w, ("rh", p), rh, _numpy_scalar_constant(
            w, (p, 1.0), _rh_plain(p), base, mea), base, mea)

    def test_every_block_reaches_the_maximum(self):
        # The mean of w peaks on the last cell alone, the family's last box,
        # found through the screen and, where a nan top keeps every box,
        # through the one confirm pass over all of them.
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        # 1e308 / m * 2 overflows where m < 1.12, and inf - inf is nan
        # there, on floats as on arrays.
        spill = lambda m: m + (1e308 / m * 2.0 - 1e308 / m * 2.0)
        for functional, confirmed in ((lambda m: m, 1), (spill, len(base))):
            w = Weight(dom, np.r_[np.ones(15), 2.0])
            plain, calls = _counting(functional)
            got = weights._extremal_constant(
                w, ("mean",), (1.0,), (1.0,), plain, None, "mean", base, mea)
            assert got == 2.0
            assert len(calls) == confirmed
            record = w.record(("mean", base.base_id, mea.digest, base.key))
            assert record.argmax == base.box(len(base) - 1) \
                == BaseSet((15,), (16,))

    def test_underflowed_means_take_the_fallback(self):
        # w m underflows to 0 on the first four cells, so in plain space
        # the boxes there have mean 0 and the reverse Holder functional
        # 0/0.  The masses' log range sends the constant to log space,
        # where no mean underflows: value and argmax (0:8) are the log-space
        # oracle's, and within 1e-12 of the exact means'.
        dom = GridDomain((8,))
        mea = Measure.general(dom, np.r_[np.full(4, 1e-300), np.ones(4)])
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, np.r_[np.full(4, 1e-100), 1.0, 2.0, 3.0, 4.0])
        masses = base.set_masses(mea)
        means = [(base.sums(w.values ** e * mea.masses) / masses).tolist()
                 for e in (2.0, 1.0)]
        with pytest.raises(ZeroDivisionError):
            list(_rh_plain(2.0)(*means))
        assert weights._needs_log_space(w.values, (1.0, 2.0), mea.masses)
        got = reverse_holder_constant(w, 2.0, base, mea)
        log_best, arg = oracles.per_box_log_constant(w, 2.0, base, mea, "rh")
        assert np.float64(got).tobytes() == np.float64(
            math.exp(log_best)).tobytes()
        record = w.record(("rh", 2.0, base.base_id, mea.digest, base.key))
        assert record.argmax == arg
        want, want_arg = oracles.fraction_constant(w, 2.0, base, mea, "rh")
        assert got == pytest.approx(want, rel=1e-12)
        assert want_arg == arg

    def test_overflow_falls_back_to_the_same_error(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, np.linspace(1.0, 2.0, 8))
        plain = lambda m: m ** 2000.0
        with pytest.raises(OverflowError):
            plain(1.5)
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowGuard, match="^test constant left"):
            weights._extremal_constant(w, ("test",), (1.0,), (1.0,), plain,
                                       None, "test constant", base, mea)


def _tie_prone_weight(kind, dom, rng):
    """A weight for the screen tests: the checkerboard and constant kinds
    tie on every box, the power kind on every box of one shape."""
    if kind == "constant":
        return Weight(dom, np.full(dom.sides, np.exp(rng.normal())))
    if kind == "checkerboard":
        return generate_weight(kind, {"contrast": rng.uniform(1.1, 9.0)}, 0,
                               dom)
    if kind == "power":
        return generate_weight(kind, {"exponent": rng.uniform(-0.9, 2.0)}, 0,
                               dom)
    return Weight(dom, np.exp(rng.normal(0.0, 1.5, dom.sides)))


class TestScreen:
    """The numpy screen in front of libm: value and argmax bit for bit as
    the numpy-scalar generator gives them, on families of 15 to 1,296
    boxes."""

    @given(st.sampled_from([((8,), "dyadic-cubes"), ((16,), "dyadic-cubes"),
                            ((16,), "all-cubes"), ((32,), "all-cubes"),
                            ((8, 8), "all-rectangles"),
                            ((16, 16), "dyadic-rectangles")]),
           st.sampled_from(["random", "constant", "checkerboard", "power"]),
           st.sampled_from(["uniform", "dense", "underflow"]),
           st.integers(0, 2 ** 32 - 1),
           st.one_of(st.sampled_from([2.0, 3.0]), st.floats(1.2, 6.0)),
           st.sampled_from([7, lattice._BOX_BLOCK]))
    # Near-ties at the top where numpy's pow and libm's order two boxes
    # apart: found by dropping the margin, which fails each of them.
    @example(((16,), "all-cubes"), "constant", "dense", 9, 3.0, 7)
    @example(((8, 8), "all-rectangles"), "constant", "dense", 1, 3.0,
             lattice._BOX_BLOCK)
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_scalars(self, grid, kind, masses, seed, p, block):
        sides, family = grid
        rng = np.random.default_rng(seed)
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        w = _tie_prone_weight(kind, dom, rng)
        if masses == "underflow":
            # w m underflows to 0 on the first quarter of the cells, so the
            # boxes there have mean 0 and the functionals 0/0 or 0 * inf.
            low = np.arange(dom.num_cells).reshape(sides) < dom.num_cells // 4
            mea = Measure.general(dom, np.where(low, 1e-300, 1.0))
            w = Weight(dom, np.where(low, 1e-50, w.values))
        elif masses == "dense":
            mea = Measure.density(dom, np.exp(rng.normal(0.0, 1.0, sides)))
        else:
            mea = Measure.uniform(dom)
        base = build_base(dom, mea, family)
        e = -1.0 / (p - 1.0)
        assume(not weights._needs_log_space(w.values, (1.0, e, p - 1.0, p),
                                            mea.masses))
        with mock.patch.object(lattice, "_BOX_BLOCK", block), \
                np.errstate(all="ignore"):
            ap = muckenhoupt_constant(w, p, base, mea)
            rh = reverse_holder_constant(w, p, base, mea)
            want_ap = _numpy_scalar_constant(w, (1.0, e), _ap_plain(p),
                                             base, mea)
            want_rh = _numpy_scalar_constant(w, (p, 1.0), _rh_plain(p),
                                             base, mea)
        TestPlainFunctional._assert_same(w, ("ap", p), ap, want_ap, base, mea)
        TestPlainFunctional._assert_same(w, ("rh", p), rh, want_rh, base, mea)

    @given(st.sampled_from([((8,), "dyadic-cubes"), ((16,), "all-cubes"),
                            ((8, 8), "all-rectangles")]),
           st.integers(0, 2 ** 32 - 1), st.integers(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_overflow_edge(self, grid, seed, ulps):
        # The largest mean to the power e lands within a few ulps of the
        # float range's end, on either side of it.
        sides, family = grid
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, family)
        w = Weight(dom, np.random.default_rng(seed).uniform(1.0, 2.0, sides))
        e = math.log(sys.float_info.max) / math.log(float(np.max(w.values)))
        e *= 1.0 + ulps * 2.0 ** -52
        with np.errstate(over="ignore"):
            want = _numpy_scalar_constant(
                w, (1.0,), lambda m: (a ** e for a in m), base, mea)
            if math.isinf(want[0]):
                with pytest.raises(OverflowGuard):
                    weights._extremal_constant(
                        w, ("edge",), (1.0,), (1.0,), lambda m: m ** e, None,
                        "edge", base, mea)
                return
            got = weights._extremal_constant(
                w, ("edge",), (1.0,), (1.0,), lambda m: m ** e, None, "edge",
                base, mea)
        TestPlainFunctional._assert_same(w, ("edge",), got, want, base, mea)

    def test_small_family_confirms_only_the_top(self):
        # The screen runs on a family of any size: of the 36 boxes, only
        # the last cell, the one box near the top, reaches the floats.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        w = Weight(dom, np.r_[np.ones(7), 2.0])
        plain, calls = _counting(lambda m: m)
        got = weights._extremal_constant(w, ("mean",), (1.0,), (1.0,), plain,
                                         None, "mean", base, mea)
        assert (len(base), got, len(calls)) == (36, 2.0, 1)
        record = w.record(("mean", base.base_id, mea.digest, base.key))
        assert record.argmax == BaseSet((7,), (8,))

    def test_subnormal_top_confirms_every_box(self):
        # numpy's pow is vouched for only to within one 2**-1074 step below
        # the normal range, where top * (1 - margin) rounds back to top: a
        # subnormal top keeps every box, not only its ties.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        w = Weight(dom, np.linspace(1.0, 2.0, 8))
        plain, calls = _counting(lambda m: m ** -3.0 * 2.0 ** -1060)
        got = weights._extremal_constant(w, ("tiny",), (1.0,), (1.0,), plain,
                                         None, "tiny", base, mea)
        assert (len(base), len(calls)) == (36, 36)
        assert got == 2.0 ** -1060
        record = w.record(("tiny", base.base_id, mea.digest, base.key))
        assert record.argmax == BaseSet((0,), (1,))

    def test_numpy_pow_within_the_margin_of_libm(self):
        # The screen's premise, over the exponents the constants take:
        # numpy's vectorised x ** e within _SCREEN_MARGIN of libm's pow
        # where that is a normal float, within one step of 2**-1074 below
        # the normal range, and at least the largest float minus the
        # margin where libm overflows.  Bases run over every binade,
        # subnormals included, and cluster at the overflow edge.
        rng = np.random.default_rng(7)
        ps = [1.05, 1.5, 2.0, 2.7, 3.0, 4.5, 6.0, *rng.uniform(1.01, 8.0, 5)]
        deltas = [1.01, 1.3, 2.0, 3.7, 6.0, *rng.uniform(1.01, 8.0, 5)]
        exponents = [x for p in ps for x in (-1.0 / (p - 1.0), p - 1.0)]
        exponents += [x for d in deltas for x in (1.0 / d, d)]
        big, tiny = sys.float_info.max, sys.float_info.min
        margin, samples = weights._SCREEN_MARGIN, 0
        for e in exponents:
            # x ** e passes the largest float at x = edge (where |e| < 1,
            # it never does; the bases cluster at the largest float).
            edge = math.exp(math.log(big) / e) if abs(e) >= 1.0 else big
            with np.errstate(over="ignore", under="ignore"):
                x = np.concatenate([
                    np.exp2(rng.uniform(-1074.0, 1024.0, 3000)),
                    rng.integers(1, 2 ** 52, 500) * 2.0 ** -1074,
                    edge * (1.0 + rng.uniform(-2.0 ** -40, 2.0 ** -40, 1000))])
                x = x[(x > 0.0) & np.isfinite(x)]
                got = x ** e
            for base_, n in zip(x.tolist(), got.tolist()):
                try:
                    want = math.pow(base_, e)
                except OverflowError:
                    assert n >= big * (1.0 - margin), (base_, e, n)
                    continue
                if want >= tiny:
                    assert abs(n - want) <= margin * want, (base_, e, n, want)
                else:
                    assert abs(n - want) <= 2.0 ** -1074, (base_, e, n, want)
            samples += len(x)
        assert samples >= 10 ** 5


class TestMeasureScale:
    """The A_p and reverse Holder constants are ratios of means, so they do
    not change when the measure is rescaled; neither does the doubling
    constant.  A w**e m outside the float range takes log space."""

    @staticmethod
    def _line(masses, values):
        dom = GridDomain((4,))
        mea = Measure.general(dom, np.array(masses))
        return dom, mea, build_base(dom, mea, "dyadic-cubes"), Weight(
            dom, np.array(values))

    @staticmethod
    def _assert_oracles(w, x, base, mea, kind, got):
        log_best, arg = oracles.per_box_log_constant(w, x, base, mea, kind)
        assert got == pytest.approx(math.exp(log_best), rel=1e-12)
        want, want_arg = oracles.fraction_constant(w, x, base, mea, kind)
        assert got == pytest.approx(want, rel=1e-12)
        assert want_arg == arg == w.record(
            (kind, x, base.base_id, mea.digest, base.key)).argmax

    def test_underflowing_w_m(self):
        # w**e m underflows to 0 on 0:2 in plain space, where A_2 and RH_2
        # both read 1.0.
        _, mea, base, w = self._line([1e-300, 1e-300, 1.0, 1.0],
                                     [1e-50, 1e-30, 1.0, 1.0])
        ap = muckenhoupt_constant(w, 2.0, base, mea)
        rh = reverse_holder_constant(w, 2.0, base, mea)
        assert ap == pytest.approx(2.5e19, rel=1e-12)
        assert rh == pytest.approx(math.sqrt(2.0), rel=1e-12)
        self._assert_oracles(w, 2.0, base, mea, "ap", ap)
        self._assert_oracles(w, 2.0, base, mea, "rh", rh)

    def test_overflowing_w_m(self):
        # w m passes the float range on every cell in plain space, which
        # raised OverflowGuard; on the uniform measure A_2 is 2.5e9 + 0.5.
        dom, mea, base, w = self._line([1e300] * 4, [1e10, 1.0, 2.0, 3.0])
        uniform = Measure.uniform(dom)
        want = muckenhoupt_constant(w, 2.0, build_base(dom, uniform,
                                                       "dyadic-cubes"), uniform)
        assert want == 2500000000.5
        ap = muckenhoupt_constant(w, 2.0, base, mea)
        assert ap == pytest.approx(want, rel=1e-12)
        self._assert_oracles(w, 2.0, base, mea, "ap", ap)

    @given(st.sampled_from([((8,), "dyadic-cubes"), ((16,), "all-cubes"),
                            ((8, 8), "all-rectangles")]),
           st.integers(0, 2 ** 32 - 1), st.integers(-1000, 1000),
           st.floats(1.1, 6.0), st.booleans())
    @example(((16,), "all-cubes"), 3, -1000, 2.0, True)
    @example(((8, 8), "all-rectangles"), 5, 1000, 3.5, False)
    @settings(max_examples=60, deadline=None)
    def test_rescaled_measure_keeps_the_constants(self, grid, seed, k, p,
                                                  massless):
        sides, kind = grid
        rng = np.random.default_rng(seed)
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        masses = np.exp(rng.normal(0.0, 1.0, sides))
        if massless:
            masses.flat[int(rng.integers(masses.size))] = 0.0
        # Some w**e m pass e**±700 at the far scales, however k is signed.
        w = Weight(dom, np.exp(rng.normal(0.0, 3.0, sides)))
        got = []
        for scale in (1.0, 2.0 ** k):
            mea = Measure.general(dom, masses * scale)
            base = build_base(dom, mea, kind)
            got.append((muckenhoupt_constant(w, p, base, mea),
                        reverse_holder_constant(w, p, base, mea)))
        assert got[1] == pytest.approx(got[0], rel=1e-11)

    def test_doubling_underflowing_w_m_raises(self):
        # w m rounds to 0 on 0:2 though those cells have mass, so 0:2 looked
        # massless and was skipped (the constant read 2.0); the ratio of
        # 0:4 to 0:2 is about 2e330.
        _, mea, _, w = self._line([1e-300, 1e-300, 1.0, 1.0],
                                  [1e-50, 1e-30, 1.0, 1.0])
        with pytest.raises(OverflowGuard, match="float range.*rescale"):
            doubling_constant(w, mea)
        # Children of zero measure are still skipped.
        _, mea, _, w = self._line([0.0, 0.0, 1.0, 1.0],
                                  [1e-50, 1e-30, 1.0, 1.0])
        assert doubling_constant(w, mea) == oracles.brute_doubling(
            w.values, mea.masses, (4,)) == 2.0


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

    @pytest.mark.parametrize("sides", [(8,), (4, 4), (4, 8)])
    @pytest.mark.parametrize("a", [-0.7, 0.3, 1.0, 1.37])
    def test_power_bits_match_the_closed_form(self, sides, a):
        # The distance to the origin of the cell centres, bit for bit.
        w = generate_weight("power", {"exponent": a}, 0, GridDomain(sides))
        x = (np.arange(sides[0]) + 0.5) / sides[0]
        if len(sides) == 1:
            want = x ** a
        else:
            y = (np.arange(sides[1]) + 0.5) / sides[1]
            want = (x[:, None] ** 2 + y[None, :] ** 2) ** (a / 2)
        assert w.values.tobytes() == want.tobytes()

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
