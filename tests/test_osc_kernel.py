"""The shape-grouped oscillation kernels against the per-box loops they
replaced (``oracles.per_box_osc_norm``, ``oracles.per_box_tl_norm``,
``oracles.per_box_jn_exp_moment``), and the stopping-time level walk
against the recursion it replaced (``oracles.recursive_cz_selection``).

Values, extremal sets and errors must agree exactly: floats are compared on
their bits, errors on their type and message.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (CenteredDiff, DualHardy, GridDomain, Measure, TLSeq,
                      TLSequence, Weight, build_base, cz_selection,
                      jn_exp_moment, oscillation_norm)
from oscillab.lattice import BaseSet
from oscillab.errors import IncompatibleSpec, OscillabError, ZeroMass

import oracles

GRIDS = ((8,), (16,), (4, 4), (8, 8), (4, 8))
KINDS = ("dyadic-cubes", "all-cubes", "dyadic-rectangles")
POWERS = (0.5, 1.0, 2.0, 3.7, 40.0)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _outcome(fn, *args, **kwargs):
    """The call's result, or the type and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - errors are compared, not hidden
        return "raised", type(exc), str(exc)


def _domain(sides) -> GridDomain:
    return GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)


# Field cells from 1e-150 to 1e150 in magnitude with mixed signs, laid out in
# constant blocks of 1, 2 or 4 cells per axis so that many boxes tie.
_magnitudes = st.builds(lambda m, e: m * 10.0 ** e,
                        st.floats(1.0, 9.999), st.integers(-150, 149))
_cell = st.one_of(st.just(0.0), st.sampled_from([1.0, -2.5, 3.0]),
                  _magnitudes, _magnitudes.map(lambda x: -x))
_positive = st.sampled_from([1.0, 0.5, 2.0, 1e-3, 7.25, 300.0])


@st.composite
def _instance(draw):
    sides = draw(st.sampled_from(GRIDS))
    dom = _domain(sides)
    block = draw(st.sampled_from([1, 2, 4]))
    coarse = tuple(max(1, s // block) for s in sides)
    cells = draw(st.lists(_cell, min_size=int(np.prod(coarse)),
                          max_size=int(np.prod(coarse))))
    f = np.array(cells).reshape(coarse)
    for axis, s in enumerate(sides):
        f = np.repeat(f, s // coarse[axis], axis=axis)
    n = int(np.prod(sides))
    w = Weight(dom, np.array(draw(st.lists(_positive, min_size=n, max_size=n)))
               .reshape(sides))
    v = Weight(dom, np.array(draw(st.lists(_positive, min_size=n, max_size=n)))
               .reshape(sides))
    kind = draw(st.sampled_from(KINDS))
    min_scale = draw(st.integers(0, 2))
    return dom, f, w, v, kind, min_scale


def _same_norm(got, want):
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    got, want = got[1], want[1]
    assert _bits(got.value) == _bits(want.value)
    assert got.extremal_set == want.extremal_set
    assert got.weight_id == want.weight_id and got.p == want.p
    if want.per_set is None:
        assert got.per_set is None
    else:
        assert all(type(x) is float for x in got.per_set)
        assert [_bits(x) for x in got.per_set] \
            == [_bits(x) for x in want.per_set]


class TestOscillationNormKernel:
    @given(_instance(), st.sampled_from(POWERS),
           st.sampled_from(["plain", "reweighted", "reciprocal", "massless"]),
           st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_per_box_loop(self, inst, p, rule, per_set):
        dom, f, w, v, kind, min_scale = inst
        if rule == "reciprocal":
            spec, norm_w, measure = DualHardy(w), Weight.unit(dom), \
                Measure.density(dom, w.values)
        elif rule == "massless":
            # No mass where v <= 1: such cells must not count.
            masses = np.where(v.values > 1.0, v.values, 0.0)
            masses.flat[0] = 1.0
            spec, norm_w, measure = CenteredDiff(), w, \
                Measure.general(dom, masses)
        else:
            spec = CenteredDiff() if rule == "plain" else CenteredDiff(v)
            norm_w, measure = w, Measure.uniform(dom)
        try:
            base = build_base(dom, measure, kind, min_scale)
        except OscillabError:
            return  # the kind does not fit this grid or scale
        _same_norm(
            _outcome(oscillation_norm, f, spec, norm_w, p, base, measure,
                     per_set=per_set),
            _outcome(oracles.per_box_osc_norm, f, spec, norm_w, p, base,
                     measure, per_set=per_set))


@st.composite
def _sequence_instance(draw):
    """A sequence over some dyadic cubes of a 1-d or square grid, with zero
    and huge coefficients, a weight, and a general measure whose zero-mass
    cells may empty whole boxes."""
    sides = draw(st.sampled_from(((8,), (16,), (32,), (64,), (4, 4), (8, 8))))
    dom = _domain(sides)
    cubes = [BaseSet(*box) for box in sorted(
        oracles.brute_dyadic_cubes(sides))]
    keys = draw(st.lists(st.sampled_from(cubes), min_size=1, max_size=12,
                         unique=True))
    coef = st.one_of(st.just(0.0), st.floats(-5.0, 5.0), _magnitudes)
    seq = TLSequence(dom, {k: draw(coef) for k in keys})
    n = int(np.prod(sides))
    w = Weight(dom, np.array(draw(st.lists(_positive, min_size=n, max_size=n)))
               .reshape(sides))
    cell_mass = st.sampled_from([0.0, 1.0, 0.25, 3.0] if draw(st.booleans())
                                else [1.0, 0.25, 3.0])
    masses = np.array(draw(st.lists(cell_mass, min_size=n, max_size=n))
                      ).reshape(sides)
    masses.flat[draw(st.integers(0, n - 1))] = 1.0
    spec = TLSeq(alpha=draw(st.floats(0.0, 1.5)), q=draw(st.floats(0.5, 3.0)))
    return dom, seq, spec, w, Measure.general(dom, masses)


class TestSequenceNormKernel:
    @given(_sequence_instance(),
           st.one_of(st.sampled_from([0.3, 1.0, 2.0, 40.0]),
                     st.floats(0.3, 40.0)),
           st.integers(0, 1), st.booleans(), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_per_box_loop(self, inst, p, min_scale, unit,
                                           per_set):
        dom, seq, spec, w, measure = inst
        norm_w = Weight.unit(dom) if unit else w
        try:
            base = build_base(dom, measure, "dyadic-cubes", min_scale)
        except OscillabError:
            return  # the full domain has no mass
        _same_norm(
            _outcome(oscillation_norm, seq, spec, norm_w, p, base, measure,
                     per_set=per_set),
            _outcome(oracles.per_box_tl_norm, seq, spec, norm_w, p, base,
                     measure, per_set=per_set))


class TestJNKernel:
    @given(_instance(), st.sampled_from([None, 0.5, 3.0]),
           st.sampled_from([64.0, 2.0, 0.25]))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_per_box_loop(self, inst, eta, big_n):
        dom, f, w, _, kind, min_scale = inst
        measure = Measure.uniform(dom)
        try:
            base = build_base(dom, measure, kind, min_scale)
        except OscillabError:
            return
        got = _outcome(jn_exp_moment, f, base, w, measure, eta=eta,
                       big_n=big_n)
        want = _outcome(oracles.per_box_jn_exp_moment, f, base, w, measure,
                        eta=eta, big_n=big_n)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got == want
            return
        got, want = got[1], want[1]
        for name in ("t_value", "c1_hat", "c2_hat", "bmo_norm", "dw", "eta"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name))
        assert got.extremal_set == want.extremal_set


@st.composite
def _stopping_instance(draw):
    """A field, weight and measure (maybe with zero-mass cells) on a 1-d,
    square or non-square 2-d grid, a family of either dyadic kind (or, at
    times, a kind the walk refuses), a root box and a threshold."""
    sides = draw(st.sampled_from(((2,), (8,), (16,), (32,), (4, 4), (8, 8),
                                  (16, 16), (4, 8), (8, 4), (2, 16))))
    dom = _domain(sides)
    n = int(np.prod(sides))
    # Small noise with a few spikes, so that selections reach many levels.
    f = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n,
                               max_size=n))).reshape(sides)
    for _ in range(draw(st.integers(0, 8))):
        f.flat[draw(st.integers(0, n - 1))] = draw(st.one_of(
            st.floats(-5.0, 5.0), st.floats(-50.0, 50.0), _cell))
    w = Weight(dom, np.array(draw(st.lists(_positive, min_size=n, max_size=n)))
               .reshape(sides))
    cell_mass = st.sampled_from([0.0, 1.0, 0.25, 3.0] if draw(st.booleans())
                                else [1.0, 0.25, 3.0])
    masses = np.array(draw(st.lists(cell_mass, min_size=n, max_size=n))
                      ).reshape(sides)
    masses.flat[draw(st.integers(0, n - 1))] = 1.0
    kind = "dyadic-rectangles" if len(sides) == 2 and (
        sides[0] != sides[1] or draw(st.booleans())) else "dyadic-cubes"
    kind = draw(st.sampled_from([kind] * 9 + ["all-cubes"]))
    lam = 10.0 ** draw(st.floats(-2.0, 1.0))
    return dom, f, w, Measure.general(dom, masses), kind, lam, draw(st.data())


class TestStoppingTimeWalk:
    @given(_stopping_instance())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_recursion(self, inst):
        dom, f, w, measure, kind, lam, data = inst
        try:
            base = build_base(dom, measure, kind)
        except OscillabError:
            return  # the full domain has no mass
        root = dom.full_box() if data.draw(st.booleans()) \
            else base.box(data.draw(st.integers(0, len(base) - 1)))
        got = _outcome(cz_selection, f, root, w, lam, base, measure)
        want = _outcome(oracles.recursive_cz_selection, f, root, w, lam,
                        base, measure)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got == want
            return
        got, want = got[1], want[1]
        assert got.selected == want.selected
        assert (got.root, got.lam, got.d_max) == (want.root, want.lam,
                                                  want.d_max)
        for name in ("avg_root", "realized_max_over_lam", "outside_max",
                     "mass_selected", "mass_root", "dw"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name))
            assert type(getattr(got, name)) is float

    def test_average_at_threshold_walks_on(self):
        # |f - c| = [1, 1, 1, 3]: 0:2 averages exactly lam, so it is walked
        # into, not selected, and its cells are leaves at lam.
        dom = GridDomain((4,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        args = (np.array([0.0, 0.0, 0.0, 4.0]), dom.full_box(),
                Weight.unit(dom), 1.0, base, mea)
        got = cz_selection(*args)
        assert [b.label() for b in got.selected] == ["2:4"]
        assert (got.outside_max, got.realized_max_over_lam) == (1.0, 2.0)
        assert got == oracles.recursive_cz_selection(*args)


class TestErrorPrecedence:
    """The first failing box in canonical order raises, with the message
    of the per-box loop."""

    def _line(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        f = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
        return dom, mea, base, f

    def _both(self, *args):
        got = _outcome(oscillation_norm, *args)
        assert got == _outcome(oracles.per_box_osc_norm, *args)
        return got

    def test_reweighted_rule_without_mass(self):
        dom, mea, base, f = self._line()
        v = Weight(dom, np.ones(8))
        # A Weight is strictly positive; zero two cells after construction
        # to reach the rule's own mass check.
        v.values = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        got = self._both(f, CenteredDiff(v), Weight.unit(dom), 2.0, base, mea)
        # All-cubes order: longest first, then corner; 4:6 is the first box
        # of side 2 inside the zeroed cells.
        assert got == ("raised", ZeroMass, "no mass on 4:6")

    def test_zero_weighted_mass_comes_first(self):
        dom, _, base, f = self._line()
        masses = np.ones(8)
        masses[[5, 6]] = 0.0
        mea = Measure.general(dom, masses)
        v = Weight(dom, np.ones(8))
        v.values = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        # 5:7 has neither w-mass nor reweighted mass, and the w-mass check
        # runs first; 1:2 lacks only reweighted mass and comes later.
        got = self._both(f, CenteredDiff(v), Weight.unit(dom), 1.0, base, mea)
        assert got == ("raised", ZeroMass, "no weighted mass on 5:7")

    def test_reciprocal_rule_needs_density_measure(self):
        dom, mea, base, f = self._line()
        w = Weight(dom, np.linspace(1.0, 2.0, 8))
        got = self._both(f, DualHardy(w), Weight.unit(dom), 2.0, base, mea)
        assert got == ("raised", IncompatibleSpec,
                       "the reciprocal-weight rule needs the ambient measure "
                       "to be the density measure of the same weight")

    def test_reciprocal_rule_zero_mass_before_mismatch(self):
        dom = GridDomain((4, 8), split=(1, 1))
        base = build_base(dom, Measure.uniform(dom), "all-cubes")
        masses = np.ones((4, 8))
        masses[:, :4] = 0.0
        mea = Measure.general(dom, masses)
        f = np.arange(32.0).reshape(4, 8)
        w = Weight(dom, np.ones((4, 8)))
        # The first box, 0:4x0:4, has no w-mass: that check comes before
        # the measure mismatch.
        got = self._both(f, DualHardy(w), Weight.unit(dom), 2.0, base, mea)
        assert got == ("raised", ZeroMass, "no weighted mass on 0:4x0:4")


    def test_sequence_rule_zero_weighted_mass(self):
        dom, mea, _, _ = self._line()
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight.unit(dom)
        w.values = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        seq = TLSequence(dom, {BaseSet((4,), (8,)): 2.0,
                               BaseSet((0,), (1,)): -1.0})
        args = (seq, TLSeq(alpha=0.5, q=2.0), w, 2.0, base, mea)
        got = _outcome(oscillation_norm, *args)
        assert got == _outcome(oracles.per_box_tl_norm, *args)
        assert got == ("raised", ZeroMass, "no weighted mass on 4:6")


class TestZeroMassCells:
    def test_overflowing_cell_without_mass_is_left_out(self):
        # |f - c|^2 overflows on the massless last cell; inf * 0 once made
        # 0:4 and 2:4 NaN, and the norm fell to 0.5 on 0:2.
        dom = GridDomain((4,))
        mea = Measure.general(dom, np.array([1.0, 1.0, 1.0, 0.0]))
        base = build_base(dom, mea, "dyadic-cubes")
        args = (np.array([1.0, 2.0, 3.0, 1e200]), CenteredDiff(),
                Weight.unit(dom), 2.0, base, mea)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oscillation_norm(*args, per_set=True)
            want = oracles.per_box_osc_norm(*args, per_set=True)
        assert _bits(got.value) == _bits((2.0 / 3.0) ** 0.5)
        assert got.extremal_set.label() == "0:4"
        _same_norm(("ok", got), ("ok", want))
