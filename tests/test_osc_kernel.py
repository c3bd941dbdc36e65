"""The shape-grouped oscillation kernels against the per-box loops they
replaced (``oracles.per_box_osc_norm``, ``oracles.per_box_tl_norm``,
``oracles.per_box_jn_exp_moment``), the other shape-blocked report paths
against theirs (the sharp oscillation, the reciprocal rule's direct
formula, the gain-exponent sides, the log-space A_p and reverse Holder
constants), and the stopping-time level walk against the recursion it
replaced (``oracles.recursive_cz_selection``).

Values, extremal sets and errors must agree exactly: floats are compared on
their bits, errors on their type and message.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (CenteredDiff, DualHardy, GridDomain, Measure, TLSeq,
                      TLSequence, Weight, build_base, cz_selection,
                      generate_weight, jn_exp_moment, muckenhoupt_constant,
                      oscillation, oscillation_norm, reverse_holder_constant,
                      sharp_oscillation, verify, weights)
from oscillab.corpus import sample_inputs
from oscillab.lattice import BaseSet
from oscillab.errors import (IncompatibleSpec, OscillabError,
                             OverflowGuard, ZeroMass)

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


class TestNormScreen:
    """Without ``per_set`` the kernel takes ``lattice.block_max``; with it,
    ``block_reduce`` and ``first_max``.  Both give the same value, extremal
    set and first error."""

    @given(_instance(), st.sampled_from(POWERS),
           st.sampled_from(["plain", "unit-dense", "reweighted", "reciprocal",
                            "massless", "median"]))
    @settings(max_examples=250, deadline=None)
    def test_matches_the_unscreened_path(self, inst, p, rule):
        dom, f, w, v, kind, min_scale = inst
        measure = Measure.uniform(dom)
        if rule == "reciprocal":
            spec, w, measure = DualHardy(w), Weight.unit(dom), \
                Measure.density(dom, w.values)
        elif rule == "massless":
            masses = np.where(v.values > 1.0, v.values, 0.0)
            masses.flat[0] = 1.0
            spec, measure = CenteredDiff(), Measure.general(dom, masses)
        elif rule == "unit-dense":
            # Constant weights on a dense measure: rows tie.
            spec, w = CenteredDiff(), Weight.unit(dom)
        else:
            spec = {"plain": CenteredDiff(), "reweighted": CenteredDiff(v),
                    "median": oscillation.MedianDiff()}[rule]
        try:
            base = build_base(dom, measure, kind, min_scale)
        except OscillabError:
            return  # the kind does not fit this grid or scale
        families = [base]
        if rule == "massless":
            # Built on the uniform measure, the family holds boxes without
            # mass: the walk stops at the prefix before the first of them.
            families.append(build_base(dom, Measure.uniform(dom), kind,
                                       min_scale))
        for fam in families:
            got = _outcome(oscillation_norm, f, spec, w, p, fam, measure)
            want = _outcome(oscillation_norm, f, spec, w, p, fam, measure,
                            per_set=True)
            assert got[0] == want[0]
            if got[0] == "raised":
                assert got == want
            else:
                assert _bits(got[1].value) == _bits(want[1].value)
                assert got[1].extremal_set == want[1].extremal_set

    def test_only_kept_rows_reach_fsum(self, monkeypatch):
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        f = np.arange(16.0) ** 2
        calls, fsum = [], math.fsum
        monkeypatch.setattr(math, "fsum",
                            lambda xs: calls.append(1) or fsum(xs))
        counts = {}
        for per_set in (False, True):
            base = build_base(dom, mea, "all-cubes")
            calls.clear()
            oscillation_norm(f, CenteredDiff(), Weight.unit(dom), 2.0, base,
                             mea, per_set=per_set)
            counts[per_set] = len(calls)
        # One member holds the maximum, far above the rest.
        assert counts == {False: 1, True: len(base)}


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

    def test_level_fields_correctly_rounded(self):
        # With alpha 0.5 and q 1 on 8 cells, a side-s cube's term is 8/s
        # times its coefficient.  Cell 0 holds 2**-53 (sides 1 and 4) and
        # 1.0 (side 2): adding in level order, or from the largest side
        # down, loses both small terms; the rounded exact sum keeps them.
        # Cells 4..7 hold 1e308 (side 8) and 1.5e308 (side 4), whose sum
        # passes the float range.  Every level field is one exact box sum
        # per cell, two terms or three.
        dom = GridDomain((8,))
        small = {BaseSet((0,), (1,)): 2.0 ** -56, BaseSet((0,), (2,)): 0.25,
                 BaseSet((0,), (4,)): 2.0 ** -54}
        big = {BaseSet((0,), (8,)): 1e308, BaseSet((4,), (8,)): 0.75e308}
        measure = Measure.uniform(dom)
        base = build_base(dom, measure, "dyadic-cubes")
        spec = TLSeq(alpha=0.5, q=1.0)
        for coefs in (small, {**small, **big}, big):
            seq = TLSequence(dom, coefs)
            fields = oscillation._level_fields(seq, spec)
            if coefs is not big:
                assert fields[2, 0] == 1.0 + 2.0 ** -52
            if coefs is not small:
                assert fields[3, 0] == 1e308 and fields[2, 4] == 1.5e308
                assert fields[3, 4] == math.inf
            args = (seq, spec, Weight.unit(dom), 1.0, base, measure)
            _same_norm(_outcome(oscillation_norm, *args, per_set=True),
                       _outcome(oracles.per_box_tl_norm, *args,
                                per_set=True))

    def test_one_trial_builds_the_fields_once(self, monkeypatch):
        # A sequence-spaces trial takes five norms of one sequence under one
        # rule on one family; the level fields are built for the first.
        built = []
        real = oscillation._level_fields
        monkeypatch.setattr(oscillation, "_level_fields",
                            lambda seq, spec: built.append(seq) or
                            real(seq, spec))
        tid = verify.TheoremId.SEQUENCE_SPACES
        report = verify.certify(tid, sample_inputs(tid, 0, 0))
        assert len(report.checks) == 3
        assert len(built) == 1

    def _line_sequence(self):
        dom = GridDomain((8,))
        coefs = {BaseSet((0,), (1,)): 2.0 ** -56, BaseSet((0,), (2,)): 0.25,
                 BaseSet((0,), (4,)): 2.0 ** -54, BaseSet((4,), (8,)): -3.0}
        return dom, Measure.uniform(dom), TLSequence(dom, coefs)

    def test_stored_fields_are_read_only(self):
        dom, measure, seq = self._line_sequence()
        base = build_base(dom, measure, "dyadic-cubes")
        spec = TLSeq(alpha=0.5, q=1.0)
        for p in (1.0, 2.0):
            oscillation_norm(seq, spec, Weight.unit(dom), p, base, measure)
        stored = [v for v in base._norms._data.values()
                  if isinstance(v, np.ndarray)]
        assert len(stored) == 1 and not stored[0].flags.writeable
        with pytest.raises(ValueError):
            stored[0][0, 0] = 1.0
        fresh = oscillation._level_fields(seq, spec)
        assert stored[0].tobytes() == fresh.tobytes()
        assert stored[0].shape == fresh.shape

    def test_changed_sequence_on_a_used_family(self):
        # The stored fields are keyed by the sequence's content and the
        # rule: a changed coefficient, a new cube or another rule on the
        # same family gives the report a fresh family gives.
        dom, measure, seq = self._line_sequence()
        base = build_base(dom, measure, "dyadic-cubes")
        w = Weight(dom, np.linspace(1.0, 3.0, 8))
        variants = [
            (seq, TLSeq(alpha=0.5, q=1.0)),
            (TLSequence(dom, {**seq.coeffs, BaseSet((4,), (8,)): -3.5}),
             TLSeq(0.5, 1.0)),
            (TLSequence(dom, {**seq.coeffs, BaseSet((6,), (7,)): 1.0}),
             TLSeq(0.5, 1.0)),
            (seq, TLSeq(alpha=0.5, q=2.0)),
            (seq, TLSeq(alpha=0.0, q=1.0)),
        ]
        for s, spec in variants:
            args = (s, spec, w, 2.0)
            fresh = build_base(dom, measure, "dyadic-cubes")
            _same_norm(_outcome(oscillation_norm, *args, base, measure,
                                per_set=True),
                       _outcome(oscillation_norm, *args, fresh, measure,
                                per_set=True))


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

    def test_massless_cell_does_not_set_the_shift(self):
        # The last cell has no mass and the largest exponent of every box
        # holding it; a shift taken over it underflowed each other term to
        # 0, and log(0) raised a bare ValueError.
        dom = GridDomain((8,))
        mea = Measure.general(dom, np.array([1.0] * 7 + [0.0]))
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1e6])
        args = (f, base, Weight.unit(dom), mea)
        got = jn_exp_moment(*args, eta=0.01)
        want = oracles.per_box_jn_exp_moment(*args, eta=0.01)
        assert math.isfinite(got.t_value)
        assert _bits(got.t_value) == _bits(want.t_value)
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

    def test_no_overflow_guard_outside_the_root(self):
        # f w m passes the float range on cells 4-7 only, outside the root
        # 0:4; the walk reads w m and |f - c| w m on the root's cells alone,
        # as the recursion does.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.array([0.0, 0.0, 0.0, 2.5] + [1e308] * 4)
        args = (f, BaseSet((0,), (4,)), Weight(dom, np.full(8, 2.0)), 0.5,
                base, mea)
        got = cz_selection(*args)
        assert [b.label() for b in got.selected] == ["0:2", "2:4"]
        assert got.avg_root == 0.9375
        with np.errstate(over="ignore"):  # it forms f w m on every cell
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
        w = Weight(dom, np.ones(8))
        w.values = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        seq = TLSequence(dom, {BaseSet((4,), (8,)): 2.0,
                               BaseSet((0,), (1,)): -1.0})
        args = (seq, TLSeq(alpha=0.5, q=2.0), w, 2.0, base, mea)
        got = _outcome(oscillation_norm, *args)
        assert got == _outcome(oracles.per_box_tl_norm, *args)
        assert got == ("raised", ZeroMass, "no weighted mass on 4:6")

    def test_underflowing_powers_raise(self):
        # |f - c| is 5e-4 on every box but the cells: its 128th power
        # underflows, and a norm of 0 would read as no oscillation.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.array([0.0, 1e-3] * 4)
        for p in (2.0, 16.0):
            got = self._both(f, CenteredDiff(), Weight.unit(dom), p, base, mea)
            assert got[1].value == pytest.approx(5e-4, rel=1e-12)
        seq = TLSequence(dom, {BaseSet((0,), (2,)): 1e-3})
        for args in ((f, CenteredDiff(), Weight.unit(dom), 128.0, base, mea),
                     (seq, TLSeq(alpha=0.0, q=2.0), Weight.unit(dom), 64.0,
                      base, mea)):
            oracle = (oracles.per_box_osc_norm if args[0] is f
                      else oracles.per_box_tl_norm)
            got = _outcome(oscillation_norm, *args)
            assert got == _outcome(oracle, *args)
            assert got == ("raised", OverflowGuard, "the norm's p-th powers "
                           "underflow; rescale the field")


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


@st.composite
def _masses(draw, sides):
    """Cell masses for a grid: uniform, one-decimal (where float running
    sums round), or a few values with zero-mass cells; at least one cell
    has mass."""
    n = int(np.prod(sides))
    kind = draw(st.sampled_from(["uniform", "decimal", "massless"]))
    if kind == "uniform":
        return np.ones(sides)
    pick = st.integers(1, 9).map(lambda k: k / 10.0) if kind == "decimal" \
        else st.sampled_from([0.0, 1.0, 0.25, 3.0, 1e-3])
    masses = np.array(draw(st.lists(pick, min_size=n, max_size=n)))
    masses[draw(st.integers(0, n - 1))] = 1.0
    return masses.reshape(sides)


class TestReportBlocks:
    """The report paths that left the per-box loops of ``oracles``
    (``member_slices``) for shape blocks give the same bits."""

    def _base(self, dom, measure, kind, min_scale):
        try:
            return build_base(dom, measure, kind, min_scale)
        except OscillabError:
            return None  # the kind does not fit this grid, scale or mass

    @given(_instance(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sharp_oscillation(self, inst, data):
        dom, f, _, _, kind, min_scale = inst
        measure = Measure.general(dom, data.draw(_masses(dom.sides)))
        base = self._base(dom, measure, kind, min_scale)
        if base is None:
            return
        got = sharp_oscillation(f, base, measure)
        want = oracles.per_box_sharp_oscillation(f, base, measure)
        assert _bits(got.value) == _bits(want.value)
        assert got.extremal_set == want.extremal_set

    @given(_instance())
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_direct_formula(self, inst):
        dom, f, w, _, kind, min_scale = inst
        mu_w = Measure.density(dom, w.values)
        base_w = self._base(dom, mu_w, kind, min_scale)
        if base_w is None:
            return
        assert _bits(verify._reciprocal_direct(f, w, base_w)) \
            == _bits(oracles.per_box_reciprocal_direct(f, w, base_w))

    @given(_instance(), st.data(), st.sampled_from([4.0, 40.0, 400.0, 3e3]))
    @settings(max_examples=150, deadline=None)
    def test_gain_exponent_sides(self, inst, data, s):
        # Cells from 1e-150 to 1e150 send |s log max|f - c|| past 600 on
        # many boxes at the larger s, so the log-space branch runs too.
        dom, f, w, _, kind, min_scale = inst
        measure = Measure.general(dom, data.draw(_masses(dom.sides)))
        base = self._base(dom, measure, kind, min_scale)
        if base is None:
            return
        want_l, want_r = oracles.per_box_gain_sides(f, w, base, measure, s)
        got_l = oscillation_norm(f, CenteredDiff(), w, 1.0, base, measure,
                                 per_set=True).per_set
        got_r = verify._power_means(f, base, measure, s)
        assert [_bits(x) for x in got_l] == [_bits(x) for x in want_l]
        assert [_bits(x) for x in got_r] == [_bits(x) for x in want_r]

    @pytest.mark.parametrize("sides, kind", [((64,), "all-cubes"),
                                             ((8, 8), "dyadic-rectangles")])
    def test_reciprocal_centre_is_correctly_rounded(self, sides, kind):
        # On a normal field np.mean's pairwise sum and the correctly rounded
        # sum differ on many boxes; the kernel and the direct formula both
        # take the latter, as their per-box loops do.
        rng = np.random.default_rng(11)
        dom = _domain(sides)
        f = rng.normal(size=sides)
        w = Weight(dom, np.exp(rng.normal(0.0, 0.5, sides)))
        mu_w = Measure.density(dom, w.values)
        base_w = build_base(dom, mu_w, kind)
        assert any(float(np.mean(f[sl])) != math.fsum(f[sl].ravel().tolist())
                   / f[sl].size for sl in oracles.member_slices(base_w))
        for p in (1.0, 2.0):
            args = (f, DualHardy(w), Weight.unit(dom), p, base_w, mu_w)
            _same_norm(_outcome(oscillation_norm, *args, per_set=True),
                       _outcome(oracles.per_box_osc_norm, *args, per_set=True))
        assert _bits(verify._reciprocal_direct(f, w, base_w)) \
            == _bits(oracles.per_box_reciprocal_direct(f, w, base_w))

    def test_log_means_per_box(self):
        # np.log and math.log differed in the last bit on these masses on
        # an AVX-512 CPU (numpy's SIMD log); every box's log mean, not only
        # the maximum, must be the per-box loop's.  With the unit weight a
        # single cell's log mean is np.log(m) - math.log(m) itself.
        masses = np.resize([0.9941412033833111, 1.0931419129045312,
                            1.7268617873305903, 0.9023427884773781,
                            0.3839062018996148], 16)
        dom = GridDomain((16,))
        mea = Measure.general(dom, masses)
        for w, kind in itertools.product(
                (Weight.unit(dom), generate_weight(
                    "random-log-bounded", {"bound": 700.0}, 3, dom)),
                ("dyadic-cubes", "all-cubes")):
            logv = np.log(w.values)
            base = build_base(dom, mea, kind)
            set_masses = base.set_masses(mea)
            got = weights._log_means(w, (1.0, -5.0, 2.5), base, mea,
                                     set_masses)
            for e, row in zip((1.0, -5.0, 2.5), got):
                want = [oracles._log_avg_pow(logv, mea.masses, sl, e,
                                             math.log(m))
                        for sl, m in zip(oracles.member_slices(base),
                                         set_masses.tolist())]
                assert [_bits(x) for x in row] == [_bits(x) for x in want]

    def test_gain_exponent_log_branch_runs(self):
        # |f - c| is 0.5 on every box but the cells: 0.5^3000 underflows to
        # 0, so the norm kernel raises, and the log-space branch recovers 0.5.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.raises(OverflowGuard, match="p-th powers underflow"):
            oscillation_norm(f, CenteredDiff(), Weight.unit(dom), 3e3, base,
                             mea, per_set=True)
        got = verify._power_means(f, base, mea, 3e3)
        assert got == pytest.approx([0.5] * 7 + [0.0] * 8, rel=1e-15)
        assert got == oracles.per_box_gain_sides(f, Weight.unit(dom), base,
                                                 mea, 3e3)[1]

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_gain_exponent_log_space_threshold(self, side):
        # s puts |s log L| of the full box just below or just above 600;
        # above it, the plain formula would differ from the log-space one
        # in the last bits, so a moved threshold shows.
        rng = np.random.default_rng(2)
        dom = GridDomain((16,))
        mea = Measure.general(dom, rng.uniform(0.5, 2.0, 16))
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=16) * 1e40
        local = oracles._centered_local(f, base.box(0).slices(), mea)
        s = 600.0 / math.log(float(np.max(local))) * (1.0 + side * 1e-9)
        got = verify._power_means(f, base, mea, s)
        want = oracles.per_box_gain_sides(f, Weight.unit(dom), base, mea, s)
        assert [_bits(x) for x in got] == [_bits(x) for x in want[1]]

    def test_gain_exponent_sum_past_float_range(self):
        # Each (1e77)^4 is 1e308, finite, but two of them are not: the
        # unit-weight norm's fsum raises, while the log-space branch
        # (4 log 1e77 > 600) gives the power mean, 1e77.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.array([0.0, 2e77] * 4)
        with pytest.raises(OverflowError):
            oscillation_norm(f, CenteredDiff(), Weight.unit(dom), 4.0, base,
                             mea, per_set=True)
        got = verify._power_means(f, base, mea, 4.0)
        assert got[:7] == pytest.approx([1e77] * 7, rel=1e-14)
        assert got == oracles.per_box_gain_sides(f, Weight.unit(dom), base,
                                                 mea, 4.0)[1]

    @pytest.mark.parametrize("sides, kind", [
        ((16,), "dyadic-cubes"), ((16,), "all-cubes"),
        ((8, 8), "dyadic-rectangles"), ((4, 8), "all-cubes")])
    @pytest.mark.parametrize("bound", [150.0, 400.0, 700.0])
    def test_log_space_constants(self, sides, kind, bound):
        dom = _domain(sides)
        masses = np.random.default_rng(3).uniform(0.2, 1.5, sides)
        masses.flat[1] = 0.0
        mea = Measure.general(dom, masses)
        base = build_base(dom, mea, kind)
        w = generate_weight("random-log-bounded", {"bound": bound}, 7, dom)
        for name, fn, exps in (("ap", muckenhoupt_constant, (1.2, 2.0, 6.0)),
                               ("rh", reverse_holder_constant, (1.5, 5.0))):
            for e in exps:
                if not weights._needs_log_space(
                        w.values, (1.0, -1.0 / (e - 1.0), e - 1.0)
                        if name == "ap" else (1.0, e), mea.masses):
                    continue
                log_best, arg = oracles.per_box_log_constant(w, e, base, mea,
                                                             name)
                got = _outcome(fn, w, e, base, mea)
                try:
                    want = math.exp(log_best)
                except OverflowError:
                    assert got[:2] == ("raised", OverflowGuard)
                    assert "left the representable range" in got[2]
                    continue
                assert _bits(got[1]) == _bits(want)
                key = (name, e, base.base_id, mea.digest, base.key)
                assert w.record(key).argmax == arg
