"""Oscillation norms, the exponential moment, selections, and sequences."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (CenteredDiff, DualHardy, GridDomain, Measure, TLSeq,
                      TLSequence, Weight, build_base, cz_selection,
                      doubling_constant, jn_exp_moment, lp_norm, maximal,
                      oscillation_norm, reverse_holder_constant,
                      sharp_oscillation, tl_equivalence_probe,
                      weighted_median)
from oscillab.errors import (BadParams, DegenerateInput, EmptySequence,
                             ExponentOutOfRange, IncompatibleSpec,
                             OverflowGuard, ZeroMass)
from oscillab import oscillation, verify
from oscillab.lattice import BaseSet
from oscillab.oscillation import MedianDiff

import oracles


class TestOscillationNorm:
    def test_constant_field_has_zero_norm(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        r = oscillation_norm(np.full(8, 3.7), CenteredDiff(), w, 2.0, base, mea)
        assert r.value == 0.0

    def test_spike_landmark(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        f = np.zeros(8)
        f[0] = 1.0
        r = oscillation_norm(f, CenteredDiff(), w, 1.0, base, mea)
        assert r.value == pytest.approx(0.5, abs=1e-12)
        assert (tuple(r.extremal_set.lo), tuple(r.extremal_set.hi)) == ((0,), (2,))

    @given(st.integers(0, 10_000), st.floats(1.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, p):
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=16)
        w = Weight(dom, np.exp(rng.uniform(-1.5, 1.5, size=16)), {"kind": "t"})
        got = oscillation_norm(f, CenteredDiff(), w, p, base, mea).value
        want = oracles.brute_osc_norm(f, w.values, mea.masses,
                                      oracles.brute_dyadic_cubes((16,)), p)
        assert got == pytest.approx(want, rel=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_centering_measure_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=8)
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=8)), {"kind": "t"})
        v = Weight(dom, np.exp(rng.uniform(-1, 1, size=8)), {"kind": "t"})
        got = oscillation_norm(f, CenteredDiff(v), w, 2.0, base, mea).value
        want = oracles.brute_osc_norm(f, w.values, mea.masses,
                                      oracles.brute_dyadic_cubes((8,)), 2.0,
                                      v=v.values)
        assert got == pytest.approx(want, rel=1e-10)

    @given(st.integers(0, 10_000), st.floats(1.0, 3.0), st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_exponent_monotone(self, seed, p, bump):
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=16)
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=16)), {"kind": "t"})
        lo = oscillation_norm(f, CenteredDiff(), w, p, base, mea).value
        hi = oscillation_norm(f, CenteredDiff(), w, p + bump, base, mea).value
        assert lo <= hi * (1 + 1e-10)

    def test_weight_scale_invariance(self, line8):
        dom, mea, base = line8
        rng = np.random.default_rng(7)
        f = rng.normal(size=8)
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=8)), {"kind": "t"})
        w2 = Weight(dom, 17.0 * w.values, {"kind": "t"})
        a = oscillation_norm(f, CenteredDiff(), w, 2.0, base, mea).value
        b = oscillation_norm(f, CenteredDiff(), w2, 2.0, base, mea).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_per_set_table(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        f = np.arange(8.0)
        r = oscillation_norm(f, CenteredDiff(), w, 2.0, base, mea, per_set=True)
        assert len(r.per_set) == 15
        assert all(type(v) is float for v in r.per_set)
        best = max(r.per_set)
        assert best == pytest.approx(r.value, rel=1e-12)
        assert base.box(r.per_set.index(best)) == r.extremal_set


def _field_entries():
    """Every public entry that takes a cell field, as a call of the field
    alone on the 8-cell line with its dyadic cubes.  The norms run on the
    density measure of a weight w, as ``DualHardy(w)`` needs."""
    dom = GridDomain((8,))
    w, unit = Weight(dom, np.linspace(1.0, 2.0, 8)), Weight.unit(dom)
    mea, dens = Measure.uniform(dom), Measure.density(dom, w.values)
    base, base_w = (build_base(dom, m, "dyadic-cubes") for m in (mea, dens))

    def norm(spec):
        return lambda f: oscillation_norm(f, spec, unit, 2.0, base_w, dens)

    return {
        "norm-centered": norm(CenteredDiff()),
        "norm-reweighted": norm(CenteredDiff(w)),
        "norm-reciprocal": norm(DualHardy(w)),
        "norm-median": norm(MedianDiff()),
        "sharp_oscillation": lambda f: sharp_oscillation(f, base, mea),
        "jn_exp_moment": lambda f: jn_exp_moment(f, base, unit, mea),
        "cz_selection": lambda f: cz_selection(f, dom.full_box(), unit, 1.0,
                                               base, mea),
        "lp_norm": lambda f: lp_norm(f, 2.0, mea),
        "maximal": lambda f: maximal(f, base, mea),
    }


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "shape"])
@pytest.mark.parametrize("entry", sorted(_field_entries()))
def test_every_field_entry_rejects_a_bad_field(entry, bad):
    # A non-finite cell was once dropped with every box that holds it (the
    # norms read 1.0 on 4:8 for 2.0 on 0:8), and a 16-cell field was read
    # on the 8-cell line; each is now BadParams from the one field check.
    call = _field_entries()[entry]
    call(np.arange(8.0))  # the entry accepts a good field
    f = np.arange(16.0) if bad == "shape" else np.arange(8.0)
    if bad != "shape":
        f[3] = float(bad)
    with pytest.raises(BadParams, match="^field (values|shape)"):
        call(f)


def _overflowing_products():
    """Calls on the 4-cell line with dyadic cubes whose cell products
    w * m or f * m pass the float range, every cell itself finite."""
    dom = GridDomain((4,))
    huge = np.array([1e200, 1.0, 1.0, 1.0])
    mea, w = Measure.general(dom, huge), Weight(dom, huge)
    base = build_base(dom, mea, "dyadic-cubes")
    f = np.array([0.0, 1.0, 5.0, 0.0])
    mea4 = Measure.general(dom, np.full(4, 4.0))
    base4, unit = build_base(dom, mea4, "dyadic-cubes"), Weight.unit(dom)
    g = np.array([1e308, -1e308, 1.0, 2.0])
    return {
        "norm-wm": lambda: oscillation_norm(f, CenteredDiff(), w, 1.0, base,
                                            mea, per_set=True),
        "doubling-wm": lambda: doubling_constant(w, mea),
        "jn_exp_moment-wm": lambda: jn_exp_moment(f, base, w, mea),
        "cz_selection-wm": lambda: cz_selection(f, dom.full_box(), w, 1.0,
                                                base, mea),
        "norm-fm": lambda: oscillation_norm(g, CenteredDiff(), unit, 1.0,
                                            base4, mea4),
        "jn_exp_moment-fm": lambda: jn_exp_moment(g, base4, unit, mea4),
        "cz_selection-fm": lambda: cz_selection(g, dom.full_box(), unit, 1.0,
                                                base4, mea4),
        "lp_norm-fm": lambda: lp_norm(huge, 1.0, mea),
        "maximal-fm": lambda: maximal(huge, base, mea),
        "power_means-fm": lambda: verify._power_means(huge, base, mea, 2.0),
        "reverse_holder-wm": lambda: reverse_holder_constant(
            Weight(dom, np.array([1e120, 1.0, 1.0, 1.0])), 2.0, base, mea),
    }


@pytest.mark.parametrize("entry", sorted(_overflowing_products()))
def test_overflowing_cell_product_raises(entry):
    # An inf product once made the boxes that hold it NaN and dropped them
    # (the norm read 2.5 on 2:4, the doubling constant 1.0), gave lp_norm
    # and the maximal inf, the power means nan, or raised a raw ValueError
    # from fsum, each after numpy's overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if entry == "reverse_holder-wm":
            # w**2 m passes the float range, and so does the masses' log
            # range: the constant is taken in log space.  Plain space once
            # dropped the boxes with an inf mean and read 1.0.
            got = _overflowing_products()[entry]()
            dom = GridDomain((4,))
            mea = Measure.general(dom, np.array([1e200, 1.0, 1.0, 1.0]))
            w = Weight(dom, np.array([1e120, 1.0, 1.0, 1.0]))
            base = build_base(dom, mea, "dyadic-cubes")
            log_best, _ = oracles.per_box_log_constant(w, 2.0, base, mea, "rh")
            want, _ = oracles.fraction_constant(w, 2.0, base, mea, "rh")
            assert got == math.exp(log_best) == pytest.approx(want, rel=1e-12)
            return
        with pytest.raises(OverflowGuard, match="float range.*rescale"):
            _overflowing_products()[entry]()


def _underflowing_w_m():
    """Calls on the 4-cell dyadic line with masses [1e-300, 1e-300, 1, 1]
    and w = [1e-50, 1e-30, 1, 1]: w m of cells 0 and 1, each with mass,
    rounds to 0."""
    dom = GridDomain((4,))
    mea = Measure.general(dom, np.array([1e-300, 1e-300, 1.0, 1.0]))
    w = Weight(dom, np.array([1e-50, 1e-30, 1.0, 1.0]))
    base = build_base(dom, mea, "dyadic-cubes")
    f = np.array([0.0, 1.0, 5.0, 0.0])
    return {
        "norm": lambda: oscillation_norm(f, CenteredDiff(), w, 1.0, base, mea),
        "norm-per_set": lambda: oscillation_norm(f, CenteredDiff(), w, 1.0,
                                                 base, mea, per_set=True),
        "norm-reweighted": lambda: oscillation_norm(
            f, CenteredDiff(w), Weight.unit(dom), 1.0, base, mea),
        "doubling": lambda: doubling_constant(w, mea),
        "jn_exp_moment": lambda: jn_exp_moment(f, base, w, mea),
        "cz_selection": lambda: cz_selection(f, dom.full_box(), w, 1.0, base,
                                             mea),
    }


@pytest.mark.parametrize("entry", sorted(_underflowing_w_m()))
def test_underflowing_w_m_raises(entry):
    # The norm raised ZeroMass("no weighted mass on 0:2") where the doubling
    # constant raised OverflowGuard; every w m (and m v) site now runs the
    # one check of ``lattice.cell_product``.
    with pytest.raises(OverflowGuard, match="float range.*rescale"):
        _underflowing_w_m()[entry]()


class TestSharpOscillation:
    def test_second_call_is_a_memo_hit(self, line8):
        dom, mea, base = line8
        f = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
        first = sharp_oscillation(f, base, mea)
        hits = base._norms.hits
        assert sharp_oscillation(f.copy(), base, mea) == first
        assert base._norms.hits == hits + 1
        assert first.weight_id == "median"

    def test_massless_box_names_itself(self, line8):
        # The family was built on the uniform measure; 4:6 has no mass in
        # this one, and 4:8 comes before it but keeps mass.
        dom, _, base = line8
        mea = Measure.general(dom, np.array([1.0] * 4 + [0.0] * 2 + [1.0] * 2))
        with pytest.raises(ZeroMass, match="^no weighted mass on 4:6$"):
            sharp_oscillation(np.arange(8.0), base, mea)

    def test_spike_landmark(self, line8):
        dom, mea, base = line8
        f = np.zeros(8)
        f[0] = 1.0
        r = sharp_oscillation(f, base, mea)
        assert r.value == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dom = GridDomain((8,))
        mea = Measure.density(dom, np.exp(rng.uniform(-1, 1, size=8)))
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=8)
        got = sharp_oscillation(f, base, mea).value
        want = oracles.brute_sharp(f, mea.masses, oracles.brute_dyadic_cubes((8,)))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_median_centering_never_beats_it(self, seed):
        # the weighted median minimizes average absolute deviation, so the
        # sharp value sits at or below the mean-centered exponent-1 norm
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=16)
        w = Weight.unit(dom)
        sharp = sharp_oscillation(f, base, mea).value
        centered = oscillation_norm(f, CenteredDiff(), w, 1.0, base, mea).value
        assert sharp <= centered * (1 + 1e-10)


class TestWeightedMedian:
    def test_landmark(self):
        assert weighted_median(np.array([1.0, 2.0, 3.0]),
                               np.array([1.0, 1.0, 2.0])) == 2.0

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0.01, 5.0)),
                    min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_and_minimizes_l1(self, pairs):
        vals = np.array([a for a, _ in pairs])
        ms = np.array([b for _, b in pairs])
        med = weighted_median(vals, ms)
        assert med == oracles.fraction_weighted_median(vals, ms)
        cost = float(np.sum(np.abs(vals - med) * ms))
        for candidate in vals:
            other = float(np.sum(np.abs(vals - candidate) * ms))
            assert cost <= other * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("vals, ms, want, float_pick", [
        ([4.0, 8.0, 0.0], [0.2, 0.1, 0.3], 4.0, 0.0),
        ([2.0, 6.0, 0.0], [0.5, 0.8, 0.3], 6.0, 2.0),
        ([9.0, 9.0, 5.0, 2.0], [0.6, 0.2, 0.1, 0.7], 9.0, 5.0)])
    def test_one_decimal_masses_exact(self, vals, ms, want, float_pick):
        # In binary, 0.3 lies below half of 0.3 + 0.2 + 0.1, but the float
        # total rounds to 0.6 and a float running sum stops at 0.3.
        vals, ms = np.array(vals), np.array(ms)
        assert oracles.float_running_median(vals, ms) == float_pick
        assert oracles.fraction_weighted_median(vals, ms) == want
        assert weighted_median(vals, ms) == want

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 9)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_one_decimal_masses_match_fractions(self, pairs):
        vals = np.array([float(a) for a, _ in pairs])
        ms = np.array([b / 10.0 for _, b in pairs])
        assert weighted_median(vals, ms) \
            == oracles.fraction_weighted_median(vals, ms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(BadParams, match="median masses must be finite"):
            weighted_median(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_non_finite_value_rejected(self):
        # A NaN value once sorted last and the median read 3.0.
        with pytest.raises(BadParams, match="field values must be finite"):
            weighted_median(np.array([1.0, math.nan, 3.0]), np.ones(3))

    def test_one_value_per_mass(self):
        with pytest.raises(BadParams, match="field shape"):
            weighted_median(np.array([1.0, 2.0, 3.0]), np.ones(2))

    @pytest.mark.parametrize("masses", ["ties", "object-ints"])
    @pytest.mark.parametrize("sides, gather", [((16,), 40), ((8, 8), 1 << 14)])
    def test_kernel_rows_match_per_box(self, monkeypatch, masses, sides,
                                       gather):
        # ``MedianDiff`` takes every member's median in one segmented sort
        # per chunk of the layout; gather 40 cuts the family into chunks.
        # Ties: three values on equal masses, so many medians sit where the
        # running sum is exactly half.  Object ints: masses 2**-500 to
        # 2**500 overflow int64, so the running sums are Python ints.
        monkeypatch.setattr("oscillab.lattice._GATHER_CELLS", gather)
        rng = np.random.default_rng(12)
        dom = GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)
        f = rng.integers(0, 3, sides).astype(float)
        m = np.ones(sides) if masses == "ties" \
            else 2.0 ** rng.integers(-500, 501, sides)
        mea = Measure.general(dom, m)
        base = build_base(dom, mea, "all-cubes")
        rep = oscillation_norm(f, MedianDiff(), Weight.unit(dom), 1.0, base,
                               mea, per_set=True)
        for i, got in enumerate(rep.per_set):
            sl = base.box(i).slices()
            med = weighted_median(f[sl], m[sl])
            assert med == oracles.fraction_weighted_median(f[sl], m[sl])
            assert got == math.fsum((np.abs(f[sl] - med) * m[sl]).ravel()
                                    .tolist()) / math.fsum(m[sl].ravel()
                                                           .tolist())


class TestDualHardy:
    def test_requires_matching_measure(self, line8):
        dom, mea, base = line8
        rng = np.random.default_rng(1)
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=8)), {"kind": "t"})
        with pytest.raises(IncompatibleSpec):
            oscillation_norm(rng.normal(size=8), DualHardy(w), w, 2.0, base, mea)

    def test_plain_mean_past_the_float_range_raises(self):
        # Every cell is finite, but each box of two or more sums past the
        # float range, so its plain mean, the rule's centre, is inf.
        dom = GridDomain((8,))
        w = Weight(dom, np.linspace(1.0, 2.0, 8), {"kind": "t"})
        mea = Measure.density(dom, w.values)
        base = build_base(dom, mea, "dyadic-cubes")
        with pytest.raises(OverflowGuard, match="plain cell mean"):
            oscillation_norm(np.full(8, 1e308), DualHardy(w), Weight.unit(dom),
                             1.0, base, mea)
        # At 2e307 every sum is finite, and the field is constant.
        assert oscillation_norm(np.full(8, 2e307), DualHardy(w),
                                Weight.unit(dom), 1.0, base, mea).value == 0.0

    def test_weighted_local_field(self):
        dom = GridDomain((8,))
        rng = np.random.default_rng(2)
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=8)), {"kind": "t"})
        mea = Measure.density(dom, w.values)
        base = build_base(dom, mea, "dyadic-cubes")
        f = rng.normal(size=8)
        got = oscillation_norm(f, DualHardy(w), w, 2.0, base, mea).value

        # direct route: |f - plain mean| / w, aggregated with w * m
        best = 0.0
        for box in oracles.brute_dyadic_cubes((8,)):
            lo, hi = box[0][0], box[1][0]
            c = float(np.mean(f[lo:hi]))
            local = np.abs(f[lo:hi] - c) / w.values[lo:hi]
            wm = w.values[lo:hi] * mea.masses[lo:hi]
            val = float(np.sum(local ** 2 * wm) / np.sum(wm)) ** 0.5
            best = max(best, val)
        assert got == pytest.approx(best, rel=1e-10)


class TestJNExpMoment:
    def test_constant_field_is_degenerate(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        with pytest.raises(DegenerateInput):
            jn_exp_moment(np.ones(8), base, w, mea)

    def test_default_threshold_uses_doubling(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        rng = np.random.default_rng(4)
        f = rng.normal(size=8)
        rep = jn_exp_moment(f, base, w, mea)
        assert rep.eta == pytest.approx(2.0 * math.exp(rep.dw ** 2))
        assert rep.dw == pytest.approx(2.0)

    def test_moment_capped_on_mild_instances(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.normal(size=8)
            rep = jn_exp_moment(f, base, w, mea)
            assert rep.t_value <= 2.0 * math.e

    def test_truncation_inactive_is_stable(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        rng = np.random.default_rng(6)
        f = rng.normal(size=8)
        a = jn_exp_moment(f, base, w, mea, big_n=64.0)
        b = jn_exp_moment(f, base, w, mea, big_n=128.0)
        assert a.t_value == pytest.approx(b.t_value, rel=1e-12)

    def test_bad_params_rejected(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        f = np.arange(8.0)
        with pytest.raises(BadParams):
            jn_exp_moment(f, base, w, mea, big_n=-1.0)
        with pytest.raises(BadParams):
            jn_exp_moment(f, base, w, mea, eta=0.0)

    @pytest.mark.parametrize("name, value, message", [
        pytest.param("big_n", math.nan, "must be positive, got nan",
                     id="big_n"),
        pytest.param("eta", math.nan, r"must lie in \(0, inf\), got nan",
                     id="eta"),
        pytest.param("eta", math.inf, r"must lie in \(0, inf\), got inf",
                     id="eta-inf")])
    def test_nan_params_rejected(self, line8, name, value, message):
        # A NaN level or scale once left every box out of the maximum, and
        # building the extremal set raised TypeError; an infinite scale made
        # every term exp(0), so the moment read 1.0 whatever the field.
        dom, mea, base = line8
        with pytest.raises(BadParams, match=message):
            jn_exp_moment(np.arange(8.0), base, Weight.unit(dom), mea,
                          **{name: value})

    def test_default_scale_past_the_float_range(self):
        # One light cell gives the doubling constant D = 1001, and the
        # default eta = 2 e^(D^2) is past the float range: it raised a bare
        # OverflowError ("math range error").  An explicit eta still runs.
        dom = GridDomain((8,))
        mea = Measure.general(dom, np.array([1.0, 1e-3, 1, 1, 1, 1, 1, 1]))
        base, w, f = build_base(dom, mea, "dyadic-cubes"), Weight.unit(dom), \
            np.arange(8.0)
        with pytest.raises(OverflowGuard, match=r"D = 1000\.99.*explicit eta"):
            jn_exp_moment(f, base, w, mea)
        assert math.isfinite(jn_exp_moment(f, base, w, mea, eta=10.0).t_value)

    def test_infinite_truncation_level_runs(self, line8):
        # big_n = inf means no truncation: the same moment as any level
        # above every normalised oscillation.
        dom, mea, base = line8
        f, w = np.arange(8.0), Weight.unit(dom)
        got = jn_exp_moment(f, base, w, mea, big_n=math.inf)
        assert got.big_n == math.inf
        assert got.t_value == jn_exp_moment(f, base, w, mea,
                                            big_n=1e6).t_value

    def test_survival_fit_reported(self, line8):
        dom, mea, base = line8
        w = Weight.unit(dom)
        rng = np.random.default_rng(8)
        f = rng.normal(size=8)
        rep = jn_exp_moment(f, base, w, mea)
        assert rep.c1_hat > 0
        # the fitted tail slope can sit at zero on a tiny flat instance,
        # but it must always come back finite
        assert math.isfinite(rep.c2_hat)
        assert rep.bmo_norm > 0


class TestCZSelection:
    def test_unit_weight_selection(self, square4):
        dom, mea, base = square4
        w = Weight.unit(dom)
        f = np.zeros((4, 4))
        f[0, 0] = 8.0
        root = dom.full_box()
        sel = cz_selection(f, root, w, 1.0, base, mea)
        got_cells = []
        for box in sel.selected:
            got_cells.extend(oracles.box_cells((tuple(box.lo), tuple(box.hi))))
        # disjointness: no cell appears twice
        assert len(got_cells) == len(set(got_cells))
        assert sel.mass_selected <= sel.mass_root
        assert sel.outside_max <= 1.0 + 1e-12

    @given(st.integers(0, 10_000), st.floats(0.3, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_stopping_time_bounds(self, seed, lam_scale):
        rng = np.random.default_rng(seed)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight(dom, np.exp(rng.uniform(-1, 1, size=16)), {"kind": "t"})
        f = rng.normal(size=16)
        root = dom.full_box()
        lam = lam_scale * float(np.mean(np.abs(f - np.mean(f)))) + 0.05
        sel = cz_selection(f, root, w, lam, base, mea)
        # selected boxes are pairwise disjoint
        cells = []
        for box in sel.selected:
            cells.extend(oracles.box_cells((tuple(box.lo), tuple(box.hi))))
        assert len(cells) == len(set(cells))
        # each selected average exceeds the threshold but respects the
        # one-step doubling cap relative to the parent that let it through
        cap = sel.dw ** sel.d_max * max(lam, sel.avg_root) * (1 + 1e-10)
        assert sel.realized_max_over_lam * lam <= cap
        # cells never captured stay at or below the threshold
        assert sel.outside_max <= lam * (1 + 1e-10)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_threshold_rejected(self, square4, lam):
        # A NaN threshold once selected nothing and reported a NaN ratio.
        dom, mea, base = square4
        with pytest.raises(BadParams, match="positive and finite"):
            cz_selection(np.arange(16.0).reshape(4, 4), dom.full_box(),
                         Weight.unit(dom), lam, base, mea)

    @pytest.mark.parametrize("root", [BaseSet((0,), (4,)),
                                      BaseSet((0, 2), (4, 6))])
    def test_root_outside_domain_rejected(self, square4, root):
        dom, mea, base = square4
        with pytest.raises(BadParams, match="not a box of the domain"):
            cz_selection(np.zeros((4, 4)), root, Weight.unit(dom), 1.0,
                         base, mea)

    @pytest.mark.parametrize("sides, root", [
        ((8,), BaseSet((1,), (4,))), ((8,), BaseSet((2,), (6,))),
        ((4, 4), BaseSet((0, 0), (3, 4)))])
    def test_root_off_the_dyadic_lattice_rejected(self, monkeypatch, sides,
                                                  root):
        # A root is the full domain or a box of its per-axis dyadic lattice;
        # any other is refused by name before any sum.
        dom = GridDomain(sides)
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight.unit(dom)

        def no_sum(*args):
            raise AssertionError("summed before the root check")

        for name in ("fsum", "cell_product", "dyadic_grids"):
            monkeypatch.setattr(oscillation, name, no_sum)
        with pytest.raises(BadParams, match=f"the root {root.label()} is not "
                                            "a box of the domain's dyadic"):
            cz_selection(np.zeros(sides), root, w, 1.0, base, mea)

    @pytest.mark.parametrize("sides, root", [
        ((4, 4), BaseSet((0, 2), (4, 4))), ((4, 4), BaseSet((2, 0), (3, 2))),
        ((8, 8), BaseSet((0, 4), (8, 8))), ((8, 8), BaseSet((4, 0), (5, 8)))])
    def test_lattice_roots_outside_the_family_match_the_recursion(self, sides,
                                                                  root):
        # Lattice boxes of other shapes than the family's cubes are roots too.
        dom = GridDomain(sides)
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        rng = np.random.default_rng(len(sides))
        f = rng.normal(size=sides)
        w = Weight(dom, rng.uniform(0.5, 2.0, sides))
        args = (f, root, w, 0.3, base, mea)
        assert cz_selection(*args) == oracles.recursive_cz_selection(*args)


class TestTLSequences:
    def _fixture(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        w = Weight.unit(dom)
        return dom, mea, base, w

    def test_single_coefficient_exact_value(self):
        dom, mea, base, w = self._fixture()
        seq = TLSequence(dom, {BaseSet((0,), (2,)): 0.25})
        val = oscillation_norm(seq, TLSeq(alpha=0.5, q=2.0), w, 1.0, base, mea)
        assert val.value == 1.0

    def test_probe_ratio_positive_and_finite(self):
        dom, mea, base, w = self._fixture()
        rng = np.random.default_rng(3)
        coeffs = {}
        for box in list(base.sets)[:6]:
            coeffs[box] = float(rng.normal())
        seq = TLSequence(dom, coeffs)
        probe = tl_equivalence_probe(seq, 0.4, 2.0, 3.0, w, base, mea)
        assert probe.ratio > 0
        assert math.isfinite(probe.ratio)
        assert probe.unweighted_nu > 0
        assert probe.weighted_nu > 0

    @pytest.mark.parametrize("sides, lo, hi", [
        ((8,), (1,), (3,)),          # side 2 at an odd corner
        ((8,), (0,), (3,)),          # side 3
        ((8,), (8,), (16,)),         # outside the domain
        ((4, 4), (0, 0), (2, 4)),    # a rectangle, not a cube
        ((4, 4), (0,), (2,)),        # a 1-d key on a 2-d grid
    ], ids=["misaligned", "not-pow2", "outside", "rectangle", "rank"])
    def test_non_dyadic_key_rejected(self, sides, lo, hi):
        dom = GridDomain(sides)
        with pytest.raises(BadParams, match="is not a dyadic cube"):
            TLSequence(dom, {BaseSet((0,) * len(sides), sides): 1.0,
                             BaseSet(lo, hi): 0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_coefficient_rejected(self, bad):
        # A NaN coefficient used to drop its boxes from the maximum (the
        # norm read 64.0 on 4:5), and an inf one made the norm inf.
        dom = GridDomain((8,))
        with pytest.raises(BadParams, match="is not finite"):
            TLSequence(dom, {BaseSet((0,), (2,)): bad,
                             BaseSet((4,), (5,)): 1.0})

    @pytest.mark.parametrize("alpha, q", [
        (math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0),
        (0.5, math.nan), (0.5, math.inf), (0.5, 0.0)])
    def test_non_finite_rule_rejected(self, alpha, q):
        # alpha = NaN once gave a norm of 0.0, and q = inf an inf norm.
        with pytest.raises(BadParams, match="must be"):
            TLSeq(alpha=alpha, q=q)

    def test_sequence_on_another_grid_rejected(self):
        dom, mea, base, w = self._fixture()
        seq = TLSequence(GridDomain((16,)), {BaseSet((8,), (16,)): 1.0})
        with pytest.raises(IncompatibleSpec, match="another domain"):
            oscillation_norm(seq, TLSeq(alpha=0.5, q=2.0), w, 1.0, base, mea)

    def test_empty_sequence_rejected(self):
        dom, mea, base, w = self._fixture()
        with pytest.raises(EmptySequence):
            tl_equivalence_probe(TLSequence(dom, {}), 0.4, 2.0, 3.0, w, base, mea)

    def test_underflowing_norms_rejected(self):
        # 1e-200 squared underflows: both norms read 0, and their ratio
        # was inf.
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        seq = TLSequence(dom, {dom.full_box(): 1e-200})
        with pytest.raises(OverflowGuard, match="sequence norm is 0"):
            tl_equivalence_probe(seq, 0.5, 2.0, 3.0, Weight.unit(dom), base,
                                 mea)

    def test_bad_exponent_rejected(self):
        dom, mea, base, w = self._fixture()
        seq = TLSequence(dom, {BaseSet((0,), (2,)): 1.0})
        with pytest.raises(ExponentOutOfRange):
            tl_equivalence_probe(seq, 0.4, 2.0, -1.0, w, base, mea)
        with pytest.raises(ExponentOutOfRange):
            tl_equivalence_probe(seq, 0.4, 0.0, 2.0, w, base, mea)

    @given(st.integers(0, 10_000), st.floats(1.0, 2.5), st.floats(1.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_outer_exponent_monotone(self, seed, r, bump):
        # same weight on both sides: raising the outer exponent can only
        # raise the max of in-set power means
        dom, mea, base, w = self._fixture()
        rng = np.random.default_rng(seed)
        coeffs = {box: float(rng.normal())
                  for box in list(base.sets)[:5] if rng.uniform() < 0.9}
        if not coeffs:
            coeffs = {BaseSet((0,), (2,)): 1.0}
        seq = TLSequence(dom, coeffs)
        spec = TLSeq(alpha=0.5, q=2.0)
        lo = oscillation_norm(seq, spec, w, r, base, mea).value
        hi = oscillation_norm(seq, spec, w, r + bump, base, mea).value
        assert lo <= hi * (1 + 1e-10)
