"""The per-instance caches: family box sums and norm reports, the weight's
constant records and doubling constants.

A memoised result must equal the one a freshly built family and weight
give, bit for bit; keys are content, so rewriting an array in place gives a
fresh result; every cache stays within its entry bound; and an error is
raised again on every repeat, never cached.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (CenteredDiff, DualHardy, GridDomain, Measure, TLSeq,
                      TLSequence, Weight, build_base, doubling_constant, jn_exp_moment,
                      generate_weight, muckenhoupt_constant,
                      oscillation_norm, reverse_holder_constant, write_weight)
from oscillab import lattice, oscillation
from oscillab.cli import main
from oscillab.errors import IncompatibleSpec, OverflowGuard, ZeroMass
from oscillab.lattice import NORM_ENTRIES, SUMS_ENTRIES, BoundedCache
from oscillab.oscillation import MedianDiff
from oscillab.weights import DOUBLING_ENTRIES

GRIDS = ((8,), (16,), (4, 4), (8, 8))
KINDS = ("dyadic-cubes", "all-cubes", "dyadic-rectangles")


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _domain(sides) -> GridDomain:
    return GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)


def _report_bits(rep):
    rows = None if rep.per_set is None else [_bits(v) for v in rep.per_set]
    return _bits(rep.value), rep.extremal_set, rep.weight_id, rows


@st.composite
def _instance(draw):
    sides = draw(st.sampled_from(GRIDS))
    kind = draw(st.sampled_from(KINDS))
    if kind == "dyadic-rectangles" and len(sides) == 1:
        kind = "dyadic-cubes"
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return (sides, kind, rng.normal(size=sides),
            np.exp(rng.uniform(-1.5, 1.5, sides)),
            np.exp(rng.uniform(-1.0, 1.0, sides)),
            np.exp(rng.uniform(-0.5, 0.5, sides)))


def _fresh(sides, kind, masses):
    dom = _domain(sides)
    measure = Measure.density(dom, masses)
    return dom, measure, build_base(dom, measure, kind)


class TestFamilyKey:
    def test_base_id_collision_does_not_share_constants(self):
        # Both families drop different zero-mass boxes yet keep 33 each, so
        # they share a base_id; their A_2 constants differ.
        dom = GridDomain((8,))
        mass_a, mass_b = np.ones(8), np.ones(8)
        mass_a[:2] = 0.0
        mass_b[6:] = 0.0
        fam_a = build_base(dom, Measure.general(dom, mass_a), "all-cubes")
        fam_b = build_base(dom, Measure.general(dom, mass_b), "all-cubes")
        assert len(fam_a) == len(fam_b) == 33
        assert fam_a.base_id == fam_b.base_id
        assert fam_a.key != fam_b.key
        uniform = Measure.uniform(dom)
        w = Weight(dom, np.array([100.0] + [1.0] * 7))
        muckenhoupt_constant(w, 2.0, fam_a, uniform)
        assert muckenhoupt_constant(w, 2.0, fam_b, uniform) == 25.5025
        fresh = Weight(dom, w.values)
        assert muckenhoupt_constant(fresh, 2.0, fam_b, uniform) == 25.5025
        # One constants_cache entry per family, though they share a base_id.
        labels = list(w.cached_constants())
        assert len(labels) == 2
        assert {label.rsplit("|", 1)[1] for label in labels} \
            == {fam_a.key[:8], fam_b.key[:8]}

    def test_key_is_content(self, line8):
        dom, mea, base = line8
        again = build_base(dom, mea, "dyadic-cubes")
        assert again.key == base.key
        assert build_base(dom, mea, "all-cubes").key != base.key

    def test_constants_cache_prints_base_id(self, alternating8):
        dom, mea, base, w = alternating8
        value = muckenhoupt_constant(w, 2.0, base, mea)
        label = f"ap|2.0|{base.base_id}|{mea.digest}|{base.key[:8]}"
        assert w.cached_constants() == {
            label: {"value": value,
                    "argmax": w.record(("ap", 2.0, base.base_id, mea.digest,
                                        base.key)).argmax.label()}}
        doubling_constant(w, mea)
        assert list(w.cached_constants()) == [label]


class TestMemoisedEqualsFresh:
    @given(_instance(), st.sampled_from([0.5, 1.0, 2.0, 3.7]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_oscillation_norm(self, inst, p, per_set):
        sides, kind, f, wv, vv, masses = inst
        dom, measure, base = _fresh(sides, kind, masses)
        w, v = Weight(dom, wv), Weight(dom, vv)
        dens = Measure.density(dom, wv)
        base_w = build_base(dom, dens, kind)
        unit = Weight.unit(dom)
        calls = [(CenteredDiff(), w, base, measure),
                 (CenteredDiff(v), w, base, measure),
                 (CenteredDiff(v), unit, base, measure),
                 (DualHardy(w), unit, base_w, dens)]
        # Warm every cache, including other exponents on the same arrays.
        for spec, weight, fam, mea in calls:
            oscillation_norm(f, spec, weight, p + 1.0, fam, mea)
            oscillation_norm(f, spec, weight, p, fam, mea, per_set=per_set)
        for spec, weight, fam, mea in calls:
            got = oscillation_norm(f.copy(), spec, weight, p, fam, mea,
                                   per_set=per_set)
            _, mea2, fam2 = _fresh(sides, kind, mea.masses)
            spec2 = (DualHardy(Weight(dom, wv)) if isinstance(spec, DualHardy)
                     else CenteredDiff(None if spec.v is None
                                       else Weight(dom, vv)))
            want = oscillation_norm(f, spec2, Weight(dom, weight.values), p,
                                    fam2, mea2, per_set=per_set)
            assert _report_bits(got) == _report_bits(want)
        assert base._norms.hits >= 3

    @given(_instance(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 1.0, 2.0, 3.7]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_sequence_norm(self, inst, seed, p, per_set):
        sides, _, _, wv, _, masses = inst
        dom, measure, base = _fresh(sides, "dyadic-cubes", masses)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(base), size=min(6, len(base)), replace=False)
        coeffs = {base.box(int(i)): float(rng.normal()) for i in picks}
        seq = TLSequence(dom, coeffs)
        spec = TLSeq(alpha=0.4, q=1.5)
        w = Weight(dom, wv)

        def fresh_norm():
            _, mea2, fam2 = _fresh(sides, "dyadic-cubes", masses)
            return oscillation_norm(TLSequence(dom, dict(coeffs)),
                                    TLSeq(alpha=0.4, q=1.5), Weight(dom, wv),
                                    p, fam2, mea2, per_set=per_set)

        # Warm the memo, including another exponent on the same sequence.
        oscillation_norm(seq, spec, w, p + 1.0, base, measure)
        first = oscillation_norm(seq, spec, w, p, base, measure,
                                 per_set=per_set)
        again = oscillation_norm(seq, spec, w, p, base, measure,
                                 per_set=per_set)
        assert base._norms.hits >= 1
        assert _report_bits(again) == _report_bits(first) \
            == _report_bits(fresh_norm())
        # Rewriting the coefficient dict in place gives a fresh result.
        top = first.extremal_set
        coeffs[top] = 10.0 * (abs(coeffs.get(top, 0.0)) + 1.0)
        rewritten = oscillation_norm(seq, spec, w, p, base, measure,
                                     per_set=per_set)
        assert rewritten.value != first.value
        assert _report_bits(rewritten) == _report_bits(fresh_norm())

    @given(_instance(), st.floats(1.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_ap_and_rh_constants(self, inst, p):
        sides, kind, _, wv, _, masses = inst
        dom, measure, base = _fresh(sides, kind, masses)
        w = Weight(dom, wv)
        for q in (p + 0.5, p):
            got_ap = muckenhoupt_constant(w, q, base, measure)
            got_rh = reverse_holder_constant(w, q, base, measure)
        assert muckenhoupt_constant(w, p, base, measure) == got_ap
        _, mea2, fam2 = _fresh(sides, kind, masses)
        w2 = Weight(dom, wv)
        assert _bits(got_ap) == _bits(muckenhoupt_constant(w2, p, fam2, mea2))
        assert _bits(got_rh) == _bits(reverse_holder_constant(w2, p, fam2,
                                                              mea2))

    @given(_instance())
    @settings(max_examples=30, deadline=None)
    def test_jn_exp_moment(self, inst):
        # The milder weight keeps exp(D^2) in the float range.
        sides, kind, f, _, vv, masses = inst
        dom, measure, base = _fresh(sides, kind, masses)
        w = Weight(dom, vv)
        jn_exp_moment(f, base, w, measure)
        got = jn_exp_moment(f, base, w, measure, big_n=8.0)
        assert base._norms.hits >= 1 and w._doubling.hits >= 1
        _, mea2, fam2 = _fresh(sides, kind, masses)
        want = jn_exp_moment(f, fam2, Weight(dom, vv), mea2, big_n=8.0)
        for name in ("t_value", "eta", "dw", "bmo_norm", "c1_hat", "c2_hat"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name))
        assert got.extremal_set == want.extremal_set


def _group_entries(base) -> list:
    """The norm groups a family keeps: its memo's tuple entries."""
    return [v for v in base._norms._data.values() if isinstance(v, tuple)]


def _spec_case(kind, dom, wv, vv, masses, rng):
    """(f, spec, w, measure) of one rule; ``DualHardy`` takes the density
    measure of its weight, ``TLSeq`` a sequence on the dyadic cubes, and
    the others a measure with a cell of zero mass at times."""
    if kind == "dual":
        return (rng.normal(size=dom.sides), DualHardy(Weight(dom, wv)),
                Weight.unit(dom), Measure.density(dom, wv))
    measure = Measure.general(dom, masses * (rng.random(dom.sides) < 0.85))
    if kind == "sequence":
        base = build_base(dom, measure, "dyadic-cubes")
        picks = rng.choice(len(base), size=min(5, len(base)), replace=False)
        return (TLSequence(dom, {base.box(int(i)): float(rng.normal())
                                 for i in picks}),
                TLSeq(alpha=0.3, q=1.5), Weight(dom, wv), measure)
    spec = {"centered": CenteredDiff(), "reweighted": CenteredDiff(
        Weight(dom, vv)), "median": MedianDiff()}[kind]
    return rng.normal(size=dom.sides), spec, Weight(dom, wv), measure


class TestNormGroups:
    """Where a family's layout is one chunk, its norm memo keeps each group
    (field, rule, weight, measure) once formed, so another exponent costs
    only the power and the sums; the reports stay a fresh family's."""

    def test_two_exponents_form_once(self, monkeypatch):
        dom = GridDomain((16,))
        mea = Measure.density(dom, np.linspace(0.5, 2.0, 16))
        base = build_base(dom, mea, "all-cubes")
        w = Weight(dom, np.exp(np.sin(np.arange(16.0))))
        forms, products = [], []
        real_dev, real_product = oscillation.deviations, oscillation.cell_product

        def deviations(f, centre):
            local = real_dev(f, centre)
            return lambda rows, idx: forms.append(len(rows)) or local(rows, idx)

        monkeypatch.setattr(oscillation, "deviations", deviations)
        monkeypatch.setattr(oscillation, "cell_product", lambda a, b, **kw: (
            products.append(a is w.values) or real_product(a, b, **kw)))
        f = np.cos(np.arange(16.0))
        got = [oscillation_norm(f, CenteredDiff(), w, p, base, mea)
               for p in (1.5, 3.0)]
        assert len(base.layout[1]) == 1 and len(_group_entries(base)) == 1
        assert forms == [len(base.layout[1][0][1])]  # every term, once
        assert products.count(True) == 1
        assert got[0].value != got[1].value

    def test_family_of_several_chunks_keeps_no_terms(self, monkeypatch):
        monkeypatch.setattr(lattice, "_GATHER_CELLS", 40)
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        assert len(base.layout[1]) > 1
        w = Weight(dom, np.linspace(1.0, 3.0, 16))
        f = np.arange(16.0) ** 1.5
        for p in (1.5, 3.0, 1.5):
            got = oscillation_norm(f, CenteredDiff(), w, p, base, mea,
                                   per_set=True)
        assert _group_entries(base) == []
        _, mea2, fam2 = _fresh((16,), "all-cubes", np.ones(16))
        assert _report_bits(got) == _report_bits(oscillation_norm(
            f, CenteredDiff(), w, 1.5, fam2, mea2, per_set=True))

    @given(_instance(), st.sampled_from(["centered", "reweighted", "dual",
                                         "median", "sequence"]),
           st.sampled_from([0.5, 1.0, 2.0, 3.7]),
           st.sampled_from([0.75, 1.0, 2.5]), st.booleans(), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_exponents_in_either_order_match_fresh(self, inst, kind, p, q,
                                                   first_set, second_set,
                                                   seed):
        # One family takes q, p and q again; each report must be the one
        # a fresh family and fresh rule objects give.
        sides, base_kind, _, wv, vv, masses = inst
        dom = _domain(sides)
        if kind == "sequence":
            base_kind = "dyadic-cubes"
        f, spec, w, mea = _spec_case(kind, dom, wv, vv, masses,
                                     np.random.default_rng(seed))
        base = build_base(dom, mea, base_kind)
        calls = [(q, first_set), (p, second_set), (q, second_set)]
        got = [oscillation_norm(f, spec, w, e, base, mea, per_set=s)
               for e, s in calls]
        assert len(_group_entries(base)) == 1
        for (e, s), rep in zip(calls, got):
            f2, spec2, w2, mea2 = _spec_case(kind, dom, wv, vv, masses,
                                             np.random.default_rng(seed))
            want = oscillation_norm(f2, spec2, w2, e, build_base(
                dom, mea2, base_kind), mea2, per_set=s)
            assert _report_bits(rep) == _report_bits(want)

    @pytest.mark.parametrize("order", [(1.0, 128.0), (128.0, 1.0)])
    def test_underflow_repass_on_a_kept_group(self, order):
        # |f - c| is 5e-4 on every box but the cells: its 128th power
        # underflows, and the re-pass at exponent 1 reads the kept group.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.array([0.0, 1e-3] * 4)
        for p in order:
            if p == 1.0:
                got = oscillation_norm(f, CenteredDiff(), Weight.unit(dom), p,
                                       base, mea)
                assert got.value == pytest.approx(5e-4, rel=1e-12)
            else:
                with pytest.raises(OverflowGuard, match="p-th powers underflow"):
                    oscillation_norm(f, CenteredDiff(), Weight.unit(dom), p,
                                     base, mea)
        assert len(_group_entries(base)) == 1
        fresh = build_base(dom, mea, "dyadic-cubes")
        assert _report_bits(got) == _report_bits(oscillation_norm(
            f, CenteredDiff(), Weight(dom, np.ones(8)), 1.0, fresh, mea))


class TestContentKeys:
    def test_rewritten_field_gives_fresh_norm(self, square4):
        dom, mea, base = square4
        w = Weight.unit(dom)
        f = np.arange(16.0).reshape(4, 4)
        first = oscillation_norm(f, CenteredDiff(), w, 2.0, base, mea)
        f[0, 0] = 40.0
        second = oscillation_norm(f, CenteredDiff(), w, 2.0, base, mea)
        fresh = oscillation_norm(f, CenteredDiff(), w, 2.0,
                                 build_base(dom, mea, "dyadic-cubes"), mea)
        assert second.value != first.value
        assert _bits(second.value) == _bits(fresh.value)
        assert second.extremal_set == fresh.extremal_set

    def test_rewritten_array_gives_fresh_sums(self, line8):
        _, _, base = line8
        values = np.arange(8.0)
        first = base.sums(values)
        assert base.sums(values) is first
        values[3] = -1.0
        again = base.sums(values)
        assert again is not first and again[0] == first[0] - 4.0
        with pytest.raises(ValueError):
            again[0] = 0.0

    def test_p_type_is_kept(self, line8):
        dom, mea, base = line8
        f = np.arange(8.0)
        w = Weight.unit(dom)
        assert type(oscillation_norm(f, CenteredDiff(), w, 2, base, mea).p) \
            is int
        assert type(oscillation_norm(f, CenteredDiff(), w, 2.0, base,
                                     mea).p) is float


class TestBounds:
    def test_bounded_cache_evicts_least_recent(self):
        cache = BoundedCache(2)
        cache.fetch("a", lambda: 1)
        cache.fetch("b", lambda: 2)
        cache.fetch("a", lambda: 0)          # a is now the most recent
        cache.fetch("c", lambda: 3)          # evicts b
        assert len(cache) == 2
        assert cache.fetch("a", lambda: 0) == 1
        assert cache.fetch("b", lambda: 9) == 9
        assert (cache.hits, cache.misses) == (2, 4)

    def test_caches_never_exceed_their_bounds(self, square4):
        dom, mea, base = square4
        rng = np.random.default_rng(3)
        w = Weight(dom, np.exp(rng.uniform(-1, 1, (4, 4))))
        for k in range(2 * max(SUMS_ENTRIES, NORM_ENTRIES)):
            f = rng.normal(size=(4, 4))
            oscillation_norm(f, CenteredDiff(), w, 1.0 + k, base, mea)
            base.sums(f)
            assert len(base._sums) <= SUMS_ENTRIES
            assert len(base._norms) <= NORM_ENTRIES
        assert len(base._sums) == SUMS_ENTRIES
        assert len(base._norms) == NORM_ENTRIES
        for k in range(2 * DOUBLING_ENTRIES):
            doubling_constant(w, Measure.density(dom, 1.0 + k + rng.random(
                (4, 4))))
            assert len(w._doubling) <= DOUBLING_ENTRIES
        assert len(w._doubling) == DOUBLING_ENTRIES


class TestErrorsNotCached:
    def test_zero_mass_raised_again(self, line8):
        dom, mea, base = line8
        zeros = Measure.general(dom, np.array([0.0, 0.0] + [1.0] * 6))
        f = np.arange(8.0)
        for _ in range(2):
            with pytest.raises(ZeroMass, match="no weighted mass on 0:2"):
                oscillation_norm(f, CenteredDiff(), Weight.unit(dom), 2.0,
                                 base, zeros)
        assert len(base._norms) == 0 and base._norms.hits == 0

    def test_incompatible_spec_raised_again(self, alternating8):
        dom, mea, base, w = alternating8
        f = np.arange(8.0)
        for _ in range(2):
            with pytest.raises(IncompatibleSpec):
                oscillation_norm(f, DualHardy(w), Weight.unit(dom), 1.0,
                                 base, mea)
        assert len(base._norms) == 0 and base._norms.hits == 0

    def test_doubling_overflow_raised_again(self):
        dom = GridDomain((4,))
        w = Weight(dom, np.array([1e-300, 1e300, 1.0, 1.0]))
        mea = Measure.uniform(dom)
        for _ in range(2):
            with pytest.raises(Exception, match="doubling constant"):
                doubling_constant(w, mea)
        assert len(w._doubling) == 0


class TestUnitWeight:
    """``Weight.unit``: one weight per domain instance, held on it, whose
    records serve every caller on that domain and no other weight."""

    def test_one_per_domain_instance(self):
        dom = GridDomain((8,))
        unit = Weight.unit(dom)
        assert Weight.unit(dom) is unit
        assert unit.provenance == {"kind": "unit"}
        assert unit.values.tolist() == [1.0] * 8
        assert not unit.values.flags.writeable
        other = GridDomain((8,))  # equal, but another instance
        assert other == dom and hash(other) == hash(dom)
        assert Weight.unit(other) is not unit
        assert Weight.unit(other).digest == unit.digest

    def test_lives_and_dies_with_its_domain(self):
        dom = GridDomain((4, 4))
        ref = weakref.ref(Weight.unit(dom))
        assert ref() is Weight.unit(dom)
        del dom
        gc.collect()
        assert ref() is None

    def test_constants_cache_and_sidecar_list_their_own_records(
            self, tmp_path):
        # The records a shared unit weight gathers stay on it: a weight's
        # ``constants_cache`` and sidecar list its own records, and the
        # CLI's only those of the weight it resolved.
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        muckenhoupt_constant(Weight.unit(dom), 2.0, base, mea)
        reverse_holder_constant(Weight.unit(dom), 1.5, base, mea)
        tail = f"{base.base_id}|{mea.digest}|{base.key[:8]}"
        assert list(Weight.unit(dom).cached_constants()) == [
            f"ap|2.0|{tail}", f"rh|1.5|{tail}"]
        w = generate_weight("power", {"exponent": 0.5}, 0, dom)
        value = muckenhoupt_constant(w, 3.0, base, mea)
        assert w.cached_constants() == {f"ap|3.0|{tail}": {
            "value": value, "argmax": w.record(
                ("ap", 3.0, base.base_id, mea.digest, base.key)).argmax.label()}}
        write_weight(tmp_path / "w.csv", w)
        sidecar = json.loads((tmp_path / "w.json").read_text())
        assert sidecar["constants"] == w.cached_constants()
        write_weight(tmp_path / "u.csv", Weight.unit(dom))
        assert list(json.loads((tmp_path / "u.json").read_text())[
            "constants"]) == [f"ap|2.0|{tail}", f"rh|1.5|{tail}"]
        for _ in range(2):
            out = tmp_path / "c.json"
            assert main(["constant", "--kind", "ap", "--gen", "power",
                         "--grid", "8", "--out", str(out)]) == 0
            assert list(json.loads(out.read_text())["constants_cache"]) == [
                f"ap|2.0|{tail}"]
        assert main(["gen", "--gen", "power", "--grid", "8", "--out",
                     str(tmp_path / "g.csv")]) == 0
        assert json.loads((tmp_path / "g.json").read_text())["constants"] == {}


def test_doubling_cached_by_measure():
    dom = GridDomain((8,))
    w = Weight(dom, np.exp(np.linspace(-2.0, 2.0, 8)))
    uniform, dens = Measure.uniform(dom), Measure.density(dom, w.values)
    a, b = doubling_constant(w, uniform), doubling_constant(w, dens)
    assert doubling_constant(w, Measure.uniform(dom)) == a
    assert w._doubling.hits == 1 and w._doubling.misses == 2
    assert _bits(b) == _bits(doubling_constant(Weight(dom, w.values), dens))
    assert math.isfinite(a) and a >= 1.0
