"""Certificate suites, constant estimators, and the majorant bridge."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oscillab import (GridDomain, Measure, TheoremId, Weight, build_base,
                      build_majorant, certify, doubling_constant,
                      estimate_constant, inputs_digest, jn_exp_moment,
                      make_check, run_suite, theorem_from_string, verify)
from oscillab import lattice
from oscillab.corpus import _sample_field, make_standard_corpus, sample_inputs
from oscillab.errors import (AllDegenerate, BadParams, DegenerateInput,
                             EmptyCorpus, IncompatibleBase, OverflowGuard)
from oscillab.oscillation import default_scale, plain_means
from oscillab.reports import CertificateReport, skipped_check


class TestTheoremIds:
    def test_every_id_round_trips(self):
        for tid in TheoremId:
            assert theorem_from_string(tid.value) is tid
            assert theorem_from_string(tid.name) is tid

    def test_unknown_name_rejected(self):
        with pytest.raises(BadParams):
            theorem_from_string("nonsense")

    def test_nine_suites(self):
        assert len(list(TheoremId)) == 9


class TestInputsDigest:
    def test_deterministic_and_sensitive(self):
        a = sample_inputs(TheoremId.LOG_CONVEXITY, 3, 1)
        b = sample_inputs(TheoremId.LOG_CONVEXITY, 3, 1)
        c = sample_inputs(TheoremId.LOG_CONVEXITY, 3, 2)
        da = inputs_digest(TheoremId.LOG_CONVEXITY, a)
        assert da == inputs_digest(TheoremId.LOG_CONVEXITY, b)
        assert da != inputs_digest(TheoremId.LOG_CONVEXITY, c)


class TestCertify:
    @pytest.mark.parametrize("tid", list(TheoremId), ids=lambda t: t.value)
    def test_sampled_instances_pass(self, tid):
        passed = 0
        trial = 0
        while passed < 5 and trial < 40:
            inputs = sample_inputs(tid, 17, trial)
            trial += 1
            try:
                report = certify(tid, inputs)
            except Exception as exc:
                if type(exc).__name__ == "DegenerateInput":
                    continue
                raise
            assert report.passed, f"{tid.value}: {[c.label for c in report.failing()]}"
            passed += 1
        assert passed == 5

    def test_accepts_string_names(self):
        inputs = sample_inputs(TheoremId.LOG_CONVEXITY, 5, 0)
        report = certify("log-convexity", inputs)
        assert report.passed

    def test_report_shape(self):
        inputs = sample_inputs(TheoremId.HOLDER_BRIDGE, 5, 0)
        report = certify(TheoremId.HOLDER_BRIDGE, inputs)
        d = report.to_dict()
        assert d["theorem"] == "holder-bridge"
        assert isinstance(d["checks"], list) and d["checks"]
        assert "pass" in d

    def test_nearly_constant_field_still_passes(self):
        # a flat field with one ulp of ripple exercises the tiny-average
        # branch of the interior power means, which must not underflow
        dom = GridDomain((16,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "dyadic-cubes")
        f = np.full(16, 1.0)
        f[::2] += np.finfo(float).eps
        w = Weight.unit(dom)
        inputs = dict(sample_inputs(TheoremId.GAIN_EXPONENT, 1, 0))
        inputs.update({"f": f, "w": w, "base": base, "measure": mea})
        report = certify(TheoremId.GAIN_EXPONENT, inputs)
        assert report.passed, [(c.label, c.lhs, c.rhs) for c in report.failing()]


class TestWorstSet:
    @pytest.mark.parametrize("suite, label", [
        ("gain-exponent", "improved_average_worst_set"),
        ("two-weight-band", "split_worst_set")])
    @pytest.mark.parametrize("rh_scale", [1.0, 0.5])
    def test_witness(self, monkeypatch, suite, label, rh_scale):
        # The witness has lhs > 0 whenever some member does, and its check
        # fails exactly when some member's does; a halved reverse-Holder
        # constant makes members fail.
        rows = []
        pair, rh = verify._worst_pair, verify.reverse_holder_constant

        def worst_pair(lhs, rhs):
            rows.append((lhs, rhs))
            return pair(lhs, rhs)
        monkeypatch.setattr(verify, "_worst_pair", worst_pair)
        monkeypatch.setattr(verify, "reverse_holder_constant",
                            lambda *a: rh_scale * rh(*a))
        tid = theorem_from_string(suite)
        fails = 0
        for trial in range(12):
            rows.clear()
            try:
                report = certify(tid, sample_inputs(tid, 7, trial))
            except DegenerateInput:
                continue
            [(lhs, rhs)] = rows
            check = next(c for c in report.checks if c.label == label)
            assert check.lhs > 0.0 or max(lhs) == 0.0
            member_fails = any(make_check(label, l, r).status == "fail"
                               for l, r in zip(lhs, rhs))
            assert (check.status == "fail") == member_fails
            fails += member_fails
        assert (fails > 0) == (rh_scale < 1.0)

    def test_all_zero_rows_give_member_zero(self):
        assert verify._worst_pair([0.0, 0.0], [1.0, 0.0]) == 0
        assert verify._worst_pair([0.0, 1.0, 2.0], [0.0, 3.0, 3.0]) == 2


class TestReciprocalDirect:
    """The reciprocal rule's cross-check, screened by ``lattice.block_max``."""

    @staticmethod
    def _unscreened(f, w, base_w):
        return float(np.max(lattice.block_reduce(
            base_w, lattice.deviations(f, plain_means(f, base_w)),
            base_w.sums(w.values))))

    def test_matches_one_fsum_per_box(self):
        tid = TheoremId.RECIPROCAL_RULE
        for trial in range(20):
            inputs = sample_inputs(tid, 3, trial)
            f, w, base = inputs["f"], inputs["w"], inputs["base"]
            base_w = build_base(base.domain, Measure.density(
                base.domain, w.values), base.kind, base.min_scale)
            got = verify._reciprocal_direct(f, w, base_w)
            assert np.float64(got).tobytes() == np.float64(
                self._unscreened(f, w, base_w)).tobytes()

    def test_only_kept_rows_reach_fsum(self, monkeypatch):
        dom = GridDomain((16,))
        w = Weight(dom, np.linspace(1.0, 2.0, 16))
        f = np.arange(16.0) ** 2
        base_w = build_base(dom, Measure.density(dom, w.values), "all-cubes")
        calls, fsum = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        got = verify._reciprocal_direct(f, w, base_w)
        kept = len(calls)
        calls.clear()
        assert got == self._unscreened(f, w, base_w) == 41.125
        # One member holds the maximum, far above the rest.
        assert (kept, len(calls)) == (1, len(base_w))


@pytest.mark.parametrize("sides", [(8,), (4, 4), (4, 8)])
def test_log_profile_bits_match_the_closed_form(sides):
    # The sampler's log profile (a draw in [0.5, 0.7)): the log of each cell
    # centre's distance to the origin, bit for bit.
    f = _sample_field(SimpleNamespace(random=lambda: 0.6), GridDomain(sides))
    x = (np.arange(sides[0]) + 0.5) / sides[0]
    if len(sides) == 1:
        want = np.log(x)
    else:
        y = (np.arange(sides[1]) + 0.5) / sides[1]
        want = 0.5 * np.log(x[:, None] ** 2 + y[None, :] ** 2)
    assert f.tobytes() == want.tobytes()


class TestRunSuite:
    def test_shape_and_counts(self):
        out = run_suite(TheoremId.LOG_CONVEXITY, 8, seed=2)
        assert out["trials"] == 8
        assert out["failures"] == 0
        assert len(out["reports"]) + out["degenerate_skipped"] == 8
        assert out["min_relative_slack"] is None or out["min_relative_slack"] > -1e-9

    def test_same_seed_reproduces(self):
        a = run_suite(TheoremId.TWO_WEIGHT_BAND, 5, seed=9)
        b = run_suite(TheoremId.TWO_WEIGHT_BAND, 5, seed=9)
        ra = [r.to_dict() for r in a["reports"]]
        rb = [r.to_dict() for r in b["reports"]]
        assert ra == rb

    def test_min_slack_passes_over_a_nan(self, monkeypatch):
        # An infinite rhs has slack inf / inf = NaN; the least slack is taken
        # as a running min from inf, so the NaN never wins, first or not.
        checks = [make_check("inf", 1.0, math.inf), make_check("tight", 2.0, 1.0),
                  skipped_check("off", "no inputs")]
        monkeypatch.setattr(verify, "certify", lambda *a: CertificateReport(
            "log-convexity", "0", checks))
        out = run_suite(TheoremId.LOG_CONVEXITY, 2, seed=2)
        assert out["min_relative_slack"] == -1.0 and out["failures"] == 2


class TestEstimators:
    def _corpus(self):
        return make_standard_corpus(seed=1, size=8)

    def test_cpq_is_at_least_one_for_nested_exponents(self):
        est = estimate_constant("c_pq", self._corpus(), {"p": 2.0, "q": 1.0})
        assert est.value >= 1.0
        assert est.n_used > 0
        assert len(est.corpus_digest) == 16

    def test_cpq_monotone_in_p(self):
        corpus = self._corpus()
        v2 = estimate_constant("c_pq", corpus, {"p": 2.0, "q": 1.0}).value
        v4 = estimate_constant("c_pq", corpus, {"p": 4.0, "q": 1.0}).value
        assert v2 <= v4 * (1 + 1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            estimate_constant("c_pq", [], {"p": 2.0, "q": 1.0})

    def test_all_degenerate_rejected(self):
        corpus = self._corpus()
        flat = [dict(item, f=np.zeros_like(item["f"])) for item in corpus]
        with pytest.raises(AllDegenerate):
            estimate_constant("c_pq", flat, {"p": 2.0, "q": 1.0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadParams):
            estimate_constant("zzz", self._corpus(), {})


class TestMajorant:
    def test_dominates_its_seed(self, line8):
        # the majorant is grown from the extremal set's local oscillation
        # raised to p - 1, so it must dominate that seed, not |f| itself
        dom, mea, base = line8
        rng = np.random.default_rng(11)
        f = rng.normal(size=8)
        p = 2.0
        u, star, plain, local, g = build_majorant(f, base, mea, p)
        assert plain > 0
        lo, hi = star.lo[0], star.hi[0]
        c = float(np.sum(f[lo:hi] * mea.masses[lo:hi])
                  / np.sum(mea.masses[lo:hi]))
        seed = np.zeros(8)
        seed[lo:hi] = np.abs(f[lo:hi] - c) ** (p - 1.0)
        assert np.allclose(g, seed, rtol=1e-12, atol=1e-12)
        assert np.array_equal(g[lo:hi], local ** (p - 1.0))
        assert np.all(u.values >= seed - 1e-12)
        checks = u.provenance["checks"]
        assert checks["self_bound_ratio"] <= checks["self_bound_limit"] * (1 + 1e-8)

    def test_needs_dyadic_cubes(self):
        dom = GridDomain((8,))
        mea = Measure.uniform(dom)
        base = build_base(dom, mea, "all-cubes")
        with pytest.raises(IncompatibleBase):
            build_majorant(np.arange(8.0), base, mea, 2.0)


class TestDefaultScale:
    """The rectangle-decay suite and the JN probe take their default scale,
    2 e^(D^2), from one helper, so they accept or refuse D together."""

    @staticmethod
    def _inputs(d2: float, t: float | None = None) -> dict:
        # On 2x2 dyadic rectangles, w = [[1, t], [1, t]] has D = 1 + t.
        dom = GridDomain((2, 2), split=(1, 1))
        mea = Measure.uniform(dom)
        t = math.sqrt(d2) - 1.0 if t is None else t
        return {"f": np.array([[0.0, 1.0], [3.0, 2.0]]),
                "w": Weight(dom, np.array([[1.0, t], [1.0, t]])),
                "base": build_base(dom, mea, "dyadic-rectangles"),
                "measure": mea}

    def _both(self, inputs):
        probe = (inputs["f"], inputs["base"], inputs["w"], inputs["measure"])
        return (lambda: certify(TheoremId.RECTANGLE_DECAY, inputs),
                lambda: jn_exp_moment(*probe))

    def test_both_accept_past_the_old_suite_limit(self):
        # The suite once refused D^2 > 700 on its own, where the probe ran.
        inputs = self._inputs(701.0)
        dw = doubling_constant(inputs["w"], inputs["measure"])
        assert 700.0 < dw * dw <= 709.09
        suite, probe = self._both(inputs)
        report, jn = suite(), probe()
        assert report.meta["lam"] == report.meta["eta"] == jn.eta \
            == default_scale(dw) == 2.0 * math.exp(dw * dw)
        assert all(math.isfinite(c.rhs) and c.status == "pass"
                   for c in report.checks)

    def test_both_raise_the_same_guard_past_the_float_range(self):
        suite, probe = self._both(self._inputs(709.5))
        with pytest.raises(OverflowGuard, match="explicit lam") as got_suite:
            suite()
        with pytest.raises(OverflowGuard, match="explicit eta") as got_probe:
            probe()
        # Each names its own input: the suite's lam, the probe's eta.
        assert str(got_suite.value) == str(got_probe.value).replace("eta", "lam")

    def test_suite_refuses_an_infinite_window(self):
        # At D^2 = 709 the scale is a float, but D^2 times it is not.
        suite, probe = self._both(self._inputs(709.0))
        assert math.isfinite(probe().t_value)
        with pytest.raises(OverflowGuard, match="stopping window"):
            suite()

    def test_explicit_lam_with_a_huge_doubling_constant(self):
        # D = 1e160: D ** 2 raises OverflowError as a Python float power,
        # where the window is past the float range all the same.
        inputs = {**self._inputs(0.0, t=1e160), "lam": 1.0}
        with pytest.raises(OverflowGuard, match="stopping window"):
            certify(TheoremId.RECTANGLE_DECAY, inputs)
