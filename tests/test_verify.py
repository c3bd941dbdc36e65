"""Certificate suites, constant estimators, and the majorant bridge."""

from __future__ import annotations

import numpy as np
import pytest

from oscillab import (GridDomain, Measure, TheoremId, Weight, build_base,
                      build_majorant, certify, estimate_constant,
                      inputs_digest, run_suite, theorem_from_string)
from oscillab.corpus import make_standard_corpus, sample_inputs
from oscillab.errors import (AllDegenerate, BadParams, EmptyCorpus,
                             IncompatibleBase)


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
