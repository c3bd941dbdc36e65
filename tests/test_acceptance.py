"""Acceptance gate: nine numbered criteria, one verdict line each.

Every test records its verdict through the ``acceptance`` fixture before
asserting, so the terminal summary always shows the full scoreboard.
Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oscillab import (CenteredDiff, GridDomain, Measure,
                      SelfImprovementParams, TheoremId, TLSeq, TLSequence,
                      Weight, build_base, certify, conjugate,
                      estimate_constant, generate_weight, jn_exp_moment,
                      lp_norm, maximal, muckenhoupt_constant,
                      oscillation_norm, power_bump_check, reverse_holder_constant,
                      rubio_de_francia, run_suite, self_improvement,
                      tl_equivalence_probe)
from oscillab.cli import main as cli_main
from oscillab.corpus import make_standard_corpus, sample_inputs
from oscillab.errors import DegenerateInput
from oscillab.lattice import BaseSet

TOL_EXACT = 1e-12
TOL_FIXTURE = 1e-9
TOL_PROPERTY = 1e-9
TOL_SELF_BOUND = 1e-8          # ten times the property tolerance
TOL_HOLDER = 1e-10
TOL_STABLE = 1e-9
MOMENT_CAP = 2.0 * math.e

MASTER_SEED = 20260816


def _unit_line(n):
    dom = GridDomain((n,))
    mea = Measure.uniform(dom)
    return dom, mea, build_base(dom, mea, "dyadic-cubes")


# ---------------------------------------------------------------------------
# 1. exact fixtures
# ---------------------------------------------------------------------------


def test_criterion_1_exact_fixtures(acceptance):
    dom, mea, base = _unit_line(8)
    one = Weight.unit(dom)
    errs = []
    for p in (1.5, 2.0, 3.0):
        errs.append(abs(muckenhoupt_constant(one, p, base, mea) - 1.0))
    for d in (1.5, 2.0, 3.0):
        errs.append(abs(reverse_holder_constant(one, d, base, mea) - 1.0))
    unit_ok = max(errs) <= TOL_EXACT

    dom2 = GridDomain((2,))
    mea2 = Measure.uniform(dom2)
    base2 = build_base(dom2, mea2, "dyadic-cubes")
    w = Weight(dom2, np.array([1.0, 2.0]), {"kind": "fixture"})
    ap_err = abs(muckenhoupt_constant(w, 2.0, base2, mea2) - 1.125)
    rh_err = abs(reverse_holder_constant(w, 2.0, base2, mea2)
                 - 1.0540925533894598)
    pair_ok = ap_err <= TOL_FIXTURE and rh_err <= TOL_FIXTURE

    bump = power_bump_check(w, 2.0, 2.0, base2, mea2)
    live = [c for c in bump.checks if c.status != "skipped"]
    main_check = max(live, key=lambda c: abs(c.rhs or 0.0))
    eq_ok = (abs(main_check.lhs - 1.40625) <= TOL_EXACT
             and abs(main_check.rhs - 1.40625) <= TOL_EXACT)

    ok = unit_ok and pair_ok and eq_ok
    acceptance(1, ok, "unit and two-cell constants plus the bump equality "
                      f"(worst unit err {max(errs):.2e})")
    assert unit_ok, f"unit-weight constants off by {max(errs)}"
    assert pair_ok, f"two-cell fixtures off by {ap_err}, {rh_err}"
    assert eq_ok, f"bump equality sides {main_check.lhs}, {main_check.rhs}"


# ---------------------------------------------------------------------------
# 2. power-bump property suite
# ---------------------------------------------------------------------------


def test_criterion_2_power_bump_trials(acceptance):
    rng = np.random.default_rng(MASTER_SEED)
    shapes = [(2,), (4,), (8,), (16,), (32,), (64,),
              (2, 2), (4, 4), (8, 8)]
    cache = {}
    violations = 0
    worst = math.inf
    trials = 10_000
    for _ in range(trials):
        shape = shapes[rng.integers(len(shapes))]
        if shape not in cache:
            dom = GridDomain(shape)
            mea = Measure.uniform(dom)
            cache[shape] = (dom, mea, build_base(dom, mea, "dyadic-cubes"))
        dom, mea, base = cache[shape]
        spread = rng.uniform(0.5, 3.0)
        w = Weight(dom, np.exp(rng.uniform(-spread, spread, size=shape)),
                   {"kind": "trial"})
        p = rng.uniform(1.1, 4.0)
        delta = rng.uniform(1.1, 3.0)
        report = power_bump_check(w, p, delta, base, mea, tol=TOL_PROPERTY)
        if not report.passed:
            violations += 1
        for c in report.checks:
            if c.status != "skipped" and c.rhs:
                worst = min(worst, (c.rhs - c.lhs) / abs(c.rhs))
    ok = violations == 0
    acceptance(2, ok, f"{trials} random bump instances, {violations} violations, "
                      f"worst relative slack {worst:.2e}")
    assert ok, f"{violations} violations out of {trials}"


# ---------------------------------------------------------------------------
# 3. majorant-series invariants
# ---------------------------------------------------------------------------


def test_criterion_3_majorant_series(acceptance):
    dom4 = GridDomain((4,))
    mea4 = Measure.uniform(dom4)
    base4 = build_base(dom4, mea4, "dyadic-cubes")
    u0 = rubio_de_francia(np.array([1.0, 0.0, 0.0, 0.0]), 2.0, base4, mea4)
    fixture_err = abs(u0.values[0] - 4.0 / 3.0)
    fixture_ok = fixture_err <= TOL_FIXTURE

    rng = np.random.default_rng(MASTER_SEED + 1)
    trials = 1_000
    violations = 0
    cache = {}
    for _ in range(trials):
        style = rng.integers(3)
        if style == 0:
            n = int(2 ** rng.integers(2, 7))
            key = ("dy1", n, False)
            if key not in cache:
                dom = GridDomain((n,))
                mea = Measure.uniform(dom)
                cache[key] = (dom, mea, build_base(dom, mea, "dyadic-cubes"))
            dom, mea, base = cache[key]
            if rng.uniform() < 0.5:
                mea = Measure.density(dom, np.exp(rng.uniform(-1, 1, size=(n,))))
                base = build_base(dom, mea, "dyadic-cubes")
            kind = "dyadic"
        elif style == 1:
            side = int(2 ** rng.integers(1, 4))
            dom = GridDomain((side, side))
            mea = Measure.density(
                dom, np.exp(rng.uniform(-1, 1, size=(side, side))))
            base = build_base(dom, mea, "dyadic-cubes")
            kind = "dyadic"
        else:
            n = int(2 ** rng.integers(2, 6))
            key = ("all", n, True)
            if key not in cache:
                dom = GridDomain((n,))
                mea = Measure.uniform(dom)
                cache[key] = (dom, mea, build_base(dom, mea, "all-cubes"))
            dom, mea, base = cache[key]
            kind = "centered"
        g = rng.normal(size=dom.sides)
        if not np.any(g):
            g.flat[0] = 1.0
        p = rng.uniform(1.2, 4.0)
        u = rubio_de_francia(g, p, base, mea, kind)
        bound = u.provenance["norm_bound"]
        ok_dom = bool(np.all(u.values >= np.abs(g) - 1e-12))
        mu = maximal(u.values, base, mea, kind)
        positive = u.values > 0
        ok_self = bool(np.all(mu[positive] <= 2.0 * bound * u.values[positive]
                              * (1 + TOL_SELF_BOUND)))
        ok_lp = (lp_norm(u.values, p, mea)
                 <= 2.0 * lp_norm(g, p, mea) * (1 + TOL_PROPERTY))
        if not (ok_dom and ok_self and ok_lp):
            violations += 1
    ok = fixture_ok and violations == 0
    acceptance(3, ok, f"{trials} majorant-series trials, {violations} violations; "
                      f"four-cell value err {fixture_err:.2e}")
    assert fixture_ok, f"four-cell fixture off by {fixture_err}"
    assert violations == 0, f"{violations} invariant violations"


# ---------------------------------------------------------------------------
# 4. certificate suites
# ---------------------------------------------------------------------------


def test_criterion_4_certificate_suites(acceptance):
    trials = 500
    failures = {}
    worst = math.inf
    for tid in TheoremId:
        out = run_suite(tid, trials, seed=0, tol=TOL_PROPERTY)
        failures[tid.value] = out["failures"]
        if out["min_relative_slack"] is not None:
            worst = min(worst, out["min_relative_slack"])
    total = sum(failures.values())
    ok = total == 0
    acceptance(4, ok, f"9 suites x {trials} trials, {total} failed checks, "
                      f"worst slack {worst:.2e}")
    assert ok, f"failures by suite: { {k: v for k, v in failures.items() if v} }"


# ---------------------------------------------------------------------------
# 5. exponential moment of the oscillation
# ---------------------------------------------------------------------------


def test_criterion_5_exp_moment_cap(acceptance):
    dom = GridDomain((32, 32), split=(1, 1))
    mea = Measure.uniform(dom)
    base = build_base(dom, mea, "dyadic-rectangles")
    rng = np.random.default_rng(MASTER_SEED + 2)
    instances = 100
    cap_bad = 0
    stab_bad = 0
    degenerate = 0
    worst_t = 0.0
    done = 0
    attempt = 0
    while done < instances and attempt < 4 * instances:
        attempt += 1
        if rng.uniform() < 0.5:
            w = generate_weight("random-log-bounded",
                                {"bound": float(rng.uniform(0.2, 1.0))},
                                int(rng.integers(1_000_000)), dom, base, mea)
        else:
            w = generate_weight("checkerboard",
                                {"contrast": float(rng.uniform(1.2, 3.0))},
                                int(rng.integers(1_000_000)), dom, base, mea)
        f = rng.normal(size=(32, 32))
        try:
            first = jn_exp_moment(f, base, w, mea, big_n=64.0)
            normalized = f / first.bmo_norm
            rep = jn_exp_moment(normalized, base, w, mea, big_n=64.0)
            again = jn_exp_moment(normalized, base, w, mea, big_n=128.0)
        except DegenerateInput:
            degenerate += 1
            continue
        done += 1
        worst_t = max(worst_t, rep.t_value)
        if not rep.t_value <= MOMENT_CAP:
            cap_bad += 1
        if abs(rep.t_value - again.t_value) > TOL_STABLE * max(1.0, rep.t_value):
            stab_bad += 1
    ok = done == instances and cap_bad == 0 and stab_bad == 0
    acceptance(5, ok, f"{done} rectangle-base instances, worst moment "
                      f"{worst_t:.5f} vs cap {MOMENT_CAP:.5f}, "
                      f"{stab_bad} truncation instabilities")
    assert done == instances, f"only {done} usable instances ({degenerate} degenerate)"
    assert cap_bad == 0, f"{cap_bad} instances above the moment cap"
    assert stab_bad == 0, f"{stab_bad} instances unstable in the truncation level"


# ---------------------------------------------------------------------------
# 6. exponent monotonicity and interpolation
# ---------------------------------------------------------------------------


def test_criterion_6_monotone_interpolation(acceptance):
    trials = 1_000
    violations = 0
    degenerate = 0
    done = 0
    trial = 0
    while done < trials and trial < 4 * trials:
        inputs = sample_inputs(TheoremId.LOG_CONVEXITY, MASTER_SEED + 3, trial)
        trial += 1
        try:
            report = certify(TheoremId.LOG_CONVEXITY, inputs, tol=TOL_HOLDER)
        except DegenerateInput:
            degenerate += 1
            continue
        done += 1
        if not report.passed:
            violations += 1
            continue
        spec = CenteredDiff()
        f, w = inputs["f"], inputs["w"]
        base, mea = inputs["base"], inputs["measure"]
        r, eps = inputs["r"], inputs["eps"]
        lo = oscillation_norm(f, spec, w, r, base, mea).value
        hi = oscillation_norm(f, spec, w, r + eps, base, mea).value
        if lo > hi * (1 + TOL_HOLDER):
            violations += 1
    ok = done == trials and violations == 0
    acceptance(6, ok, f"{done} interpolation samples, {violations} violations "
                      f"({degenerate} degenerate resampled)")
    assert done == trials
    assert violations == 0, f"{violations} violations"


# ---------------------------------------------------------------------------
# 7. empirical constants stay under the configured growth column
# ---------------------------------------------------------------------------


def test_criterion_7_growth_column(acceptance):
    corpus = make_standard_corpus(seed=0, size=40)
    params = SelfImprovementParams("euclidean-cubes", dims=1)
    rows = []
    ok = True
    for p in (2.0, 4.0, 8.0, 16.0):
        est = estimate_constant("c_pq", corpus, {"p": p, "q": 1.0})
        gain, kcap = self_improvement(params, conjugate(p), 2.0 * p)
        dual = conjugate(gain)
        hi = estimate_constant("c_pq", corpus, {"p": dual, "q": 1.0})
        upper = 2.0 * kcap * hi.value
        rows.append((p, est.value, upper))
        if not est.value <= upper * (1 + TOL_PROPERTY):
            ok = False
    summary = ", ".join(f"p={p:g}: {c:.3f}<={u:.3f}" for p, c, u in rows)
    acceptance(7, ok, summary)
    assert ok, rows


# ---------------------------------------------------------------------------
# 8. sequence norms: exact value, direction, ratio band
# ---------------------------------------------------------------------------


def test_criterion_8_sequence_norms(acceptance):
    dom = GridDomain((8,))
    mea = Measure.uniform(dom)
    base = build_base(dom, mea, "dyadic-cubes")
    w = Weight.unit(dom)
    seq = TLSequence(dom, {BaseSet((0,), (2,)): 0.25})
    exact = oscillation_norm(seq, TLSeq(alpha=0.5, q=2.0), w, 1.0, base, mea)
    exact_ok = exact.value == 1.0

    rng = np.random.default_rng(MASTER_SEED + 4)
    direction_bad = 0
    ratios = []
    done = 0
    trial = 0
    while done < 200 and trial < 800:
        inputs = sample_inputs(TheoremId.SEQUENCE_SPACES, MASTER_SEED + 4, trial)
        trial += 1
        seq_i, alpha, q = inputs["seq"], inputs["alpha"], inputs["q"]
        w_i, base_i, mea_i = inputs["w"], inputs["base"], inputs["measure"]
        if not any(v != 0.0 for v in seq_i.coeffs.values()):
            continue
        done += 1
        p = q * float(rng.uniform(1.0, 2.5))
        spec = TLSeq(alpha=alpha, q=q)
        lo = oscillation_norm(seq_i, spec, w_i, 1.0, base_i, mea_i).value
        hi = oscillation_norm(seq_i, spec, w_i, p / q, base_i, mea_i).value
        if lo ** (1.0 / q) > hi ** (1.0 / q) * (1 + TOL_HOLDER):
            direction_bad += 1
        probe = tl_equivalence_probe(seq_i, alpha, q, max(p, q * 1.01),
                                     w_i, base_i, mea_i)
        ratios.append(probe.ratio)
    band_ok = (len(ratios) == 200
               and all(math.isfinite(r) and r > 0 for r in ratios))
    ok = exact_ok and direction_bad == 0 and band_ok
    acceptance(8, ok, f"single-coefficient value {exact.value!r}, "
                      f"{direction_bad} direction violations, ratio band "
                      f"[{min(ratios):.3f}, {max(ratios):.3f}] over {len(ratios)}")
    assert exact_ok, f"single-coefficient norm was {exact.value!r}"
    assert direction_bad == 0
    assert band_ok


# ---------------------------------------------------------------------------
# 9. byte-level determinism of the verification pipeline
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(acceptance, tmp_path):
    out = tmp_path / "v"
    args = ["verify", "--suite", "all", "--trials", "3",
            "--seed", "7", "--out", str(out)]

    def snapshot():
        shots = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                shots[str(p.relative_to(out))] = [
                    ln for ln in p.read_text().splitlines()
                    if "generated_at" not in ln]
        return shots

    rc1 = cli_main(args)
    first = snapshot()
    rc2 = cli_main(args)
    second = snapshot()
    same_files = sorted(first) == sorted(second)
    same_bytes = same_files and all(first[k] == second[k] for k in first)
    ok = rc1 == 0 and rc2 == 0 and same_bytes and len(first) >= 11
    acceptance(9, ok, f"two identical runs, {len(first)} files compared, "
                      f"{'identical' if same_bytes else 'DIFFERENT'} outside timestamps")
    assert rc1 == 0 and rc2 == 0
    assert same_bytes
