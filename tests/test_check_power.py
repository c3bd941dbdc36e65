"""Every certificate check can fail: a table of mutations that trip them.

Each check label a suite emits is paired with a mutation, patched into
``oscillab.verify``, and a range of trials at seed 7 in which that check
must fail at least once.  A check that no wrong constant, centre, exponent
or majorant can trip certifies nothing; the completeness test keeps a new
label from landing without a mutation that trips it.

Where a check's constant is a literal in ``verify`` (the 1 of
``plain_power_monotone``, the 2 of ``centered_vs_median``), the mutation
halves that check's right side, which is the same as halving the constant.
"""

from __future__ import annotations

import dataclasses
import types

import pytest

from oscillab import operators, verify, weights
from oscillab.corpus import sample_inputs
from oscillab.errors import DegenerateInput
from oscillab.oscillation import CenteredDiff
from oscillab.verify import TheoremId
from oscillab.weights import Weight

SEED = 7
# Trials every suite runs unmutated in the completeness test.
BASE_TRIALS = range(10)


def _halved(name):
    """``verify.<name>`` returns half its value."""
    def apply(mp):
        real = getattr(verify, name)
        mp.setattr(verify, name, lambda *a, **kw: 0.5 * real(*a, **kw))
    return apply


def _set_one(name):
    """``verify.<name>`` returns 1."""
    def apply(mp):
        mp.setattr(verify, name, lambda *a, **kw: 1.0)
    return apply


def _rhs_halved(label):
    """The right side of check ``label`` halved: its constant halved."""
    def apply(mp):
        real = verify.make_check

        def make_check(lab, lhs, rhs, tol=verify.DEFAULT_TOL):
            return real(lab, lhs, 0.5 * rhs if lab == label else rhs, tol)
        mp.setattr(verify, "make_check", make_check)
    return apply


def _median_to_mean(mp):
    """The sharp (median-centred) oscillation centred at the mean."""
    def sharp(f, base, measure):
        return verify.oscillation_norm(f, CenteredDiff(),
                                       Weight.unit(base.domain), 1.0, base,
                                       measure)
    mp.setattr(verify, "sharp_oscillation", sharp)


def _centre_shift(mp):
    """The plain cell means shifted by 1/2."""
    real = verify.plain_means
    mp.setattr(verify, "plain_means", lambda f, base: real(f, base) + 0.5)


def _norm_exponent_to_conjugate(mp):
    """Every norm exponent p > 1 replaced by its conjugate p'."""
    real = verify._norm

    def norm(f, spec, w, p, base, measure):
        return real(f, spec, w, weights.conjugate(p) if p > 1.0 else p, base,
                    measure)
    mp.setattr(verify, "_norm", norm)


def _gain_to_conjugate(mp):
    """The self-improved exponent Delta replaced by its conjugate."""
    real = verify.self_improvement

    def self_improvement(params, p, t):
        delta, cap = real(params, p, t)
        return weights.conjugate(delta), cap
    mp.setattr(verify, "self_improvement", self_improvement)


def _with_majorant(transform):
    """The majorant weight u of the series replaced by transform(u)."""
    def apply(mp):
        def rubio_de_francia(*a, **kw):
            u = operators.rubio_de_francia(*a, **kw)
            return Weight(u.domain, transform(u.values), u.provenance)
        mp.setattr(verify, "operators", types.SimpleNamespace(
            rubio_de_francia=rubio_de_francia))
    return apply


def _bound_halved(mp):
    """The maximal operator's norm bound b of the series halved."""
    real = operators.default_norm_bound
    mp.setattr(operators, "default_norm_bound",
               lambda mode, base, p: 0.5 * real(mode, base, p))


def _weighted_norm_one(mp):
    """Every norm with a non-unit weight set to 1."""
    real = verify._norm

    def norm(f, spec, w, p, base, measure):
        if w.provenance.get("kind") == "unit":
            return real(f, spec, w, p, base, measure)
        return 1.0
    mp.setattr(verify, "_norm", norm)


def _walk_threshold(factor):
    """The stopping-time walk run at factor * lam; the checks keep lam."""
    def apply(mp):
        real = verify.cz_selection
        mp.setattr(verify, "cz_selection",
                   lambda f, root, w, lam, base, measure:
                   real(f, root, w, factor * lam, base, measure))
    return apply


def _eta_half(mp):
    """The exponential moment's tempering scale eta set to 1/2 (its
    default, 2 exp(D^2), is at least 2e)."""
    real = verify.jn_exp_moment
    mp.setattr(verify, "jn_exp_moment",
               lambda *a, **kw: real(*a, eta=0.5, **kw))


def _probe_weighted_halved(mp):
    """The sequence probe's weighted norm halved."""
    real = verify.tl_equivalence_probe

    def probe(*a):
        got = real(*a)
        return dataclasses.replace(got, weighted_nu=0.5 * got.weighted_nu)
    mp.setattr(verify, "tl_equivalence_probe", probe)


RH_HALVED = _halved("reverse_holder_constant")
AP_HALVED = _halved("muckenhoupt_constant")

# (suite, label) -> (mutation, trials at SEED in which the check must fail).
TABLE = {
    ("holder-bridge", "weighted_vs_plain_highpower"): (RH_HALVED, range(0, 3)),
    ("holder-bridge", "plain_lowpower_vs_weighted"): (AP_HALVED, range(2, 4)),
    ("holder-bridge", "weighted_midpower_vs_plain"): (RH_HALVED, range(2, 4)),
    ("weight-swap", "swap_forward"): (RH_HALVED, range(0, 2)),
    ("weight-swap", "swap_backward"): (RH_HALVED, range(0, 2)),
    ("weight-swap", "plain_power_monotone"):
        (_rhs_halved("plain_power_monotone"), range(0, 3)),
    ("gain-exponent", "improved_constant_cap"):
        (_gain_to_conjugate, range(3, 6)),
    ("gain-exponent", "improved_average_worst_set"): (RH_HALVED, range(0, 2)),
    ("gain-exponent", "improved_average_global"): (RH_HALVED, range(0, 3)),
    ("majorant-sufficiency", "majorant_dominates_seed"):
        (_with_majorant(lambda u: 0.5 * u), range(0, 2)),
    ("majorant-sufficiency", "majorant_self_bound"):
        (_rhs_halved("majorant_self_bound"), range(0, 2)),
    ("majorant-sufficiency", "majorant_power_cost"):
        (_bound_halved, range(1, 3)),
    ("majorant-sufficiency", "extremal_power_vs_majorant"):
        (_with_majorant(lambda u: 0.5 * u), range(0, 2)),
    ("majorant-sufficiency", "majorant_mass_bound"):
        (_bound_halved, range(1, 3)),
    ("majorant-sufficiency", "plain_norm_vs_majorant_norm"):
        (_weighted_norm_one, range(0, 2)),
    ("log-convexity", "interpolation_product"):
        (_norm_exponent_to_conjugate, range(1, 3)),
    ("log-convexity", "power_monotone_low"):
        (_norm_exponent_to_conjugate, range(0, 2)),
    ("log-convexity", "power_monotone_high"):
        (_norm_exponent_to_conjugate, range(0, 2)),
    ("two-weight-band", "split_worst_set"): (RH_HALVED, range(0, 2)),
    ("two-weight-band", "split_global"): (RH_HALVED, range(0, 2)),
    ("two-weight-band", "centered_vs_median"):
        (_rhs_halved("centered_vs_median"), range(1, 3)),
    ("two-weight-band", "median_vs_shifted_center"):
        (_median_to_mean, range(7, 9)),
    ("two-weight-band", "shifted_center_triangle"):
        (_rhs_halved("shifted_center_triangle"), range(1, 3)),
    ("two-weight-band", "weighted_tail"): (RH_HALVED, range(0, 2)),
    ("two-weight-band", "band_upper"): (RH_HALVED, range(0, 2)),
    ("two-weight-band", "band_lower"): (RH_HALVED, range(0, 3)),
    ("reciprocal-rule", "direct_formula_match"): (_centre_shift, range(0, 2)),
    ("reciprocal-rule", "reciprocal_weighted_vs_plain"):
        (RH_HALVED, range(1, 3)),
    ("reciprocal-rule", "reciprocal_lowpower_vs_weighted"):
        (AP_HALVED, range(1, 3)),
    ("reciprocal-rule", "reciprocal_midpower_vs_plain"):
        (RH_HALVED, range(1, 3)),
    ("rectangle-decay", "stopping_window"):
        (_set_one("doubling_constant"), range(0, 2)),
    ("rectangle-decay", "stopping_outside"):
        (_walk_threshold(2.0), range(0, 2)),
    ("rectangle-decay", "stopping_mass"): (_walk_threshold(0.5), range(0, 2)),
    ("rectangle-decay", "exp_moment_cap"): (_eta_half, range(0, 2)),
    ("rectangle-decay", "split_global"): (RH_HALVED, range(1, 3)),
    ("sequence-spaces", "power_mean_direction"):
        (_probe_weighted_halved, range(0, 3)),
    ("sequence-spaces", "sequence_weighted_vs_plain"):
        (RH_HALVED, range(0, 2)),
    ("sequence-spaces", "sequence_lowpower_vs_weighted"):
        (AP_HALVED, range(0, 2)),
}


def _reports(suite: str, trials):
    """The certificates of ``trials`` at SEED, degenerate ones left out."""
    tid = verify.theorem_from_string(suite)
    out = []
    for trial in trials:
        try:
            out.append(verify.certify(tid, sample_inputs(tid, SEED, trial)))
        except DegenerateInput:
            pass
    return out


@pytest.mark.parametrize("suite, label", list(TABLE),
                         ids=[f"{s}:{l}" for s, l in TABLE])
def test_mutation_trips_check(monkeypatch, suite, label):
    mutate, trials = TABLE[suite, label]
    mutate(monkeypatch)
    failed = [c.label for r in _reports(suite, trials) for c in r.failing()]
    assert label in failed, f"no trial in {trials} fails {label}"


@pytest.mark.parametrize("suite", sorted({s for s, _ in TABLE}))
def test_table_is_complete(suite):
    # The unmutated run over every range the table names passes, and emits
    # exactly the table's labels for this suite.
    trials = set(BASE_TRIALS)
    for (s, _), (_, rows) in TABLE.items():
        if s == suite:
            trials.update(rows)
    reports = _reports(suite, sorted(trials))
    assert all(r.passed for r in reports)
    emitted = {c.label for r in reports for c in r.checks}
    assert emitted == {l for s, l in TABLE if s == suite}


def test_every_suite_is_in_the_table():
    assert {s for s, _ in TABLE} == {t.value for t in TheoremId}
