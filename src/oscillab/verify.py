"""Per-instance certificates for the norm comparisons the toolkit exists to
check.

Every certificate compares quantities computed from one concrete instance
(field, weights, base family, measure); the multiplicative constants on the
right-hand sides are themselves computed from the same instance, so a failing
check is a genuine counterexample rather than a tolerance accident.  Checks
that need hypotheses an instance does not satisfy are reported as skipped
with the reason, never silently passed.
"""

from __future__ import annotations

import enum
import hashlib
import math

import numpy as np

from . import operators
from .errors import (AllDegenerate, BadParams, DegenerateInput, EmptyCorpus,
                     ExponentOutOfRange, IncompatibleBase, MissingInput,
                     OverflowGuard)
from .lattice import BaseFamily, BaseSet, Measure, build_base, fsum
from .oscillation import (CenteredDiff, DualHardy, TLSeq, TLSequence,
                          cz_selection, jn_exp_moment, oscillation_norm,
                          sharp_oscillation, tl_equivalence_probe)
from .reports import (DEFAULT_TOL, FAIL, PASS, CertificateReport, Check,
                      ConstantEstimate, make_check, skipped_check)
from .weights import (SelfImprovementParams, Weight, conjugate,
                      doubling_constant, muckenhoupt_constant,
                      reverse_holder_constant, self_improvement)


class TheoremId(enum.Enum):
    """The nine certified comparison suites, named by what they check."""

    HOLDER_BRIDGE = "holder-bridge"            # weighted vs plain norms
    WEIGHT_SWAP = "weight-swap"                # moving between two weights
    GAIN_EXPONENT = "gain-exponent"            # integrability self-improvement
    MAJORANT_SUFFICIENCY = "majorant-sufficiency"  # iterated-maximal majorant
    LOG_CONVEXITY = "log-convexity"            # interpolation in the exponent
    TWO_WEIGHT_BAND = "two-weight-band"        # two-weight equivalence band
    RECIPROCAL_RULE = "reciprocal-rule"        # divided-by-weight oscillation
    RECTANGLE_DECAY = "rectangle-decay"        # stopping time + exp moments
    SEQUENCE_SPACES = "sequence-spaces"        # cube-indexed sequence norms


def theorem_from_string(name: str) -> TheoremId:
    for tid in TheoremId:
        if name in (tid.value, tid.name):
            return tid
    raise BadParams(f"unknown suite {name!r}; choose from "
                    f"{[t.value for t in TheoremId]}")


def inputs_digest(theorem: TheoremId, inputs: dict) -> str:
    h = hashlib.sha256()
    h.update(theorem.value.encode())
    for key in sorted(inputs):
        val = inputs[key]
        h.update(key.encode())
        if isinstance(val, np.ndarray):
            h.update(np.ascontiguousarray(val, dtype=float).tobytes())
        elif isinstance(val, Weight):
            h.update(val.digest.encode())
        elif isinstance(val, Measure):
            h.update(val.digest.encode())
        elif isinstance(val, BaseFamily):
            h.update(val.base_id.encode())
        elif isinstance(val, TLSequence):
            for box, s in val.items_canonical():
                h.update(box.label().encode())
                h.update(repr(float(s)).encode())
        elif val is None:
            h.update(b"none")
        else:
            h.update(repr(val).encode())
    return h.hexdigest()[:16]


def _need(inputs: dict, *keys):
    missing = [k for k in keys if k not in inputs]
    if missing:
        raise MissingInput(f"certificate inputs lack {missing}")
    return [inputs[k] for k in keys]


def _norm(f, spec, w, p, base, measure):
    return oscillation_norm(f, spec, w, p, base, measure).value


def _centered_local(f: np.ndarray, box: BaseSet, measure: Measure) -> np.ndarray:
    """|f - c| on the box's cells, c the ambient-measure mean over the box."""
    sl = box.slices()
    m = measure.masses[sl]
    c = fsum(f[sl] * m) / fsum(m)
    return np.abs(f[sl] - c)


def _power_mean(local: np.ndarray, masses: np.ndarray, s: float) -> float:
    """(mean of local^s)^(1/s), overflow-safe for large s."""
    total = fsum(masses)
    pos = masses > 0
    vals = local[pos]
    ms = masses[pos]
    live = vals > 0
    if not np.any(live):
        return 0.0
    top = float(np.max(vals[live]))
    if abs(s * math.log(top)) < 600.0:
        return (fsum((vals ** s) * ms) / total) ** (1.0 / s)
    logs = s * np.log(vals[live]) + np.log(ms[live])
    shift = float(np.max(logs))
    val = shift + math.log(fsum(np.exp(logs - shift))) - math.log(total)
    return math.exp(val / s)


def _worst_pair(rows):
    """(lhs, rhs, box) minimizing relative slack over rows of (box, lhs, rhs)."""
    worst = None
    worst_rel = math.inf
    for box, lhs, rhs in rows:
        rel = (rhs - lhs) / max(abs(rhs), 1e-300)
        if rel < worst_rel:
            worst_rel = rel
            worst = (lhs, rhs, box)
    return worst


# ---------------------------------------------------------------------------
# Suite: weighted vs plain norms through a single averaging step.

def _holder_chain(f, spec, w: Weight, base: BaseFamily, measure: Measure,
                  p0: float, q: float, p: float, labels, tol: float):
    """The A_q / reverse-Holder chain between the w-weighted and the plain
    oscillation norm, for one rule, base and measure.

    Three checks, labelled in order by ``labels``: the weighted norm at 1
    against RH_{p0'} times the plain norm at p0; the plain norm at 1/q
    against A_q times the weighted norm at 1; the weighted norm at p against
    RH_{p0/(p0-p)}^(1/p) times the plain norm at p0.  The caller validates
    the exponents.  Returns (checks, meta).
    """
    unit = Weight.unit(base.domain)
    rh_dual = reverse_holder_constant(w, conjugate(p0), base, measure)
    weighted_1 = _norm(f, spec, w, 1.0, base, measure)
    plain_p0 = _norm(f, spec, unit, p0, base, measure)
    checks = [make_check(labels[0], weighted_1, rh_dual * plain_p0, tol)]

    aq = muckenhoupt_constant(w, q, base, measure)
    plain_low = _norm(f, spec, unit, 1.0 / q, base, measure)
    checks.append(make_check(labels[1], plain_low, aq * weighted_1, tol))

    rh_mid = reverse_holder_constant(w, p0 / (p0 - p), base, measure)
    weighted_p = _norm(f, spec, w, p, base, measure)
    checks.append(make_check(labels[2], weighted_p,
                             (rh_mid ** (1.0 / p)) * plain_p0, tol))

    meta = {"p0": p0, "q": q, "p": p, "rh_dual": rh_dual, "aq": aq,
            "rh_mid": rh_mid}
    return checks, meta


def _certify_holder_bridge(inputs: dict, tol: float):
    f, w, base, measure, p0, q = _need(inputs, "f", "w", "base", "measure",
                                       "p0", "q")
    p0, q = float(p0), float(q)
    p = float(inputs.get("p", 0.5 * (1.0 + p0)))
    if not p0 > 1.0 or not q > 1.0:
        raise ExponentOutOfRange(f"need p0 > 1 and q > 1, got {p0}, {q}")
    if not 0.0 < p < p0:
        raise ExponentOutOfRange(f"need 0 < p < p0, got p={p}, p0={p0}")
    return _holder_chain(f, CenteredDiff(), w, base, measure, p0, q, p,
                         ("weighted_vs_plain_highpower",
                          "plain_lowpower_vs_weighted",
                          "weighted_midpower_vs_plain"), tol)


# ---------------------------------------------------------------------------
# Suite: moving a norm between two different weights.

def _certify_weight_swap(inputs: dict, tol: float):
    f, w, w0, base, measure, p, q, delta, sigma = _need(
        inputs, "f", "w", "w0", "base", "measure", "p", "q", "delta", "sigma")
    p, q, delta, sigma = float(p), float(q), float(delta), float(sigma)
    for name, val in (("p", p), ("q", q), ("delta", delta), ("sigma", sigma)):
        if not val > 1.0:
            raise ExponentOutOfRange(f"need {name} > 1, got {val}")
    spec = CenteredDiff()
    unit = Weight.unit(base.domain)
    checks = []

    r = p * conjugate(delta)
    ap0 = muckenhoupt_constant(w0, p, base, measure)
    rh_w = reverse_holder_constant(w, delta, base, measure)
    lhs = _norm(f, spec, w, 1.0, base, measure)
    rhs = (ap0 ** (1.0 / r)) * rh_w * _norm(f, spec, w0, r, base, measure)
    checks.append(make_check("swap_forward", lhs, rhs, tol))

    r2 = q * conjugate(sigma)
    aq_w = muckenhoupt_constant(w, q, base, measure)
    rh_w0 = reverse_holder_constant(w0, sigma, base, measure)
    lhs2 = _norm(f, spec, w0, 1.0 / r2, base, measure)
    rhs2 = aq_w * (rh_w0 ** r2) * _norm(f, spec, w, 1.0, base, measure)
    checks.append(make_check("swap_backward", lhs2, rhs2, tol))

    lhs3 = _norm(f, spec, unit, 1.0, base, measure)
    rhs3 = _norm(f, spec, unit, r, base, measure)
    checks.append(make_check("plain_power_monotone", lhs3, rhs3, tol))

    meta = {"p": p, "q": q, "delta": delta, "sigma": sigma, "r": r, "r2": r2,
            "ap_source": ap0, "rh_target": rh_w, "aq_target": aq_w,
            "rh_source": rh_w0}
    return checks, meta


# ---------------------------------------------------------------------------
# Suite: self-improvement of integrability for strength-bounded weights.

def _certify_gain_exponent(inputs: dict, tol: float):
    f, w, base, measure, p = _need(inputs, "f", "w", "base", "measure", "p")
    p = float(p)
    params = inputs.get("params") or SelfImprovementParams(
        setting="euclidean-cubes", dims=base.domain.dims)
    ap = muckenhoupt_constant(w, p, base, measure)
    t_in = float(inputs.get("t", ap))
    t_used = max(t_in, ap, 1.0)
    delta_exp, kcap = self_improvement(params, p, t_used)
    dual = conjugate(delta_exp)
    rh_gain = reverse_holder_constant(w, delta_exp, base, measure)
    checks = [make_check("improved_constant_cap", rh_gain, kcap, tol)]

    f = np.asarray(f, dtype=float)
    wm = w.values * measure.masses
    rows = []
    for box in base.sets:
        sl = box.slices()
        local = _centered_local(f, box, measure)
        lhs_b = fsum(local * wm[sl]) / fsum(wm[sl])
        rhs_b = rh_gain * _power_mean(local, measure.masses[sl], dual)
        rows.append((box, lhs_b, rhs_b))
    lhs_w, rhs_w, arg = _worst_pair(rows)
    checks.append(make_check("improved_average_worst_set", lhs_w, rhs_w, tol))
    lhs_g = max(r[1] for r in rows)
    rhs_g = max(r[2] for r in rows)
    checks.append(make_check("improved_average_global", lhs_g, rhs_g, tol))

    meta = {"p": p, "t_input": t_in, "strength": ap, "t_used": t_used,
            "gain_exponent": delta_exp, "gain_dual": dual, "cap": kcap,
            "rh_at_gain": rh_gain, "setting": params.setting,
            "worst_set": arg.label()}
    return checks, meta


# ---------------------------------------------------------------------------
# Suite: sufficiency via an iterated-maximal majorant weight.

def build_majorant(f, base: BaseFamily, measure: Measure, p: float,
                   tol: float = 1e-10):
    """Majorant weight for the sufficiency route: seed the iterated-maximal
    series with the (p-1)-th power of the extremal set's oscillation.

    Returns (majorant weight, extremal set, plain p-norm value, |f - c| on
    the extremal set's cells, seed), the seed being that oscillation to the
    (p-1)-th power on the extremal set and 0 elsewhere.
    """
    p = float(p)
    if not p > 1.0:
        raise ExponentOutOfRange(f"the majorant route needs p > 1, got {p}")
    if base.kind != "dyadic-cubes":
        raise IncompatibleBase("the majorant route is certified over dyadic cubes")
    f = np.asarray(f, dtype=float)
    rep = oscillation_norm(f, CenteredDiff(), Weight.unit(base.domain), p,
                           base, measure)
    if rep.value <= 0.0:
        raise DegenerateInput("a constant field majorizes trivially")
    star = rep.extremal_set
    local_star = _centered_local(f, star, measure)
    g = np.zeros(base.domain.sides)
    g[star.slices()] = local_star ** (p - 1.0)
    u = operators.rubio_de_francia(g, conjugate(p), base, measure,
                                   operators.MaximalKind("dyadic"), tol=tol)
    return u, star, rep.value, local_star, g


def _certify_majorant_sufficiency(inputs: dict, tol: float):
    f, base, measure, p = _need(inputs, "f", "base", "measure", "p")
    p = float(p)
    f = np.asarray(f, dtype=float)
    spec = CenteredDiff()
    u, star, plain_norm, local_star, g = build_majorant(f, base, measure, p)
    dual = conjugate(p)
    prov = u.provenance["checks"]
    b = float(u.provenance["norm_bound"])

    checks = [
        make_check("majorant_dominates_seed",
                   float(np.max(g - u.values)), 0.0, tol),
        make_check("majorant_self_bound", prov["self_bound_ratio"],
                   prov["self_bound_limit"], tol),
        make_check("majorant_power_cost", prov["lp_ratio"], 2.0, tol),
    ]

    sl = star.slices()
    m_star = measure.masses[sl]
    mass_star = fsum(m_star)
    avg_power = fsum((local_star ** p) * m_star) / mass_star
    avg_u = fsum(u.values[sl] * m_star) / mass_star
    norm_u = _norm(f, spec, u, 1.0, base, measure)
    checks.append(make_check("extremal_power_vs_majorant", avg_power,
                             avg_u * norm_u, tol))
    checks.append(make_check("majorant_mass_bound", avg_u,
                             2.0 * avg_power ** (1.0 / dual), tol))
    checks.append(make_check("plain_norm_vs_majorant_norm", plain_norm,
                             2.0 * norm_u, 10.0 * tol))

    meta = {"p": p, "dual": dual, "norm_bound": b,
            "iterations": int(u.provenance["iterations"]),
            "majorant_digest": u.digest, "extremal_set": star.label(),
            "plain_norm": plain_norm, "majorant_norm": norm_u}
    return checks, meta


# ---------------------------------------------------------------------------
# Suite: log-convexity (interpolation) of the norm in its exponent.

def _certify_log_convexity(inputs: dict, tol: float):
    f, w, base, measure, r, eps = _need(inputs, "f", "w", "base", "measure",
                                        "r", "eps")
    r, eps = float(r), float(eps)
    if not r > 0 or not 0.0 < eps < 0.5 * r:
        raise ExponentOutOfRange(f"need r > 0 and 0 < eps < r/2, got r={r}, eps={eps}")
    spec = CenteredDiff()
    n_lo = _norm(f, spec, w, r - 2.0 * eps, base, measure)
    n_mid = _norm(f, spec, w, r - eps, base, measure)
    n_hi = _norm(f, spec, w, r, base, measure)
    checks = [
        make_check("interpolation_product", n_mid ** (r - eps),
                   (n_lo ** (0.5 * (r - 2.0 * eps))) * (n_hi ** (0.5 * r)), tol),
        make_check("power_monotone_low", n_lo, n_mid, tol),
        make_check("power_monotone_high", n_mid, n_hi, tol),
    ]
    meta = {"r": r, "eps": eps, "norm_low": n_lo, "norm_mid": n_mid,
            "norm_high": n_hi}
    return checks, meta


# ---------------------------------------------------------------------------
# Suite: the two-weight equivalence band.

def _split(f, v: Weight, w: Weight, base: BaseFamily, measure: Measure,
           p: float, q: float, delta: float, tol: float,
           per_set: bool = False):
    """The two-weight split: C = RH_delta(v) * A_q(w)^(1/(q delta')) and the
    ``split_global`` check ||f||_{v,eps}^eps <= C (||f||_{w,p}^p)^(1/(q delta'))
    with eps = p/(q delta'), both norms centred in the v-reweighted measure.

    Returns (check, split_c, rh_v, aq_w, rep_l, rep_r), the last two the
    norm reports at eps and at p (with rows when ``per_set``).
    """
    ddual = conjugate(delta)
    eps = p / (q * ddual)
    spec_v = CenteredDiff(v)
    rh_v = reverse_holder_constant(v, delta, base, measure)
    aq_w = muckenhoupt_constant(w, q, base, measure)
    split_c = rh_v * aq_w ** (1.0 / (q * ddual))
    rep_l = oscillation_norm(f, spec_v, v, eps, base, measure, per_set=per_set)
    rep_r = oscillation_norm(f, spec_v, w, p, base, measure, per_set=per_set)
    check = make_check(
        "split_global", rep_l.value ** eps,
        split_c * (rep_r.value ** p) ** (1.0 / (q * ddual)), tol)
    return check, split_c, rh_v, aq_w, rep_l, rep_r


def _certify_two_weight_band(inputs: dict, tol: float):
    f, v, w, base, measure, p, q, delta = _need(
        inputs, "f", "v", "w", "base", "measure", "p", "q", "delta")
    p, q, delta = float(p), float(q), float(delta)
    if not p > 0 or not q > 1.0 or not delta > 1.0:
        raise ExponentOutOfRange(
            f"need p > 0, q > 1, delta > 1, got {p}, {q}, {delta}")
    f = np.asarray(f, dtype=float)
    ddual = conjugate(delta)
    eps = p / (q * ddual)
    spec_v = CenteredDiff(v)
    spec_1 = CenteredDiff()
    unit = Weight.unit(base.domain)

    split_global, split_c, rh_v, aq_w, rep_l, rep_r = _split(
        f, v, w, base, measure, p, q, delta, tol, per_set=True)
    rows = []
    for (box, val_l), (_, val_r) in zip(rep_l.per_set, rep_r.per_set):
        lhs_b = val_l ** eps
        rhs_b = split_c * (val_r ** p) ** (1.0 / (q * ddual))
        rows.append((box, lhs_b, rhs_b))
    lhs_w, rhs_w, arg = _worst_pair(rows)
    checks = [make_check("split_worst_set", lhs_w, rhs_w, tol), split_global]

    bmo = _norm(f, spec_1, unit, 1.0, base, measure)
    sharp = sharp_oscillation(f, base, measure).value
    n_v_center = _norm(f, spec_v, unit, 1.0, base, measure)
    n_v_weighted = _norm(f, spec_1, v, 1.0, base, measure)
    checks.append(make_check("centered_vs_median", bmo, 2.0 * sharp, tol))
    checks.append(make_check("median_vs_shifted_center", sharp, n_v_center, tol))
    checks.append(make_check("shifted_center_triangle", n_v_center,
                             bmo + n_v_weighted, tol))
    checks.append(make_check(
        "weighted_tail", n_v_weighted,
        rh_v * _norm(f, spec_1, unit, ddual, base, measure), tol))

    rh_w2 = reverse_holder_constant(w, 2.0, base, measure)
    target = rep_r.value
    checks.append(make_check(
        "band_upper", target,
        (rh_w2 ** (1.0 / p)) * _norm(f, spec_v, unit, 2.0 * p, base, measure),
        tol))

    nv_eps = rep_l.value
    rho = n_v_center / nv_eps if nv_eps > 0 else 0.0
    checks.append(make_check("band_lower", bmo,
                             2.0 * rho * (split_c ** (1.0 / eps)) * target, tol))

    meta = {"p": p, "q": q, "delta": delta, "eps": eps, "split_constant": split_c,
            "rh_v": rh_v, "aq_w": aq_w, "rho": rho, "band_target": target,
            "plain_norm": bmo, "worst_set": arg.label()}
    return checks, meta


# ---------------------------------------------------------------------------
# Suite: oscillation divided by the weight, in the weight's own measure.

def _certify_reciprocal_rule(inputs: dict, tol: float):
    f, w, v, base, p0, q = _need(inputs, "f", "w", "v", "base", "p0", "q")
    p0, q = float(p0), float(q)
    p = float(inputs.get("p", 0.5 * (1.0 + p0)))
    if not p0 > 1.0 or not q > 1.0 or not 0.0 < p < p0:
        raise ExponentOutOfRange(f"need p0, q > 1 and 0 < p < p0, "
                                 f"got {p0}, {q}, {p}")
    f = np.asarray(f, dtype=float)
    mu_w = Measure.density(base.domain, w.values)
    base_w = build_base(base.domain, mu_w, base.kind, base.min_scale)
    rep = oscillation_norm(f, DualHardy(w), Weight.unit(base.domain), 1.0,
                           base_w, mu_w)
    direct = -math.inf
    for box in base_w.sets:
        sl = box.slices()
        c = float(np.mean(f[sl]))
        val = fsum(np.abs(f[sl] - c)) / fsum(w.values[sl])
        direct = max(direct, val)
    gap = abs(rep.value - direct)
    scale = max(abs(rep.value), abs(direct), 1e-300)
    checks, meta = _holder_chain(f, DualHardy(w), v, base_w, mu_w, p0, q, p,
                                 ("reciprocal_weighted_vs_plain",
                                  "reciprocal_lowpower_vs_weighted",
                                  "reciprocal_midpower_vs_plain"), tol)
    meta["norm_value"] = rep.value
    return [make_check("direct_formula_match", gap, tol * scale, 0.0),
            *checks], meta


# ---------------------------------------------------------------------------
# Suite: stopping-time selection and exponential decay on rectangle bases.

def _certify_rectangle_decay(inputs: dict, tol: float):
    f, w, base, measure = _need(inputs, "f", "w", "base", "measure")
    f = np.asarray(f, dtype=float)
    spec = CenteredDiff()
    bmo = _norm(f, spec, w, 1.0, base, measure)
    if bmo <= 0.0:
        raise DegenerateInput("constant fields cannot exercise the stopping time")
    fn = f / bmo
    dw = doubling_constant(w, measure)
    if dw * dw > 700.0:
        raise OverflowGuard("the doubling constant is too large to exponentiate")
    root = base.domain.full_box()
    lam = float(inputs.get("lam", 2.0 * math.exp(dw * dw)))
    sel = cz_selection(fn, root, w, lam, base, measure)

    cover = np.zeros(base.domain.sides)
    for box in sel.selected:
        cover[box.slices()] += 1.0
    overlap = float(max(0.0, float(np.max(cover)) - 1.0)) if sel.selected else 0.0
    checks = [make_check("stopping_disjoint", overlap, 0.0, tol)]

    window = (dw ** sel.d_max) * max(lam, sel.avg_root)
    realized = sel.realized_max_over_lam * lam
    checks.append(make_check("stopping_window", realized, window, tol))
    checks.append(make_check("stopping_outside", sel.outside_max, lam, tol))
    checks.append(make_check("stopping_mass", sel.mass_selected,
                             sel.mass_root * sel.avg_root / lam, tol))

    jn = jn_exp_moment(f, base, w, measure)
    checks.append(make_check("exp_moment_cap", jn.t_value, 2.0 * math.e, tol))
    spread = float(np.max(fn) - np.min(fn))
    jn1 = jn_exp_moment(f, base, w, measure, big_n=2.0 * spread + 1.0)
    jn2 = jn_exp_moment(f, base, w, measure, big_n=4.0 * spread + 2.0)
    checks.append(make_check("exp_moment_truncation_stable",
                             abs(jn1.t_value - jn2.t_value),
                             1e-9 * max(jn1.t_value, jn2.t_value), 0.0))

    meta = {"lam": lam, "doubling": dw, "selected": len(sel.selected),
            "avg_root": sel.avg_root, "outside_max": sel.outside_max,
            "exp_moment": jn.t_value, "eta": jn.eta, "bmo": bmo,
            "tail_c1": jn.c1_hat, "tail_c2": jn.c2_hat}

    if all(k in inputs for k in ("v", "q", "delta")):
        v, q, delta = inputs["v"], float(inputs["q"]), float(inputs["delta"])
        p = float(inputs.get("p", 1.0))
        check, split_c, *_ = _split(f, v, w, base, measure, p, q, delta, tol)
        checks.append(check)
        meta.update({"q": q, "delta": delta, "p": p, "split_constant": split_c})
    return checks, meta


# ---------------------------------------------------------------------------
# Suite: cube-indexed sequence norms, plain vs weighted.

def _certify_sequence_spaces(inputs: dict, tol: float):
    seq, w, base, measure, alpha, q, p = _need(
        inputs, "seq", "w", "base", "measure", "alpha", "q", "p")
    alpha, q, p = float(alpha), float(q), float(p)
    probe = tl_equivalence_probe(seq, alpha, q, p, w, base, measure)
    checks = []
    if p >= q and float(np.max(np.abs(w.values - 1.0))) == 0.0:
        checks.append(make_check("power_mean_direction", probe.unweighted_nu,
                                 probe.weighted_nu, tol))
    else:
        checks.append(skipped_check("power_mean_direction",
                                    "needs matching powers and the unit weight"))

    spec = TLSeq(alpha=alpha, q=q)
    unit = Weight.unit(base.domain)
    rh2 = reverse_holder_constant(w, 2.0, base, measure)
    lhs = _norm(seq, spec, w, 1.0, base, measure)
    rhs = rh2 * _norm(seq, spec, unit, 2.0, base, measure)
    checks.append(make_check("sequence_weighted_vs_plain", lhs, rhs, tol))

    a2 = muckenhoupt_constant(w, 2.0, base, measure)
    lhs2 = _norm(seq, spec, unit, 0.5, base, measure)
    rhs2 = a2 * _norm(seq, spec, w, 1.0, base, measure)
    checks.append(make_check("sequence_lowpower_vs_weighted", lhs2, rhs2, tol))

    finite = math.isfinite(probe.ratio) and probe.ratio > 0
    checks.append(Check("equivalence_ratio_finite", 0.0, probe.ratio,
                        PASS if finite else FAIL,
                        None if finite else "ratio left (0, inf)"))

    meta = {"alpha": alpha, "q": q, "p": p, "plain_nu": probe.unweighted_nu,
            "weighted_nu": probe.weighted_nu, "ratio": probe.ratio,
            "support": seq.support_size()}
    return checks, meta


_CERTIFIERS = {
    TheoremId.HOLDER_BRIDGE: _certify_holder_bridge,
    TheoremId.WEIGHT_SWAP: _certify_weight_swap,
    TheoremId.GAIN_EXPONENT: _certify_gain_exponent,
    TheoremId.MAJORANT_SUFFICIENCY: _certify_majorant_sufficiency,
    TheoremId.LOG_CONVEXITY: _certify_log_convexity,
    TheoremId.TWO_WEIGHT_BAND: _certify_two_weight_band,
    TheoremId.RECIPROCAL_RULE: _certify_reciprocal_rule,
    TheoremId.RECTANGLE_DECAY: _certify_rectangle_decay,
    TheoremId.SEQUENCE_SPACES: _certify_sequence_spaces,
}


def certify(theorem: TheoremId | str, inputs: dict,
            tol: float = DEFAULT_TOL) -> CertificateReport:
    """Run one suite on one instance and return its certificate."""
    if isinstance(theorem, str):
        theorem = theorem_from_string(theorem)
    checks, meta = _CERTIFIERS[theorem](inputs, tol)
    return CertificateReport(theorem=theorem.value,
                             inputs_digest=inputs_digest(theorem, inputs),
                             checks=checks, meta=meta)


def run_suite(theorem: TheoremId | str, trials: int, seed: int = 0,
              tol: float = DEFAULT_TOL) -> dict:
    """Certify ``trials`` sampled instances; the one verify driver.

    Returns the tally with ``records``, one per trial in order: its
    ``CertificateReport``, or the reason string of the ``DegenerateInput``
    that skipped it.  ``reports`` holds the reports alone.
    """
    from . import corpus

    if isinstance(theorem, str):
        theorem = theorem_from_string(theorem)
    if trials < 1:
        raise BadParams(f"need at least one trial, got {trials}")
    records = []
    for trial in range(trials):
        inputs = corpus.sample_inputs(theorem, seed, trial)
        try:
            records.append(certify(theorem, inputs, tol))
        except DegenerateInput as exc:
            records.append(str(exc))
    reports = [r for r in records if not isinstance(r, str)]
    failures = sum(1 for r in reports if not r.passed)
    worst = math.inf
    for r in reports:
        for c in r.checks:
            if c.status == "skipped" or c.rhs is None:
                continue
            rel = (c.rhs - c.lhs) / max(abs(c.rhs), 1e-300)
            worst = min(worst, rel)
    return {"theorem": theorem.value, "trials": trials, "seed": seed,
            "tol": tol, "records": records, "reports": reports,
            "failures": failures,
            "degenerate_skipped": len(records) - len(reports),
            "min_relative_slack": worst if math.isfinite(worst) else None}


# ---------------------------------------------------------------------------
# Corpus-level constant estimation.

ESTIMATE_KINDS = ("c_pq", "psi")


def _corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for item in corpus:
        h.update(np.ascontiguousarray(item["f"], dtype=float).tobytes())
        h.update(item["w"].digest.encode())
        h.update(item["base"].base_id.encode())
        h.update(item["measure"].digest.encode())
    return h.hexdigest()[:16]


def estimate_constant(kind: str, corpus, args: dict) -> ConstantEstimate:
    """Empirical extremal ratio over a corpus of instances, for the two
    kinds the ``sweep`` command tabulates.

    ``c_pq``: plain norm at p over plain norm at q.
    ``psi``: weighted norm over the plain norm at the improved dual exponent,
    restricted to items whose strength constant at p is at most t.
    """
    if kind not in ESTIMATE_KINDS:
        raise BadParams(f"unknown estimate kind {kind!r}")
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("no instances to estimate from")
    spec = CenteredDiff()
    values = []
    skipped = 0
    for item in corpus:
        f, w, base, measure = item["f"], item["w"], item["base"], item["measure"]
        unit = Weight.unit(base.domain)
        if kind == "c_pq":
            hi = _norm(f, spec, unit, float(args["p"]), base, measure)
            lo = _norm(f, spec, unit, float(args["q"]), base, measure)
            if lo <= 0.0:
                skipped += 1
                continue
            values.append(hi / lo)
        else:  # psi
            p, t = float(args["p"]), float(args["t"])
            if muckenhoupt_constant(w, p, base, measure) > t:
                skipped += 1
                continue
            params = item.get("params") or SelfImprovementParams(
                setting="euclidean-cubes", dims=base.domain.dims)
            delta_exp, _ = self_improvement(params, p, max(t, 1.0))
            denom = _norm(f, spec, unit, conjugate(delta_exp), base, measure)
            if denom <= 0.0:
                skipped += 1
                continue
            values.append(_norm(f, spec, w, 1.0, base, measure) / denom)
    if not values:
        raise AllDegenerate(f"every instance was skipped for {kind!r}")
    return ConstantEstimate(kind=kind, value=max(values),
                            corpus_digest=_corpus_digest(corpus),
                            args={k: float(v) if isinstance(v, (int, float)) else v
                                  for k, v in args.items()},
                            n_used=len(values), n_skipped=skipped)
