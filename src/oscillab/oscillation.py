"""Oscillation norms over a base family, the sharp (median) oscillation,
Calderon-Zygmund style stopping-time selection, and exponential-moment
probes for exponential decay of oscillation distributions.

A local oscillation rule turns (field, base set) into a nonnegative field
supported on the set; the norm is the worst weighted p-mean of that field
over the family.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (BadParams, DegenerateInput, EmptySequence,
                     ExponentOutOfRange, IncompatibleSpec, NotDyadic, ZeroMass)
from .lattice import (BaseFamily, BaseSet, GridDomain, Measure, box_sums,
                      fsum, simultaneous_children)
from .weights import Weight


@dataclass(frozen=True)
class CenteredDiff:
    """|f - c| with c the average of f in the measure reweighted by v
    (v None means the ambient measure itself)."""

    v: Weight | None = None


@dataclass(frozen=True)
class DualHardy:
    """|f - c| / w with c the plain (unweighted) cell mean.

    Only meaningful when the ambient measure is the density measure built
    from the same w; the norm routine enforces that.
    """

    w: Weight


@dataclass(frozen=True)
class TLSeq:
    """Square-function style rule for sequences indexed by dyadic cubes:
    sum over cubes inside the set of (|Q|^(-1/2 - alpha/n) |s_Q| 1_Q)^q,
    cube size normalized by the total cell count."""

    alpha: float
    q: float

    def __post_init__(self):
        if not self.q > 0:
            raise BadParams(f"the aggregation power must be positive, got {self.q}")


@dataclass(frozen=True)
class TLSequence:
    """Coefficients indexed by dyadic cubes of a grid domain."""

    domain: GridDomain
    coeffs: Mapping[BaseSet, float] = field(default_factory=dict)

    def items_canonical(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def support_size(self) -> int:
        return sum(1 for _, s in self.coeffs.items() if s != 0.0)


@dataclass(frozen=True)
class NormReport:
    value: float
    p: float
    weight_id: str
    extremal_set: BaseSet
    per_set: tuple | None = None


def _sequence_field(f, spec: TLSeq, base_set: BaseSet,
                    domain: GridDomain) -> np.ndarray:
    """The TLSeq oscillation field of one base set, as a full-grid array
    that is only consulted on the set's own cells."""
    if not isinstance(f, TLSequence):
        raise IncompatibleSpec("sequence rule needs a cube-indexed sequence")
    total = float(domain.num_cells)
    n = float(domain.dims)
    out = np.zeros(domain.sides)
    for cube, s in f.items_canonical():
        if s == 0.0 or not base_set.contains_box(cube):
            continue
        size_norm = cube.cell_count() / total
        coef = (size_norm ** (-0.5 - spec.alpha / n)) * abs(s)
        out[cube.slices()] += coef ** spec.q
    return out


def oscillation_norm(f, spec, w: Weight, p: float, base: BaseFamily,
                     measure: Measure, per_set: bool = False) -> NormReport:
    """max over base sets of ((1/w-mass) sum local^p w m)^(1/p).

    ``CenteredDiff`` and ``DualHardy`` run as a shape-grouped kernel: one
    ``box_sums`` pass per linear array (the w-masses, and the centre
    numerators and masses of ``CenteredDiff``), then the boxes in runs of
    one shape, each gathered as (boxes, cells) blocks so that local^p w m
    is one numpy expression per block, and one ``math.fsum`` per box.  The
    ``DualHardy`` centre, a plain cell mean, stays one reduction per box.
    ``TLSeq`` builds its field box by box.  Either way the result, the
    extremal set (the first strict maximum in canonical order) and the
    first error in canonical order are those of a box-by-box loop; only an
    overflow in a linear sum differs, as ``box_sums`` differs from ``fsum``
    (see ``lattice``).
    """
    if not p > 0:
        raise ExponentOutOfRange(f"the norm exponent must be positive, got {p}")
    if isinstance(spec, TLSeq) and base.kind != "dyadic-cubes":
        raise IncompatibleSpec("sequence norms are defined over dyadic cubes")
    wm = w.values * measure.masses
    if isinstance(spec, (CenteredDiff, DualHardy)):
        vals, failure = _grouped_means(np.asarray(f, dtype=float), spec, wm,
                                       p, base, measure)
    else:
        vals, failure = _sequence_means(f, spec, wm, p, base), None
    best = -1.0
    best_set = None
    rows = [] if per_set else None
    for box, val in zip(base.sets, vals):
        if rows is not None:
            rows.append((box, val ** (1.0 / p)))
        if val > best:
            best = val
            best_set = box
    if failure is not None:
        raise failure
    return NormReport(value=best ** (1.0 / p), p=p, weight_id=w.digest,
                      extremal_set=best_set,
                      per_set=tuple(rows) if rows is not None else None)


def _sequence_means(f, spec, wm: np.ndarray, p: float, base: BaseFamily):
    """Yield each box's w-mean of local^p, box by box."""
    for box in base.sets:
        sl = box.slices()
        wmass = fsum(wm[sl])
        if wmass <= 0.0:
            raise ZeroMass(f"no weighted mass on {box.label()}")
        if not isinstance(spec, TLSeq):
            raise IncompatibleSpec(
                f"unknown oscillation rule {type(spec).__name__}")
        local = _sequence_field(f, spec, box, base.domain)
        yield fsum(((local ** p) * wm)[sl]) / wmass


def _grouped_means(arr: np.ndarray, spec, wm: np.ndarray, p: float,
                   base: BaseFamily, measure: Measure):
    """Each box's w-mean of local^p, up to the first box that fails a check,
    and that box's error (None when every box passes).

    The boxes before the failing one are still evaluated, so that an
    overflow they raise comes first, as it would in a box-by-box loop.
    """
    lo, hi = base.corners()
    wmass = box_sums(wm, lo, hi)
    zero = wmass <= 0.0
    if isinstance(spec, CenteredDiff):
        if spec.v is None:
            m, mass = measure.masses, base.set_masses(measure)
        else:
            m = measure.masses * spec.v.values
            mass = box_sums(m, lo, hi)
        bad = np.flatnonzero(zero | (mass <= 0.0))
        stop = int(bad[0]) if len(bad) else len(base)
        # Boxes from the failing one on may have no mass; their centres
        # are never used.
        with np.errstate(divide="ignore", invalid="ignore"):
            centre = box_sums(arr * m, lo, hi) / mass
        scale = None
    else:
        compatible = (measure.kind == "density-over-uniform"
                      and np.array_equal(measure.masses, spec.w.values))
        bad = np.flatnonzero(zero)
        stop = 0 if not compatible else int(bad[0]) if len(bad) else len(base)
        # The plain mean, np.mean's way: np.add.reduce over the box's own
        # view (its summation order depends on the view's layout, so this
        # stays box by box), then one division by the cell count.
        views = (arr[box.slices()] for box in base.sets[:stop])
        centre = np.array([float(np.add.reduce(v, axis=None)) / v.size
                           for v in views])
        scale = spec.w.values.ravel()
    flat, wm_flat = arr.ravel(), wm.ravel()
    wmass = wmass.tolist()
    vals = []
    # A power past the float range gives inf, which the caller reports as a
    # non-finite norm; numpy's warning would only repeat that.  One errstate
    # for the whole loop, not one per block: entering one costs about 2 us.
    with np.errstate(over="ignore"):
        for start, _, idx in base.shape_runs():
            if start >= stop:
                break
            idx = idx[:stop - start]
            local = np.abs(flat[idx] - centre[start:start + len(idx), None])
            if scale is not None:
                local = local / scale[idx]
            terms = (local ** p) * wm_flat[idx]
            vals.extend(math.fsum(row) / wmass[k]
                        for k, row in enumerate(terms.tolist(), start))
    if stop == len(base):
        return vals, None
    box = base.sets[stop]
    if zero[stop]:
        return vals, ZeroMass(f"no weighted mass on {box.label()}")
    if isinstance(spec, DualHardy):
        return vals, IncompatibleSpec(
            "the reciprocal-weight rule needs the ambient measure to be "
            "the density measure of the same weight")
    return vals, ZeroMass(f"no mass on {box.label()}")


def weighted_median(values: np.ndarray, masses: np.ndarray) -> float:
    """Smallest value whose cumulative mass reaches half the total."""
    v = np.asarray(values, dtype=float).ravel()
    m = np.asarray(masses, dtype=float).ravel()
    total = fsum(m)
    if total <= 0:
        raise ZeroMass("weighted median of a zero-mass set")
    order = np.argsort(v, kind="stable")
    csum = np.cumsum(m[order])
    idx = int(np.searchsorted(csum, 0.5 * total))
    idx = min(idx, len(order) - 1)
    return float(v[order[idx]])


def sharp_oscillation(f: np.ndarray, base: BaseFamily,
                      measure: Measure) -> NormReport:
    """Worst average distance to the set's weighted median (exponent 1)."""
    f = np.asarray(f, dtype=float)
    best = -1.0
    best_set = None
    for box in base.sets:
        sl = box.slices()
        m = measure.masses[sl]
        med = weighted_median(f[sl], m)
        val = fsum(np.abs(f[sl] - med) * m) / fsum(m)
        if val > best:
            best = val
            best_set = box
    return NormReport(value=best, p=1.0, weight_id="median", extremal_set=best_set)


@dataclass(frozen=True)
class CZSelection:
    """Maximal dyadic sub-boxes where the local average first exceeds the
    threshold, plus the facts a covering argument consumes."""

    selected: tuple
    lam: float
    root: BaseSet
    avg_root: float
    dw: float
    d_max: int
    realized_max_over_lam: float
    outside_max: float
    mass_selected: float
    mass_root: float


def cz_selection(f: np.ndarray, root: BaseSet, w: Weight, lam: float,
                 base: BaseFamily, measure: Measure) -> CZSelection:
    """Stopping-time selection below a root box.

    Walk the simultaneous-bisection tree; keep a child the first time its
    weighted average of |f - c_root| exceeds lam.  Selected boxes are
    disjoint; each one's average is at most D^d * max(lam, root average)
    where D is the weight-measure doubling constant and d the number of
    axes a bisection splits; cells never captured sit at or below lam in
    the pointwise-average sense (their singleton average is the value
    itself when min_scale is 0; here we report the max over leaves).
    """
    if base.kind not in ("dyadic-cubes", "dyadic-rectangles"):
        raise NotDyadic("stopping-time selection needs a dyadic base")
    if lam <= 0:
        raise BadParams(f"the threshold must be positive, got {lam}")
    f = np.asarray(f, dtype=float)
    wm = w.values * measure.masses
    mass_root = fsum(wm[root.slices()])
    if mass_root <= 0:
        raise ZeroMass(f"no weighted mass on the root {root.label()}")
    c = fsum((f * wm)[root.slices()]) / mass_root
    osc = np.abs(f - c)

    def wavg(box: BaseSet) -> float:
        sl = box.slices()
        mass = fsum(wm[sl])
        if mass <= 0:
            return -1.0  # invisible; never selected
        return fsum((osc * wm)[sl]) / mass

    selected = []
    leaves_max = 0.0

    def walk(box: BaseSet):
        nonlocal leaves_max
        kids = simultaneous_children(box)
        if not kids:
            a = wavg(box)
            if a > leaves_max:
                leaves_max = a
            return
        for kid in kids:
            a = wavg(kid)
            if a < 0:
                continue
            if a > lam:
                selected.append(kid)
            else:
                walk(kid)

    avg_root = wavg(root)
    walk(root)
    selected.sort(key=lambda b: b.sort_key())
    d_max = sum(1 for s in root.sides() if s >= 2)
    realized = max((wavg(b) for b in selected), default=0.0) / lam
    mass_selected = fsum(np.array([fsum(wm[b.slices()]) for b in selected])) \
        if selected else 0.0
    from .weights import doubling_constant
    dw = doubling_constant(w, measure)
    return CZSelection(selected=tuple(selected), lam=lam, root=root,
                       avg_root=avg_root, dw=dw, d_max=d_max,
                       realized_max_over_lam=realized,
                       outside_max=leaves_max,
                       mass_selected=mass_selected, mass_root=mass_root)


@dataclass(frozen=True)
class JNReport:
    """Truncated exponential moment of normalized oscillations, with a
    crude tail-decay fit on the extremal set."""

    t_value: float
    eta: float
    big_n: float
    dw: float
    bmo_norm: float
    extremal_set: BaseSet
    c1_hat: float
    c2_hat: float


def jn_exp_moment(f: np.ndarray, base: BaseFamily, w: Weight,
                  measure: Measure, eta: float | None = None,
                  big_n: float = 64.0) -> JNReport:
    """max over base sets of the w-average of exp(min(osc, N)/eta), where
    osc = |f - c_B| / bmo with c_B the w-average on the set and bmo the
    weighted oscillation norm (exponent 1) of f itself.

    The default eta is 2 e^(D^2), D the doubling constant of w dm; at that
    scale a covering recursion caps the moment at 2e independently of f.

    Cost: one ``box_sums`` pass each for the w-masses and the centre
    numerators, then the boxes in runs of one shape, each gathered as
    (boxes, cells) blocks so that exp(min(osc, N)/eta - shift) w m is one
    numpy expression per block, and one ``math.fsum`` per box; the results
    equal a box-by-box loop bit for bit.
    """
    if big_n <= 0:
        raise BadParams(f"the truncation level must be positive, got {big_n}")
    f = np.asarray(f, dtype=float)
    wm = w.values * measure.masses
    bmo = oscillation_norm(f, CenteredDiff(), w, 1.0, base, measure).value
    if bmo <= 0.0:
        raise DegenerateInput("constant fields have no oscillation to probe")
    from .weights import doubling_constant
    dw = doubling_constant(w, measure)
    if eta is None:
        eta = 2.0 * math.exp(dw * dw)
    if eta <= 0:
        raise BadParams(f"the tempering scale must be positive, got {eta}")
    # Every box has positive w-mass: the norm above raised otherwise.
    lo, hi = base.corners()
    wmass = box_sums(wm, lo, hi)
    centre = box_sums(f * wm, lo, hi) / wmass
    flat, wm_flat = f.ravel(), wm.ravel()
    wmass, centres = wmass.tolist(), centre.tolist()
    best_log = -math.inf
    best = None
    for start, _, idx in base.shape_runs():
        osc = np.abs(flat[idx] - centre[start:start + len(idx), None]) / bmo
        ex = np.minimum(osc, big_n) / eta
        shift = ex.max(axis=1)
        terms = np.exp(ex - shift[:, None]) * wm_flat[idx]
        for k, (sh, row) in enumerate(zip(shift.tolist(), terms.tolist()),
                                      start):
            log_t = sh + math.log(math.fsum(row)) - math.log(wmass[k])
            if log_t > best_log:
                best_log = log_t
                best = k
    best_set = base.sets[best]
    sl = best_set.slices()
    osc = np.abs(f[sl] - centres[best]) / bmo
    wms, wmass = wm[sl], wmass[best]
    grid = np.linspace(0.0, float(np.max(osc)), 33)
    xs, ys = [], []
    for lam in grid[:-1]:
        surv = fsum(wms[osc > lam])
        if surv > 0:
            xs.append(lam)
            ys.append(math.log(surv / wmass))
    if len(xs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
        c1_hat, c2_hat = math.exp(intercept), -float(slope)
    else:
        c1_hat, c2_hat = math.nan, math.nan
    return JNReport(t_value=math.exp(best_log), eta=float(eta),
                    big_n=float(big_n), dw=dw, bmo_norm=bmo,
                    extremal_set=best_set, c1_hat=c1_hat, c2_hat=c2_hat)


@dataclass(frozen=True)
class TLProbe:
    unweighted_nu: float
    weighted_nu: float
    ratio: float
    p: float
    q: float
    alpha: float


def tl_equivalence_probe(seq: TLSequence, alpha: float, q: float, p: float,
                         w: Weight, base: BaseFamily,
                         measure: Measure) -> TLProbe:
    """Compare the plain and weighted sequence-space norms.

    The plain norm aggregates at exponent 1 with the unit weight; the
    weighted norm aggregates at p/q with w; both are reported to the power
    1/q so they scale linearly in the sequence.
    """
    if seq.support_size() == 0:
        raise EmptySequence("every coefficient vanishes")
    if not p > 0 or not q > 0:
        raise ExponentOutOfRange(f"positive exponents required, got p={p} q={q}")
    spec = TLSeq(alpha=alpha, q=q)
    unit = Weight.unit(base.domain)
    plain = oscillation_norm(seq, spec, unit, 1.0, base, measure).value
    weighted = oscillation_norm(seq, spec, w, p / q, base, measure).value
    u = plain ** (1.0 / q)
    v = weighted ** (1.0 / q)
    return TLProbe(unweighted_nu=u, weighted_nu=v,
                   ratio=v / u if u > 0 else math.inf,
                   p=p, q=q, alpha=alpha)
