"""Oscillation norms over a base family, the sharp (median) oscillation,
Calderon-Zygmund style stopping-time selection, and exponential-moment
probes for exponential decay of oscillation distributions.

A local oscillation rule turns (field, base set) into a nonnegative field
supported on the set; the norm is the worst weighted p-mean of that field
over the family.  ``oscillation_norm`` is the one kernel and the one
field check of these norms, the sharp (median) oscillation's included.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import (BadParams, DegenerateInput, EmptySequence,
                     ExponentOutOfRange, IncompatibleSpec, NotDyadic,
                     OverflowGuard, ZeroMass)
from .lattice import (DYADIC_KINDS, BaseFamily, BaseSet, GridDomain, Measure,
                      _chunk, block_max, block_reduce, box_sums, cell_product,
                      checked_field, content_key, deviations, dyadic_grids,
                      first_max, fsum, scaled_ints)
from .weights import Weight, doubling_constant


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
class MedianDiff:
    """|f - c|, c the exact weighted median of f in the ambient measure."""


@dataclass(frozen=True)
class TLSeq:
    """Square-function style rule for sequences indexed by dyadic cubes:
    sum over cubes inside the set of (|Q|^(-1/2 - alpha/n) |s_Q| 1_Q)^q,
    cube size normalized by the total cell count."""

    alpha: float
    q: float

    def __post_init__(self):
        if not -math.inf < self.alpha < math.inf:
            raise BadParams(f"the smoothness must be finite, got {self.alpha}")
        if not 0 < self.q < math.inf:
            raise BadParams("the aggregation power must be positive and "
                            f"finite, got {self.q}")


@dataclass(frozen=True)
class TLSequence:
    """Coefficients indexed by dyadic cubes of a grid domain: each key is a
    ``BaseSet`` with equal power-of-two sides and corners at multiples of
    the side, inside the domain; any other key, or a coefficient that is
    not finite, raises ``BadParams``."""

    domain: GridDomain
    coeffs: Mapping[BaseSet, float] = field(default_factory=dict)

    def __post_init__(self):
        for cube, coef in self.coeffs.items():
            _cube_level(cube, self.domain)
            if not math.isfinite(coef):
                raise BadParams(f"sequence coefficient {coef!r} on "
                                f"{cube.label()} is not finite")

    def items_canonical(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def support_size(self) -> int:
        return sum(1 for _, s in self.coeffs.items() if s != 0.0)


def _cube_level(cube, domain: GridDomain) -> int:
    """log2 of the side of ``cube`` if it is a dyadic cube of ``domain``."""
    if isinstance(cube, BaseSet) and cube.dims == domain.dims:
        side = cube.hi[0] - cube.lo[0]
        if not side & (side - 1) and all(
                h - l == side and l % side == 0 and h <= n
                for l, h, n in zip(cube.lo, cube.hi, domain.sides)):
            return side.bit_length() - 1
    raise BadParams(f"sequence key {cube!r} is not a dyadic cube of {domain.sides}")


@dataclass(frozen=True)
class NormReport:
    """A norm, its first maximising member as a ``BaseSet``, and with
    ``per_set`` each member's own value (val^(1/p), a Python float) in the
    family's canonical order: member i is ``base.box(i)``."""

    value: float
    p: float
    weight_id: str
    extremal_set: BaseSet
    per_set: tuple | None = None


def _level_fields(seq: TLSequence, spec: TLSeq) -> np.ndarray:
    """Row k: the ``TLSeq`` field of any side-2^k base cube, per flat cell:
    t_0 + t_1 + ... + t_k correctly rounded, t_j holding coef^q of the
    side-2^j coefficient cube over each cell (0 if none).  This is the sum
    over a dyadic cube B of side 2^k: the coefficient cubes inside B that
    hold a cell are those of side at most 2^k that hold it, one per side.
    The terms are >= 0, so a field past the float range reads inf.  Cost:
    one ``box_sums`` pass over the stacked terms, a box of levels 0..k per
    cell and level; ``oscillation_norm`` keeps the read-only result on the
    family, so a sequence's fields are built once per rule."""
    domain = seq.domain
    total, n = float(domain.num_cells), float(domain.dims)
    t = np.zeros((domain.max_level() + 1, *domain.sides))
    for cube, s in seq.items_canonical():
        if s == 0.0:
            continue
        size_norm = cube.cell_count() / total
        coef = (size_norm ** (-0.5 - spec.alpha / n)) * abs(s)
        t[(_cube_level(cube, domain), *cube.slices())] = coef ** spec.q
    # Each cell's terms in a row; the field of level k at a cell is the
    # interval of that row's first k + 1 terms.
    terms = np.moveaxis(t, 0, -1).ravel()
    lo = np.tile(np.arange(0, terms.size, len(t)), len(t))
    hi = lo + np.repeat(np.arange(1, len(t) + 1), terms.size // len(t))
    try:
        fields = box_sums(terms, lo, hi)
    except OverflowError:
        fields = np.array([_fsum_or_inf(terms[l:h].tolist())
                           for l, h in zip(lo.tolist(), hi.tolist())])
    fields.setflags(write=False)
    return fields.reshape(len(t), -1)


def _fsum_or_inf(terms) -> float:
    """``math.fsum`` of terms >= 0, inf where it passes the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def oscillation_norm(f, spec, w: Weight, p: float, base: BaseFamily,
                     measure: Measure, per_set: bool = False) -> NormReport:
    """max over base sets of ((1/w-mass) sum local^p w m)^(1/p).

    One kernel and one memo serve all four rules.  Under all but ``TLSeq``,
    an f of another shape than the domain's or with a cell that is not
    finite raises ``BadParams`` (``lattice.checked_field``).  ``base.sums``
    gives the linear arrays; the ``MedianDiff`` centre is each row's exact
    weighted median; ``TLSeq`` reads one field per level (``_level_fields``),
    kept read-only in the family's memo.  local^p with cell masses w m goes
    into ``lattice.block_max``, or with ``per_set`` ``block_reduce``.
    Reports are memoised on the family by the content of f (of the level
    fields, for ``TLSeq``), the rule, w, the measure, p (and its type) and
    ``per_set``; errors are raised anew.  On a family whose layout is one
    chunk the memo keeps the group of the first four too, once it has no
    failing box (``_norm_group``), so another p costs only the power, the
    sums, the screen and the confirm.  Value, extremal set (the first
    strict maximum in canonical order) and first error are a box-by-box
    loop's, except on overflow: a cell product past the float range, or a
    massed cell's w m rounding to 0, raises ``OverflowGuard`` first, and
    ``box_sums`` differs from ``fsum``; a ``TLSeq`` coefficient overflow
    precedes any zero-mass check.  Where p > 1 and all means of p-th powers
    underflow but the norm at exponent 1 is positive: ``OverflowGuard``.
    """
    if not 0 < p < math.inf:
        raise ExponentOutOfRange(f"the norm exponent must be positive and finite, got {p}")
    if isinstance(spec, TLSeq):
        if base.kind != "dyadic-cubes":
            raise IncompatibleSpec("sequence norms are defined over dyadic cubes")
        if not isinstance(f, TLSequence):
            raise IncompatibleSpec("sequence rule needs a cube-indexed sequence")
        if f.domain != base.domain:
            raise IncompatibleSpec("the sequence has another domain than the base")
        f, rule = base._norms.fetch(("levels", spec, tuple(f.coeffs.items())),
                                    lambda: _level_fields(f, spec)), ("sequence",)
    elif isinstance(spec, (CenteredDiff, DualHardy, MedianDiff)):
        f = checked_field(f, base.domain.sides)
        rule = (("centered", None if spec.v is None else spec.v.digest)
                if isinstance(spec, CenteredDiff) else ("median",)
                if isinstance(spec, MedianDiff) else ("dual", spec.w.digest))
    else:
        raise IncompatibleSpec(f"unknown oscillation rule {type(spec).__name__}")
    group = (content_key(f), rule, w.digest, measure.digest)
    return base._norms.fetch((*group, p, type(p), per_set), lambda: _grouped_report(
        f, spec, w, p, base, measure, per_set, group))


def _norm_group(arr: np.ndarray, spec, w: Weight, base: BaseFamily,
                measure: Measure) -> tuple:
    """(w m, w-masses, stop, form): what a group's exponents share; stop is
    the first failing box (or ``len(base)``), form the rule's local
    oscillation, or where no box fails the terms ``lattice._chunk`` keeps."""
    wm = cell_product(w.values, measure.masses, positive=True)
    wmass = base.sums(wm)
    bad = zero = wmass <= 0.0
    if isinstance(spec, CenteredDiff):
        m = measure.masses if spec.v is None \
            else cell_product(measure.masses, spec.v.values, positive=True)
        mass = base.sums(m)
        bad = zero | (mass <= 0.0)
        # Boxes from the failing one on may have no mass; their centres
        # are never used.
        with np.errstate(divide="ignore", invalid="ignore"):
            local = deviations(arr, base.sums(cell_product(arr, m)) / mass)
    elif isinstance(spec, DualHardy):
        if measure.kind != "density-over-uniform" or not np.array_equal(
                measure.masses, spec.w.values):
            bad = np.ones_like(zero)  # every box fails: the rule does not fit
        centre = plain_means(arr, base)
        spread, scale = deviations(arr, centre), spec.w.values.ravel()
        local = lambda rows, idx: spread(rows, idx) / scale.take(idx)
    elif isinstance(spec, MedianDiff):
        # A Weight is positive, so the w-mass check covers the median's.
        ints, low, top = scaled_ints(measure.masses.ravel())
        if top - low + 53 + ints.size.bit_length() < 63:
            ints = ints.astype(np.int64)  # no box total reaches 2**62
        local = lambda rows, idx: np.abs((cells := arr.take(idx)) - _medians(
            cells.ravel(), ints.take(idx.ravel()), rows)[:, None])
    else:
        # TLSeq: arr stacks the level fields of ``_level_fields``; a term of
        # a dyadic cube of side 2^k reads level field k.
        level = np.frexp(base.hi[:, 0] - base.lo[:, 0])[1] - 1
        local = lambda rows, idx: arr[level[rows], idx[:, 0]]
    stop = int(np.argmax(bad)) if bad.any() else len(base)
    if isinstance(spec, DualHardy) and not np.isfinite(centre[:stop]).all():
        raise OverflowGuard("a plain cell mean left the float range")
    with np.errstate(over="ignore"):
        chunk = _chunk(base, local, wm.ravel()) if stop == len(base) else None
    return wm.ravel(), wmass, stop, chunk or local


def _grouped_report(arr: np.ndarray, spec, w: Weight, p: float, base: BaseFamily,
                    measure: Measure, per_set: bool, group: tuple) -> NormReport:
    """The kernel of ``oscillation_norm``, on ``_norm_group`` memoised under
    ``group`` where its terms are formed.  On a box that fails a check it
    raises that box's error once the boxes before it have been evaluated,
    so that an overflow they raise comes first, as in a box-by-box loop."""
    wm, wmass, stop, local = base._norms.fetch(group, lambda: _norm_group(
        arr, spec, w, base, measure), keep=lambda got: not callable(got[3]))
    # A power past the float range gives inf, which the caller reports as a
    # non-finite norm; numpy's warning would only repeat that.
    before = None if stop == len(base) else np.arange(len(base)) < stop
    with np.errstate(over="ignore"):
        form = (lambda r, i: local(r, i) ** p) if callable(local) else [
            (*chunk[:3], chunk[3] ** p, chunk[4]) for chunk in local]
        vals = (block_reduce if per_set else block_max)(
            base, form, wmass, wm, before)
    if stop < len(base):
        box = base.box(stop)
        if wmass[stop] <= 0.0:
            raise ZeroMass(f"no weighted mass on {box.label()}")
        if isinstance(spec, DualHardy):
            raise IncompatibleSpec(
                "the reciprocal-weight rule needs the ambient measure to be "
                "the density measure of the same weight")
        raise ZeroMass(f"no mass on {box.label()}")
    best, best_i = first_max(vals, -1.0) if per_set else vals
    if p > 1.0 and best < sys.float_info.min and _grouped_report(
            arr, spec, w, 1.0, base, measure, False, group).value > 0.0:
        raise OverflowGuard("the norm's p-th powers underflow; rescale the "
                            "field")
    return NormReport(value=best ** (1.0 / p), p=p, weight_id=w.digest,
                      extremal_set=base.box(best_i), per_set=tuple(
                          val ** (1.0 / p) for val in vals) if per_set else None)


def plain_means(f: np.ndarray, base: BaseFamily) -> np.ndarray:
    """Per member, the plain cell mean of f: its correctly rounded sum,
    cached on the family, over the cell count; not finite where a sum is."""
    try:
        return base.sums(f) / np.prod(base.hi - base.lo, axis=1)
    except OverflowError:  # a sum past the float range
        return np.full(len(base), math.inf)


def _medians(vals: np.ndarray, ints: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per term, the ``weighted_median`` of its run of equal ``rows`` (in
    ascending order) with masses ``ints`` (``lattice.scaled_ints``): a stable
    sort by row, then value; int64 running sums wrap, exact within a run."""
    order = np.lexsort((vals, rows))
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    counts = np.diff(first, append=len(rows))
    srt = ints[order]
    run = (cum := srt.cumsum()) - (cum[first] - srt[first]).repeat(counts)
    # 2 run >= total exactly when run >= ceil(total / 2); run never falls,
    # so the hits are the tail of each run.
    half = (run[first + counts - 1] + 1) // 2
    hits = np.add.reduceat(run >= half.repeat(counts), first, dtype=np.intp)
    return vals[order[first + counts - hits]].repeat(counts)


def weighted_median(values: np.ndarray, masses: np.ndarray) -> float:
    """Smallest value whose cumulative mass reaches half the total, exactly:
    in a stable sort, the first value where twice the running sum of the
    masses, as exact scaled ints, reaches their total.  Cost: one sort and
    one pass of Python-int additions."""
    m = np.asarray(masses, dtype=float).ravel()
    if not np.isfinite(m).all():
        raise BadParams("median masses must be finite")
    v = checked_field(np.ravel(values), m.shape)
    if fsum(m) <= 0:
        raise ZeroMass("weighted median of a zero-mass set")
    return float(_medians(v, scaled_ints(m)[0], np.zeros(v.size, np.intp))[0])


def sharp_oscillation(f: np.ndarray, base: BaseFamily,
                      measure: Measure) -> NormReport:
    """Worst average distance to the set's exact weighted median (exponent
    1): ``oscillation_norm`` under ``MedianDiff`` with the unit weight,
    memoised with the other norms, its ``weight_id`` "median"."""
    return replace(oscillation_norm(f, MedianDiff(), Weight.unit(base.domain),
                                    1.0, base, measure), weight_id="median")


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
    """Stopping-time selection below a dyadic root box of the domain.

    Walk the simultaneous-bisection tree; keep a child the first time its
    weighted average of |f - c_root| exceeds lam.  Selected boxes are
    disjoint; each one's average is at most D^d * max(lam, root average)
    where D is the weight-measure doubling constant and d the number of
    axes a bisection splits; cells never captured sit at or below lam in
    the pointwise-average sense (their singleton average is the value
    itself when min_scale is 0; here we report the max over leaves).

    The root must be the full domain or another box of its per-axis dyadic
    lattice, else ``BadParams`` before any sum.  A level's boxes then share
    a shape (each side of 2 or more cells halved): ``dyadic_grids`` sums w m
    and |f - c_root| w m, zeroed outside the root, over every shape at once,
    and a boolean grid per level holds the frontier, repeated into the
    children; visible (w-mass > 0) children above lam are selected, the rest
    walked on.  Cost: two O(cells) summer calls, then a few passes over one
    grid per level, at most log2 of the longest side.  ``BaseSet``s are built
    for the selected boxes alone, in canonical order.  Every value equals a
    recursion with one ``fsum`` per box bit for bit.
    """
    if base.kind not in DYADIC_KINDS:
        raise NotDyadic("stopping-time selection needs a dyadic base")
    if not 0 < lam < math.inf:
        raise BadParams(f"the threshold must be positive and finite, got {lam}")
    sides, shape = base.domain.sides, root.sides()
    if root.dims != len(sides) or any(s & (s - 1) or l % s or h > n for l, h, s, n
                                      in zip(root.lo, root.hi, shape, sides)):
        raise BadParams(f"the root {root.label()} is not a box of the "
                        "domain's dyadic lattice")
    f = checked_field(f, sides)
    inside = root.slices()
    wm, owm = np.zeros(sides), np.zeros(sides)
    wm[inside] = cell_product(w.values[inside], measure.masses[inside], positive=True)
    mass_root = fsum(wm[inside])
    if mass_root <= 0:
        raise ZeroMass(f"no weighted mass on the root {root.label()}")
    c = fsum(cell_product(f[inside], wm[inside])) / mass_root
    owm[inside] = cell_product(np.abs(f[inside] - c), wm[inside])
    avg_root = fsum(owm[inside]) / mass_root
    masses, sums = dyadic_grids(base.domain, wm), dyadic_grids(base.domain, owm)
    walk = masses[shape] > 0  # the frontier: of the root's shape, it alone has mass
    avg, selected, avgs, picked = np.full(walk.shape, avg_root), [], [], []
    while max(shape) > 1 and walk.any():
        for axis in np.flatnonzero(np.array(shape) > 1).tolist():
            walk = walk.repeat(2, axis=axis)
        shape = tuple(max(s // 2, 1) for s in shape)
        mass = masses[shape]
        avg = np.divide(sums[shape], mass, out=np.full(mass.shape, -1.0),
                        where=mass > 0)
        chosen = walk & (avg > lam)
        lo = np.argwhere(chosen) * shape
        selected += map(BaseSet, lo.tolist(), (lo + shape).tolist())
        avgs += avg[chosen].tolist()
        picked += mass[chosen].tolist()
        walk &= (mass > 0) & ~chosen
    return CZSelection(selected=tuple(selected), lam=lam, root=root,
                       avg_root=avg_root, dw=doubling_constant(w, measure),
                       d_max=sum(1 for s in root.sides() if s >= 2),
                       realized_max_over_lam=max(avgs, default=0.0) / lam,
                       outside_max=float(avg.max(initial=0.0, where=walk)),
                       mass_selected=fsum(picked), mass_root=mass_root)


@dataclass(frozen=True)
class JNReport:
    """Truncated exponential moment of normalized oscillations, with a
    crude tail-decay fit on the extremal set (``c1_hat`` and ``c2_hat`` are
    NaN when the fit has fewer than 2 points)."""

    t_value: float
    eta: float
    big_n: float
    dw: float
    bmo_norm: float
    extremal_set: BaseSet
    c1_hat: float
    c2_hat: float


def default_scale(dw: float, name: str = "eta") -> float:
    """2 e^(D^2), D the doubling constant: the default tempering scale of
    ``jn_exp_moment`` and threshold of the rectangle-decay suite.  Past
    D^2 = 709.09 it is no float, and ``OverflowGuard`` asks for ``name``."""
    try:
        return math.ldexp(math.exp(dw * dw), 1)
    except OverflowError:
        raise OverflowGuard(f"the default {name} = 2 e^(D^2) is past the float "
                            f"range at D = {dw!r}; pass an explicit {name}") from None


def jn_exp_moment(f: np.ndarray, base: BaseFamily, w: Weight,
                  measure: Measure, eta: float | None = None,
                  big_n: float = 64.0) -> JNReport:
    """max over base sets of the w-average of exp(min(osc, N)/eta), where
    osc = |f - c_B| / bmo with c_B the w-average on the set and bmo the
    weighted oscillation norm (exponent 1) of f itself.

    The default eta is ``default_scale(D)`` = 2 e^(D^2), D the doubling
    constant of w dm; at that scale a covering recursion caps the moment at
    2e independently of f.

    Cost: the norm, the doubling constant, the w-masses and the centre
    numerators come from the family's and the weight's caches (one
    ``box_sums`` pass each on a miss), then one log-variant ``block_reduce``
    of min(osc, N)/eta with cell masses w m: a few numpy calls per chunk of
    the layout and one ``math.fsum`` per member, bit for bit a box-by-box
    loop's; a cell without w-mass sets neither the shift nor the sum.
    """
    if not big_n > 0:
        raise BadParams(f"the truncation level must be positive, got {big_n}")
    f = np.asarray(f, dtype=float)
    wm = cell_product(w.values, measure.masses, positive=True)
    bmo = oscillation_norm(f, CenteredDiff(), w, 1.0, base, measure).value
    if bmo <= 0.0:
        raise DegenerateInput("constant fields have no oscillation to probe")
    dw = doubling_constant(w, measure)
    if eta is None:
        eta = default_scale(dw)
    if not 0 < eta < math.inf:
        raise BadParams(f"the tempering scale must lie in (0, inf), got {eta}")
    # Every box has positive w-mass: the norm above raised otherwise.
    wmass = base.sums(wm)
    centre = base.sums(cell_product(f, wm)) / wmass
    local = deviations(f, centre)
    best_log, best = first_max(block_reduce(
        base, lambda rows, idx: np.minimum(local(rows, idx) / bmo, big_n)
        / eta, wmass, wm.ravel(), log=True))
    best_set = base.box(best)
    sl = best_set.slices()
    osc = np.abs(f[sl] - float(centre[best])) / bmo
    wms, wmass = wm[sl], float(wmass[best])
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
    1/q so they scale linearly in the sequence.  Raises ``OverflowGuard``
    when either is 0 or not finite, as when every coefficient underflows.
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
    if not (0.0 < u < math.inf and 0.0 < v < math.inf):
        raise OverflowGuard("a sequence norm is 0 or not finite; rescale "
                            "the sequence")
    return TLProbe(unweighted_nu=u, weighted_nu=v, ratio=v / u,
                   p=p, q=q, alpha=alpha)
