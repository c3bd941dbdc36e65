"""Independent brute-force references used to cross-check library results.

Everything here is written the slow, obvious way on purpose: plain loops,
``np.sum`` instead of compensated summation, direct formulas.  When a test
compares a library value against one of these, the two numbers come from
genuinely different code paths.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# box enumeration
# ---------------------------------------------------------------------------


def dyadic_intervals(n: int) -> list[tuple[int, int]]:
    """All dyadic subintervals [lo, hi) of [0, n), n a power of two."""
    out = []
    length = n
    while length >= 1:
        for start in range(0, n, length):
            out.append((start, start + length))
        length //= 2
    return out


def brute_dyadic_cubes(sides: tuple[int, ...]) -> set[tuple[tuple, tuple]]:
    """Simultaneous-bisection boxes: every axis halves at once."""
    if len(sides) == 1:
        return {((lo,), (hi,)) for lo, hi in dyadic_intervals(sides[0])}
    nx, ny = sides
    out = set()
    level = 0
    while (nx >> level) >= 1 and (ny >> level) >= 1:
        sx, sy = nx >> level, ny >> level
        for ax in range(0, nx, sx):
            for ay in range(0, ny, sy):
                out.add(((ax, ay), (ax + sx, ay + sy)))
        level += 1
    return out


def brute_dyadic_rectangles(sides: tuple[int, int]) -> set[tuple[tuple, tuple]]:
    """Products of independent dyadic intervals on each axis."""
    xs = dyadic_intervals(sides[0])
    ys = dyadic_intervals(sides[1])
    return {((x0, y0), (x1, y1)) for x0, x1 in xs for y0, y1 in ys}


def brute_all_intervals(n: int) -> set[tuple[tuple, tuple]]:
    """Every contiguous interval of cells, dyadic or not."""
    return {((i,), (j,)) for i in range(n) for j in range(i + 1, n + 1)}


def box_cells(box) -> list[tuple[int, ...]]:
    """All cell index tuples inside a (lo, hi) box."""
    lo, hi = box
    if len(lo) == 1:
        return [(i,) for i in range(lo[0], hi[0])]
    return [(i, j) for i in range(lo[0], hi[0]) for j in range(lo[1], hi[1])]


# ---------------------------------------------------------------------------
# box sums and averages
# ---------------------------------------------------------------------------


def box_sum(values: np.ndarray, box) -> float:
    lo, hi = box
    if len(lo) == 1:
        return float(np.sum(values[lo[0]:hi[0]]))
    return float(np.sum(values[lo[0]:hi[0], lo[1]:hi[1]]))


def box_avg(values: np.ndarray, masses: np.ndarray, box) -> float:
    m = box_sum(masses, box)
    return box_sum(values * masses, box) / m


# ---------------------------------------------------------------------------
# weight constants
# ---------------------------------------------------------------------------


def brute_ap(w: np.ndarray, masses: np.ndarray, boxes, p: float) -> float:
    pp = p / (p - 1.0)
    best = 0.0
    for box in boxes:
        if box_sum(masses, box) <= 0:
            continue
        lhs = box_avg(w, masses, box)
        rhs = box_avg(w ** (1.0 - pp), masses, box) ** (p - 1.0)
        best = max(best, lhs * rhs)
    return best


def brute_rh(w: np.ndarray, masses: np.ndarray, boxes, delta: float) -> float:
    best = 0.0
    for box in boxes:
        if box_sum(masses, box) <= 0:
            continue
        num = box_avg(w ** delta, masses, box) ** (1.0 / delta)
        best = max(best, num / box_avg(w, masses, box))
    return best


def brute_a1(w: np.ndarray, masses: np.ndarray, boxes) -> float:
    best = 0.0
    for box in boxes:
        if box_sum(masses, box) <= 0:
            continue
        cells = [c for c in box_cells(box) if masses[c] > 0]
        inf = min(w[c] for c in cells)
        best = max(best, box_avg(w, masses, box) / inf)
    return best


def brute_doubling(w: np.ndarray, masses: np.ndarray, sides) -> float:
    """Largest single-axis parent/child ratio of weighted mass.

    Boxes walked are products of dyadic intervals; the parent along an
    axis replaces that axis interval with its dyadic parent.
    """
    wm = w * masses

    def parent_interval(lo, hi, n):
        length = hi - lo
        if length >= n:
            return None
        plo = (lo // (2 * length)) * (2 * length)
        return plo, plo + 2 * length

    best = 1.0
    if len(sides) == 1:
        for lo, hi in dyadic_intervals(sides[0]):
            par = parent_interval(lo, hi, sides[0])
            if par is None:
                continue
            child = box_sum(wm, ((lo,), (hi,)))
            if child <= 0:
                continue
            best = max(best, box_sum(wm, ((par[0],), (par[1],))) / child)
        return best
    nx, ny = sides
    for x0, x1 in dyadic_intervals(nx):
        for y0, y1 in dyadic_intervals(ny):
            child = box_sum(wm, ((x0, y0), (x1, y1)))
            if child <= 0:
                continue
            px = parent_interval(x0, x1, nx)
            if px is not None:
                grown = box_sum(wm, ((px[0], y0), (px[1], y1)))
                best = max(best, grown / child)
            py = parent_interval(y0, y1, ny)
            if py is not None:
                grown = box_sum(wm, ((x0, py[0]), (x1, py[1])))
                best = max(best, grown / child)
    return best


# ---------------------------------------------------------------------------
# operators and norms
# ---------------------------------------------------------------------------


def brute_maximal(f: np.ndarray, masses: np.ndarray, boxes) -> np.ndarray:
    out = np.zeros_like(f, dtype=float)
    absf = np.abs(f)
    for box in boxes:
        if box_sum(masses, box) <= 0:
            continue
        a = box_avg(absf, masses, box)
        for c in box_cells(box):
            out[c] = max(out[c], a)
    return out


def brute_centered_maximal(f: np.ndarray, masses: np.ndarray, boxes) -> np.ndarray:
    """Odd-side boxes only, each scored at its center cell."""
    out = np.zeros_like(f, dtype=float)
    absf = np.abs(f)
    for box in boxes:
        lo, hi = box
        sides = [h - l for l, h in zip(lo, hi)]
        if any(s % 2 == 0 and s > 1 for s in sides):
            continue
        if box_sum(masses, box) <= 0:
            continue
        a = box_avg(absf, masses, box)
        center = tuple(l + (s - 1) // 2 for l, s in zip(lo, sides))
        out[center] = max(out[center], a)
    return out


def brute_lp(f: np.ndarray, p: float, masses: np.ndarray) -> float:
    return float(np.sum(np.abs(f) ** p * masses) ** (1.0 / p))


def brute_osc_norm(f, w, masses, boxes, p, v=None) -> float:
    """max over boxes of the w*m power mean of |f - c|, c the v*m mean."""
    dens = masses if v is None else v * masses
    best = 0.0
    for box in boxes:
        wmass = box_sum(w * masses, box)
        if wmass <= 0 or box_sum(dens, box) <= 0:
            continue
        c = box_sum(f * dens, box) / box_sum(dens, box)
        val = box_sum(np.abs(f - c) ** p * w * masses, box) / wmass
        best = max(best, val ** (1.0 / p))
    return best


def brute_weighted_median(values, masses) -> float:
    order = np.argsort(np.asarray(values, dtype=float), kind="stable")
    v = np.asarray(values, dtype=float)[order]
    m = np.asarray(masses, dtype=float)[order]
    half = np.sum(m) / 2.0
    run = 0.0
    for vi, mi in zip(v, m):
        run += mi
        if run >= half:
            return float(vi)
    return float(v[-1])


def brute_sharp(f, masses, boxes) -> float:
    """Worst average distance to the in-box weighted median (exponent 1)."""
    best = 0.0
    for box in boxes:
        if box_sum(masses, box) <= 0:
            continue
        cells = box_cells(box)
        vals = np.array([f[c] for c in cells])
        ms = np.array([masses[c] for c in cells])
        med = brute_weighted_median(vals, ms)
        best = max(best, float(np.sum(np.abs(vals - med) * ms) / np.sum(ms)))
    return best


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------


def brute_base(sides, masses: np.ndarray, kind: str, min_scale: int = 0):
    """Boxes of one base kind with positive mass, in canonical order (sides
    descending, then corner), and the number dropped for zero mass.

    Raises ``ZeroMassBaseSet`` when a dyadic kind's full domain has no mass.
    """
    from oscillab.errors import ZeroMassBaseSet

    min_len = 1 << min_scale
    if kind == "dyadic-cubes":
        boxes = brute_dyadic_cubes(tuple(sides))
    elif kind == "dyadic-rectangles":
        boxes = brute_dyadic_rectangles(tuple(sides))
    elif len(sides) == 1:
        boxes = brute_all_intervals(sides[0])
    elif kind == "all-cubes":
        boxes = {((i, j), (i + n, j + n)) for n in range(1, min(sides) + 1)
                 for i in range(sides[0] - n + 1)
                 for j in range(sides[1] - n + 1)}
    else:
        xs = brute_all_intervals(sides[0])
        ys = brute_all_intervals(sides[1])
        boxes = {((x[0][0], y[0][0]), (x[1][0], y[1][0])) for x in xs for y in ys}
    boxes = [b for b in boxes
             if all(h - l >= min_len for l, h in zip(b[0], b[1]))]
    kept = [b for b in boxes if box_sum(masses, b) > 0]
    full = ((0,) * len(sides), tuple(sides))
    if kind.startswith("dyadic") and full in boxes and full not in kept:
        raise ZeroMassBaseSet("full domain has zero mass")
    kept.sort(key=lambda b: (tuple(l - h for l, h in zip(*b)), b[0]))
    return kept, len(boxes) - len(kept)


# ---------------------------------------------------------------------------
# per-box oscillation loops
# ---------------------------------------------------------------------------
#
# The box-at-a-time loops ``oscillation_norm`` (CenteredDiff, DualHardy) and
# ``jn_exp_moment`` ran before they became shape-grouped kernels, kept as
# the bit-for-bit reference for those kernels.  Two edits only: the TLSeq
# branches are left out, and the jn loop's norm call goes to
# ``per_box_osc_norm``.


def _per_box_local_field(f, spec, base_set, measure):
    from oscillab.errors import IncompatibleSpec, ZeroMass
    from oscillab.lattice import fsum
    from oscillab.oscillation import CenteredDiff, DualHardy

    sl = base_set.slices()
    if isinstance(spec, CenteredDiff):
        arr = np.asarray(f, dtype=float)
        m = measure.masses if spec.v is None else measure.masses * spec.v.values
        denom = fsum(m[sl])
        if denom <= 0.0:
            raise ZeroMass(f"no mass on {base_set.label()}")
        c = fsum((arr * m)[sl]) / denom
        return np.abs(arr - c)
    if isinstance(spec, DualHardy):
        arr = np.asarray(f, dtype=float)
        if measure.kind != "density-over-uniform" or not np.array_equal(
                measure.masses, spec.w.values):
            raise IncompatibleSpec(
                "the reciprocal-weight rule needs the ambient measure to be "
                "the density measure of the same weight")
        c = float(np.mean(arr[sl]))
        return np.abs(arr - c) / spec.w.values
    raise IncompatibleSpec(f"unknown oscillation rule {type(spec).__name__}")


def per_box_osc_norm(f, spec, w, p, base, measure, per_set=False):
    from oscillab.errors import ExponentOutOfRange, ZeroMass
    from oscillab.lattice import fsum
    from oscillab.oscillation import NormReport

    if not p > 0:
        raise ExponentOutOfRange(f"the norm exponent must be positive, got {p}")
    wm = w.values * measure.masses
    best = -1.0
    best_set = None
    rows = [] if per_set else None
    for box in base.sets:
        sl = box.slices()
        wmass = fsum(wm[sl])
        if wmass <= 0.0:
            raise ZeroMass(f"no weighted mass on {box.label()}")
        local = _per_box_local_field(f, spec, box, measure)
        # A power past the float range is inf, silently, as in the kernel.
        with np.errstate(over="ignore"):
            val = fsum(((local ** p) * wm)[sl]) / wmass
        if rows is not None:
            rows.append((box, val ** (1.0 / p)))
        if val > best:
            best = val
            best_set = box
    return NormReport(value=best ** (1.0 / p), p=p, weight_id=w.digest,
                      extremal_set=best_set,
                      per_set=tuple(rows) if rows is not None else None)


def per_box_jn_exp_moment(f, base, w, measure, eta=None, big_n=64.0):
    import math

    from oscillab.errors import BadParams, DegenerateInput, ZeroMass
    from oscillab.lattice import fsum
    from oscillab.oscillation import CenteredDiff, JNReport
    from oscillab.weights import doubling_constant

    if big_n <= 0:
        raise BadParams(f"the truncation level must be positive, got {big_n}")
    f = np.asarray(f, dtype=float)
    wm = w.values * measure.masses
    bmo = per_box_osc_norm(f, CenteredDiff(), w, 1.0, base, measure).value
    if bmo <= 0.0:
        raise DegenerateInput("constant fields have no oscillation to probe")
    dw = doubling_constant(w, measure)
    if eta is None:
        eta = 2.0 * math.exp(dw * dw)
    if eta <= 0:
        raise BadParams(f"the tempering scale must be positive, got {eta}")
    best_log = -math.inf
    best_set = None
    best_osc = None
    for box in base.sets:
        sl = box.slices()
        wmass = fsum(wm[sl])
        if wmass <= 0.0:
            raise ZeroMass(f"no weighted mass on {box.label()}")
        c = fsum((f * wm)[sl]) / wmass
        osc = np.abs(f[sl] - c) / bmo
        ex = np.minimum(osc, big_n) / eta
        shift = float(np.max(ex))
        log_t = shift + math.log(fsum(np.exp(ex - shift) * wm[sl])) \
            - math.log(wmass)
        if log_t > best_log:
            best_log = log_t
            best_set = box
            best_osc = (osc, wm[sl], wmass)
    osc, wms, wmass = best_osc
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
