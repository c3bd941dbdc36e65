"""Independent brute-force references used to cross-check library results.

Everything here is written the slow, obvious way on purpose: plain loops,
``np.sum`` instead of compensated summation, direct formulas.  When a test
compares a library value against one of these, the two numbers come from
genuinely different code paths.
"""

from __future__ import annotations

import itertools

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


def iter_dyadic_boxes(sides: tuple[int, ...]):
    """Every product of per-axis dyadic intervals (the full dyadic lattice,
    mixed scales included), as ``BaseSet``s."""
    from oscillab.lattice import BaseSet

    for parts in itertools.product(*(dyadic_intervals(n) for n in sides)):
        yield BaseSet(tuple(lo for lo, _ in parts), tuple(hi for _, hi in parts))


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


def boxes_by_shape_loop(sides, shapes, dyadic: bool):
    """Corner arrays (lo, hi) of every box of each shape, one ``meshgrid``
    per shape: the loop ``lattice._boxes_by_shape`` ran before it became one
    vectorised pass, kept as its reference for values, order and dtype."""
    los = [np.empty((0, len(sides)), dtype=np.intp)]
    his = [los[0]]
    for shape in shapes:
        axes = [np.arange(0, n - s + 1, s if dyadic else 1, dtype=np.intp)
                for n, s in zip(sides, shape)]
        lo = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        los.append(lo.reshape(-1, len(sides)))
        his.append(los[-1] + np.array(shape, dtype=np.intp))
    return np.concatenate(los), np.concatenate(his)


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


def fraction_weighted_median(values, masses) -> float:
    """Smallest value, in a stable sort, at which the running mass reaches
    half the total, with every mass an exact ``Fraction``: no rounding."""
    from fractions import Fraction

    v = np.asarray(values, dtype=float).ravel()
    order = np.argsort(v, kind="stable")
    v = v[order]
    m = [Fraction(x) for x in np.asarray(masses, dtype=float).ravel()[order]
         .tolist()]
    total, run = sum(m), Fraction(0)
    for vi, mi in zip(v, m):
        run += mi
        if 2 * run >= total:
            return float(vi)
    raise ValueError("no positive total mass")


def float_running_median(values, masses) -> float:
    """The same rule with a float running sum and a float total, as
    ``weighted_median`` once had it: a rounding can move the median."""
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
        med = fraction_weighted_median(vals, ms)
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
# The box-at-a-time loops ``oscillation_norm`` and ``jn_exp_moment`` ran
# before they became shape-grouped kernels, kept as the bit-for-bit
# reference for those kernels.  The TLSeq branches are split out into
# ``per_box_tl_norm``, the jn loop's norm call goes to ``per_box_osc_norm``,
# and both norm loops leave cells without mass out of the terms (their
# local^p may be inf, and inf * 0 made the box NaN, which then dropped out
# of the maximum).


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
        c = fsum(arr[sl]) / base_set.cell_count()
        return np.abs(arr - c) / spec.w.values
    raise IncompatibleSpec(f"unknown oscillation rule {type(spec).__name__}")


def _underflow_guard(p, best, norm_at_one):
    """Raise ``OverflowGuard`` where every mean of p-th powers (p > 1) is
    below the least normal float, ``best`` their largest, while the norm at
    exponent 1 (``norm_at_one()``) is positive."""
    import sys

    from oscillab.errors import OverflowGuard

    if p > 1.0 and best < sys.float_info.min and norm_at_one() > 0.0:
        raise OverflowGuard("the norm's p-th powers underflow; rescale the "
                            "field")


def per_box_osc_norm(f, spec, w, p, base, measure, per_set=False):
    import math

    from oscillab.errors import ExponentOutOfRange, ZeroMass
    from oscillab.lattice import fsum
    from oscillab.oscillation import NormReport

    if not 0 < p < math.inf:
        raise ExponentOutOfRange(f"the norm exponent must be positive and finite, got {p}")
    wm = w.values * measure.masses
    best = -1.0
    best_set = None
    rows = [] if per_set else None
    for box in base.sets:
        sl = box.slices()
        wmass = fsum(wm[sl])
        if wmass <= 0.0:
            raise ZeroMass(f"no weighted mass on {box.label()}")
        local = np.where(wm > 0.0, _per_box_local_field(f, spec, box, measure),
                         0.0)
        # A power past the float range is inf, silently, as in the kernel.
        with np.errstate(over="ignore"):
            val = fsum(((local ** p) * wm)[sl]) / wmass
        if rows is not None:
            rows.append(val ** (1.0 / p))
        if val > best:
            best = val
            best_set = box
    _underflow_guard(p, best, lambda: per_box_osc_norm(
        f, spec, w, 1.0, base, measure).value)
    return NormReport(value=best ** (1.0 / p), p=p, weight_id=w.digest,
                      extremal_set=best_set,
                      per_set=tuple(rows) if rows is not None else None)


def _fsum_or_inf(terms):
    """``math.fsum`` of terms >= 0, inf where their sum passes the float
    range (fsum raises there)."""
    import math

    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def per_box_tl_norm(seq, spec, w, p, base, measure, per_set=False):
    """The ``TLSeq`` norm box by box: each cell of a box's field is the
    ``math.fsum`` of coef^q over every nonzero coefficient cube inside the
    box that holds the cell."""
    import math

    from oscillab.errors import (ExponentOutOfRange, IncompatibleSpec,
                                 ZeroMass)
    from oscillab.lattice import fsum
    from oscillab.oscillation import NormReport, TLSequence

    if not 0 < p < math.inf:
        raise ExponentOutOfRange(f"the norm exponent must be positive and finite, got {p}")
    if base.kind != "dyadic-cubes":
        raise IncompatibleSpec("sequence norms are defined over dyadic cubes")
    domain = base.domain
    total = float(domain.num_cells)
    n = float(domain.dims)
    wm = w.values * measure.masses
    best = -1.0
    best_set = None
    rows = [] if per_set else None
    for box in base.sets:
        sl = box.slices()
        wmass = fsum(wm[sl])
        if wmass <= 0.0:
            raise ZeroMass(f"no weighted mass on {box.label()}")
        if not isinstance(seq, TLSequence):
            raise IncompatibleSpec("sequence rule needs a cube-indexed sequence")
        terms = [[] for _ in range(domain.num_cells)]
        cells = np.arange(domain.num_cells).reshape(domain.sides)
        for cube, s in seq.items_canonical():
            inside = all(l <= cl and ch <= h for l, h, cl, ch
                         in zip(box.lo, box.hi, cube.lo, cube.hi))
            if s == 0.0 or not inside:
                continue
            size_norm = cube.cell_count() / total
            coef = (size_norm ** (-0.5 - spec.alpha / n)) * abs(s)
            for c in cells[cube.slices()].ravel():
                terms[c].append(coef ** spec.q)
        out = np.array([_fsum_or_inf(cell) for cell in terms]
                       ).reshape(domain.sides)
        local = np.where(wm > 0.0, out, 0.0)
        with np.errstate(over="ignore"):
            val = fsum(((local ** p) * wm)[sl]) / wmass
        if rows is not None:
            rows.append(val ** (1.0 / p))
        if val > best:
            best = val
            best_set = box
    _underflow_guard(p, best, lambda: per_box_tl_norm(
        seq, spec, w, 1.0, base, measure).value)
    return NormReport(value=best ** (1.0 / p), p=p, weight_id=w.digest,
                      extremal_set=best_set,
                      per_set=tuple(rows) if rows is not None else None)


def per_box_jn_exp_moment(f, base, w, measure, eta=None, big_n=64.0):
    import math

    from oscillab.errors import (BadParams, DegenerateInput, OverflowGuard,
                                 ZeroMass)
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
        try:
            eta = math.ldexp(math.exp(dw * dw), 1)
        except OverflowError:
            raise OverflowGuard(f"the default eta = 2 e^(D^2) is past the float "
                                f"range at D = {dw!r}; pass an explicit eta") from None
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
        # Cells without w-mass are left out, from the shift too: a shift
        # set by one of them could underflow every other term to 0.
        live = wm[sl] > 0.0
        ex = np.minimum(osc[live], big_n) / eta
        shift = float(np.max(ex))
        log_t = shift + math.log(fsum(np.exp(ex - shift) * wm[sl][live])) \
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


# ---------------------------------------------------------------------------
# stopping time
# ---------------------------------------------------------------------------
#
# The recursive Calderon-Zygmund selection ``cz_selection`` ran before it
# became a level walk on corner arrays, with its bisection step, kept as
# the bit-for-bit reference for the walk: one ``BaseSet`` and two ``fsum``s
# per box visited.


def simultaneous_children(box):
    """Bisect every axis with at least two cells, preserving the aspect ratio.

    Returns [] for a single cell.  If only one axis is still divisible the
    step degenerates to a single bisection.
    """
    from oscillab.lattice import BaseSet

    halves = []
    for l, h in zip(box.lo, box.hi):
        mid = (l + h) // 2
        halves.append([(l, mid), (mid, h)] if h - l >= 2 else [(l, h)])
    if max(map(len, halves)) == 1:
        return []
    pieces = [BaseSet(*zip(*parts)) for parts in itertools.product(*halves)]
    return sorted(pieces, key=BaseSet.sort_key)


def recursive_cz_selection(f, root, w, lam, base, measure):
    from oscillab.errors import BadParams, NotDyadic, ZeroMass
    from oscillab.lattice import fsum
    from oscillab.oscillation import CZSelection
    from oscillab.weights import doubling_constant

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

    def wavg(box):
        sl = box.slices()
        mass = fsum(wm[sl])
        if mass <= 0:
            return -1.0  # invisible; never selected
        return fsum((osc * wm)[sl]) / mass

    selected = []
    leaves_max = 0.0

    def walk(box):
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
    dw = doubling_constant(w, measure)
    return CZSelection(selected=tuple(selected), lam=lam, root=root,
                       avg_root=avg_root, dw=dw, d_max=d_max,
                       realized_max_over_lam=realized,
                       outside_max=leaves_max,
                       mass_selected=mass_selected, mass_root=mass_root)


# ---------------------------------------------------------------------------
# maximal operator and its series, before the tile index
# ---------------------------------------------------------------------------
#
# ``operators.maximal`` spread the averages of a dyadic family with one
# broadcast maximum per shape, and ``rubio_de_francia`` called the public
# ``maximal`` once per term; both are kept as bit-for-bit references for
# the gather over ``BaseFamily.tile_index`` and the once-validated series.


def tile_max(out: np.ndarray, avg: np.ndarray, lo: np.ndarray, shape) -> None:
    """``out`` = max(``out``, the average of the box covering each cell), for
    boxes of one shape at multiples of their sides (a tiling of the grid,
    less any boxes the family dropped); ``avg`` must be >= 0."""
    grid = tuple(n // s for n, s in zip(out.shape, shape))
    if len(avg) == int(np.prod(grid)):
        tiles = avg.reshape(grid)
    else:
        tiles = np.zeros(grid)
        tiles[tuple((lo // shape).T)] = avg
    blocks = [d for t, s in zip(grid, shape) for d in (t, s)]
    view = out.reshape(blocks)
    np.maximum(view, tiles.reshape([d for t in grid for d in (t, 1)]),
               out=view)


def tiled_maximal(f, base, measure, mode):
    """``operators.maximal`` with the per-shape tile spread; each member's
    numerator and mass by ``math.fsum`` over its cells, not by the box-sum
    engine that ``maximal`` takes them from."""
    import math

    from oscillab import lattice
    from oscillab.errors import BadParams
    from oscillab.operators import _check_compat, _spread_max

    _check_compat(base, mode)
    f = np.asarray(f, dtype=float)
    if f.shape != base.domain.sides:
        raise BadParams(f"field shape {f.shape} != domain {base.domain.sides}")
    if not np.all(np.isfinite(f)):
        raise BadParams("field values must be finite")
    lo, hi = base.lo, base.hi
    num = np.abs(f) * measure.masses
    boxes = [tuple(map(slice, l, h)) for l, h in zip(lo.tolist(), hi.tolist())]
    avg = np.array([math.fsum(num[b].ravel().tolist()) for b in boxes]) \
        / np.array([math.fsum(measure.masses[b].ravel().tolist())
                    for b in boxes])
    side = hi - lo
    sides = base.domain.sides
    out = np.zeros(sides)
    tiled = base.kind in lattice.DYADIC_KINDS
    cuts = np.flatnonzero(np.any(side[1:] != side[:-1], axis=1)) + 1
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(side)]):
        shape = side[a].tolist()
        if mode != "centered" and tiled:
            tile_max(out, avg[a:b], lo[a:b], shape)
        elif mode != "centered":
            np.maximum(out, _spread_max(avg[a:b], lo[a:b], shape, sides),
                       out=out)
        elif shape[0] % 2 == 1:
            center = tuple((lo[a:b] + (shape[0] - 1) // 2).T)
            out[center] = np.maximum(out[center], avg[a:b])
    out[measure.masses == 0.0] = 0.0
    return out


def per_term_rubio_de_francia(g, p, base, measure, mode, tol=1e-10):
    """``operators.rubio_de_francia`` with ``tiled_maximal`` called, checks
    and all, once per term and once for the final self-bound."""
    import math

    from oscillab.errors import (BadParams, NonConvergence, OverflowGuard,
                                 ZeroInput)
    from oscillab.lattice import fsum
    from oscillab.operators import _check_compat, default_norm_bound, lp_norm
    from oscillab.weights import Weight

    if not 1.0 < p < math.inf:
        raise BadParams(f"the series needs 1 < p < inf, got {p}")
    if not 0 < tol < 1:
        raise BadParams(f"tol must sit in (0, 1), got {tol}")
    _check_compat(base, mode)
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise BadParams("field values must be finite")
    if not 4.0 * float(np.max(np.abs(g))) * max(1.0, measure.total_mass) \
            < math.inf:
        raise OverflowGuard("the seed is too large for the series to stay "
                            "in the float range; rescale it")
    live = measure.masses > 0
    if fsum(np.abs(g) * measure.masses) <= 0.0:
        raise ZeroInput("the seed function vanishes almost everywhere")
    b = default_norm_bound(mode, base, p)
    denom = 2.0 * b
    term = np.abs(g)
    u = term.copy()
    cap = max(1, math.ceil(10.0 * max(1, base.domain.max_level())
                           * math.log2(1.0 / tol)))
    iterations = 0
    while True:
        term = tiled_maximal(term, base, measure, mode) / denom
        nxt = float(np.max(term))
        floor = float(np.min(u[u > 0.0]))
        if nxt < tol * floor:
            break
        u = u + term
        iterations += 1
        if iterations > cap:
            raise NonConvergence(f"series did not settle within {cap} terms")
    if np.any(u[live] <= 0.0):
        raise ZeroInput("some positive-mass cell sees no mass of the seed "
                        "through the base; enlarge the base family")
    values = u.copy()
    values[~live] = np.maximum(values[~live], 1.0)
    mu = tiled_maximal(u, base, measure, mode)
    ratio = float(np.max(mu[live] / u[live])) if np.any(live) else 0.0
    checks = {
        "dominates_seed": bool(np.all(u[live] >= np.abs(g)[live])),
        "self_bound_ratio": ratio,
        "self_bound_limit": denom * (1.0 + 10.0 * tol),
        "lp_ratio": lp_norm(u, p, measure) / lp_norm(g, p, measure),
    }
    return Weight(base.domain, values, provenance={
        "kind": "rubio-a1",
        "params": {"p": float(p), "mode": mode, "tol": float(tol)},
        "iterations": int(iterations),
        "norm_bound": float(b),
        "checks": checks,
    })


# ---------------------------------------------------------------------------
# per-box report loops, before the shape blocks
# ---------------------------------------------------------------------------
#
# The last loops that walked a family one box at a time, through
# ``member_slices`` (once ``BaseFamily.slices``), kept as bit-for-bit
# references for the shape-grouped blocks that replaced them: the sharp
# oscillation (its median now from ``fraction_weighted_median``), the
# reciprocal rule's direct formula (its centre now the correctly rounded
# plain mean), the two sides of the gain-exponent check, and the log-space
# branches of the A_p and reverse Holder constants.


def member_slices(base):
    """Each member's tuple of slices, in canonical order."""
    lo, hi = base.lo.tolist(), base.hi.tolist()
    return (tuple(map(slice, l, h)) for l, h in zip(lo, hi))


def per_box_sharp_oscillation(f, base, measure):
    from oscillab.lattice import fsum
    from oscillab.oscillation import NormReport

    f = np.asarray(f, dtype=float)
    best, best_i = -1.0, None
    for i, sl in enumerate(member_slices(base)):
        m = measure.masses[sl]
        med = fraction_weighted_median(f[sl], m)
        val = fsum(np.abs(f[sl] - med) * m) / fsum(m)
        if val > best:
            best, best_i = val, i
    return NormReport(value=best, p=1.0, weight_id="median",
                      extremal_set=None if best_i is None else base.box(best_i))


def per_box_reciprocal_direct(f, w, base_w):
    """max over boxes of sum |f - c| / sum w, c the plain cell mean."""
    from oscillab.lattice import fsum

    direct = -np.inf
    for sl in member_slices(base_w):
        c = fsum(f[sl]) / f[sl].size
        direct = max(direct, fsum(np.abs(f[sl] - c)) / fsum(w.values[sl]))
    return direct


def _centered_local(f, sl, measure):
    from oscillab.lattice import fsum

    m = measure.masses[sl]
    c = fsum(f[sl] * m) / fsum(m)
    return np.abs(f[sl] - c)


def _power_mean(local, masses, s):
    """(mean of local^s)^(1/s), in log space where |s log max| >= 600."""
    import math

    from oscillab.lattice import fsum

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


def per_box_gain_sides(f, w, base, measure, s):
    """Per box, the w-average of |f - c| and the power mean at s of
    |f - c| in the measure, c the measure mean: the two sides of the
    gain-exponent check before its constant."""
    from oscillab.lattice import fsum

    f = np.asarray(f, dtype=float)
    wm = w.values * measure.masses
    lhs, rhs = [], []
    for sl in member_slices(base):
        local = _centered_local(f, sl, measure)
        lhs.append(fsum(local * wm[sl]) / fsum(wm[sl]))
        rhs.append(_power_mean(local, measure.masses[sl], s))
    return lhs, rhs


def _log_avg_pow(logv, masses, sl, e, log_mass):
    import math

    from oscillab.lattice import fsum

    m = masses[sl]
    pos = m > 0
    a = e * logv[sl][pos] + np.log(m[pos])
    top = float(np.max(a))
    return top + math.log(fsum(np.exp(a - top))) - log_mass


def per_box_log_constant(w, exponent, base, measure, kind):
    """The log of the log-space A_p (``kind`` "ap", exponent p) or reverse
    Holder (``kind`` "rh", exponent delta) constant, and its first
    maximising box."""
    import math

    logv = np.log(w.values)
    masses = base.set_masses(measure)
    best, arg = -math.inf, None
    for i, (sl, mass) in enumerate(zip(member_slices(base), masses)):
        lm = math.log(mass)
        if kind == "ap":
            p = exponent
            e = -1.0 / (p - 1.0)
            val = (_log_avg_pow(logv, measure.masses, sl, 1.0, lm)
                   + (p - 1.0) * _log_avg_pow(logv, measure.masses, sl, e, lm))
        else:
            delta = exponent
            val = (_log_avg_pow(logv, measure.masses, sl, delta, lm) / delta
                   - _log_avg_pow(logv, measure.masses, sl, 1.0, lm))
        if val > best:
            best, arg = val, i
    return best, base.box(arg)


def fraction_constant(w, exponent, base, measure, kind):
    """The A_p (``kind`` "ap", exponent p) or reverse Holder (``kind``
    "rh", exponent delta) constant and its first maximising box, from means
    of the cell powers w**e (libm ``pow``) in the measure, each mean an
    exact ``Fraction`` rounded once: no product or sum leaves the float
    range on the way, whatever the scale of the masses."""
    import math
    from fractions import Fraction

    def mean(e, sl):
        cells = w.values[sl].ravel().tolist()
        masses = [Fraction(m) for m in measure.masses[sl].ravel().tolist()]
        num = sum(Fraction(math.pow(x, e)) * m for x, m in zip(cells, masses))
        return float(num / sum(masses))

    best, arg = -math.inf, None
    for i, sl in enumerate(member_slices(base)):
        if kind == "ap":
            val = mean(1.0, sl) * mean(-1.0 / (exponent - 1.0), sl) ** (
                exponent - 1.0)
        else:
            val = mean(exponent, sl) ** (1.0 / exponent) / mean(1.0, sl)
        if val > best:
            best, arg = val, i
    return best, base.box(arg)


def fraction_row_mean(terms, mass):
    """The exact mean of one row, sum(terms) / mass with every term and the
    mass an exact ``Fraction``: no rounding at all."""
    from fractions import Fraction

    return sum(map(Fraction, np.asarray(terms, dtype=float).ravel().tolist()),
               Fraction(0)) / Fraction(float(mass))
