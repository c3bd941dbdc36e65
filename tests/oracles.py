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
