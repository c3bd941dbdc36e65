"""Maximal operators over a base family and the iterated-maximal weight
construction (geometric series of maximal iterates).

Each mode takes the base averages from one call of the family's exact
``summer``, the rest set up once by ``_maximal_of``.  Centered mode only sees
odd-sided cubes, each scored at its center cell.  The dyadic and uncentered
modes share one path: each box average is spread over the cells its box
covers.  On a dyadic base kind the boxes of one shape tile the grid, so the
spread is one gather over the family's ``tile_index`` and a max over shapes,
O(shapes x cells); on other kinds it is a separable sliding max per shape,
O(cells x log side).  Dyadic mode differs only in the base kinds it accepts.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice
from .errors import (BadParams, IncompatibleBase, NonConvergence, OverflowGuard,
                     ZeroInput)
from .lattice import BaseFamily, Measure, cell_product, checked_field, fsum
from .weights import Weight, conjugate

MODES = ("dyadic", "centered", "uncentered")


def default_norm_bound(mode: str, base: BaseFamily, p: float) -> float:
    """Exact for dyadic mode (martingale bound p/(p-1)), a generous covering
    bound otherwise; one factor per rectangle axis."""
    factors = 2 if base.kind in lattice.RECTANGLE_KINDS else 1
    per_factor_dims = base.domain.dims // factors
    if mode == "dyadic":
        per = conjugate(p)
    else:
        per = 2.0 * (3.0 ** per_factor_dims) * conjugate(p)
    return per ** factors


def _check_compat(base: BaseFamily, mode: str) -> None:
    if mode not in MODES:
        raise BadParams(f"unknown maximal mode {mode!r}")
    if mode == "centered" and base.kind not in lattice.CUBE_KINDS:
        raise IncompatibleBase("centered mode needs a cube base")
    if mode == "dyadic" and base.kind not in lattice.DYADIC_KINDS:
        raise IncompatibleBase("dyadic mode needs a dyadic base kind")


def maximal(f: np.ndarray, base: BaseFamily, measure: Measure,
            mode: str = "dyadic") -> np.ndarray:
    """Pointwise sup of |f| averages over eligible base sets.

    Zero-mass cells get 0; a cell's |f| m past the float range raises
    ``OverflowGuard``.  With singletons present (min_scale 0) the result
    dominates |f| on positive-mass cells.  Cost: checks, the set-up of
    ``_maximal_of``, one ``summer`` call and the spread (module docstring).
    """
    _check_compat(base, mode)
    fm = cell_product(np.abs(checked_field(f, base.domain.sides)),
                      measure.masses)
    return _maximal_of(base, measure, mode)(fm)


def _maximal_of(base: BaseFamily, measure: Measure, mode: str):
    """The maximal operator of one family, measure and mode, set up once: a
    function of |f| m, a finite array >= 0 of cell products."""
    summer, masses = base.summer, base.set_masses(measure)
    zero = None if measure.masses.all() else measure.masses == 0.0
    lo, hi, sides = base.lo, base.hi, base.domain.sides
    # The averages; a dropped member of a dyadic tiling reads the last 0.
    padded = np.zeros(len(base) + 1)
    avg = padded[:-1]
    tiled = mode != "centered" and base.kind in lattice.DYADIC_KINDS
    if tiled:
        # Per cell, the max over shapes of its covering box's average.
        index = base.tile_index
        step = max(1, lattice._GATHER_CELLS // len(index))
        blocks = [index[:, c:c + step] for c in range(0, index.shape[1], step)]

    def maximal_of(fm):
        np.divide(summer(fm), masses, out=avg)
        if tiled:
            out = [np.maximum.reduce(padded.take(idx), axis=0) for idx in blocks]
            out = (out[0] if len(out) == 1 else np.concatenate(out)).reshape(sides)
        else:
            out = np.zeros(sides)
            # Runs of boxes of one shape; a canonical family has one per shape.
            for a, b in base.runs:
                shape = (hi[a] - lo[a]).tolist()
                if mode != "centered":
                    np.maximum(out, _spread_max(avg[a:b], lo[a:b], shape,
                                                sides), out=out)
                elif shape[0] % 2 == 1:
                    # Distinct boxes of one shape have distinct centers.
                    center = tuple((lo[a:b] + (shape[0] - 1) // 2).T)
                    out[center] = np.maximum(out[center], avg[a:b])
        if zero is not None:
            out[zero] = 0.0
        return out

    return maximal_of


def _spread_max(avg: np.ndarray, lo: np.ndarray, shape, sides) -> np.ndarray:
    """Per cell, the largest of ``avg`` over the boxes of one shape (corners
    ``lo``) that cover it, 0 where none does; ``avg`` must be >= 0.

    The averages sit on a grid indexed by corner, padded by side - 1 on both
    ends of each axis; a sliding max of width side per axis then leaves, at
    cell c, the max over corners c - side + 1 .. c.
    """
    grid = np.zeros(tuple(n + s - 1 for n, s in zip(sides, shape)))
    grid[tuple((lo + np.subtract(shape, 1)).T)] = avg
    for axis, s in enumerate(shape):
        grid = _window_max(grid, s, axis)
    return grid


def _window_max(a: np.ndarray, s: int, axis: int) -> np.ndarray:
    """out[i] = max(a[i:i + s]) along one axis, by doubling the window:
    O(len x log s)."""
    lead = (slice(None),) * axis
    width = 1
    while 2 * width <= s:
        a = np.maximum(a[lead + (slice(None, -width),)],
                       a[lead + (slice(width, None),)])
        width *= 2
    if width < s:
        a = np.maximum(a[lead + (slice(None, width - s),)],
                       a[lead + (slice(s - width, None),)])
    return a


def lp_norm(f: np.ndarray, p: float, measure: Measure) -> float:
    """Weighted p-norm with the measure's cell masses."""
    if not p > 0:
        raise BadParams(f"lp_norm needs p > 0, got {p}")
    with np.errstate(over="ignore"):
        powered = np.abs(checked_field(f, measure.domain.sides)) ** p
    if np.isinf(powered).any():
        raise OverflowGuard(f"a power {p} of the field left the float range")
    return fsum(cell_product(powered, measure.masses)) ** (1.0 / p)


def rubio_de_francia(g: np.ndarray, p: float, base: BaseFamily,
                     measure: Measure, mode: str = "dyadic",
                     tol: float = 1e-10) -> Weight:
    """Geometric series of maximal iterates: sum_k M^k g / (2b)^k, b the
    ``default_norm_bound`` of the mode and base for exponent p.

    The truncation rule stops once the next term's sup norm falls below
    tol times the smallest positive partial-sum value; the tail is geometric
    with ratio at most 1/2, so this terminates.  The returned weight
    dominates |g|, costs at most 2 ||g||_p in p-norm, and its maximal is at
    most 2b times itself up to the recorded truncation slack; those three
    facts are computed post hoc and stored in the provenance.

    Checks and the ``_maximal_of`` set-up run once per series, and the guard
    on the seed bounds every sum; a term is one ``summer`` call (on 32-256
    cells, mostly its numpy calls), the spread, an in-place division and
    sum, and two direct ufunc reductions.
    """
    if not 1.0 < p < math.inf:
        raise BadParams(f"the series needs 1 < p < inf, got {p}")
    if not 0 < tol < 1:
        raise BadParams(f"tol must sit in (0, 1), got {tol}")
    _check_compat(base, mode)
    g = checked_field(g, base.domain.sides)
    # Every sum below, and every cell's |term| m, is at most 2 max|g|
    # max(1, total mass): twice that must be finite.
    if 4.0 * float(np.max(np.abs(g))) * max(1.0, measure.total_mass) \
            == math.inf:
        raise OverflowGuard("the seed is too large for the series to stay "
                            "in the float range; rescale it")
    live = measure.masses > 0
    if fsum(np.abs(g) * measure.masses) <= 0.0:
        raise ZeroInput("the seed function vanishes almost everywhere")
    b = default_norm_bound(mode, base, p)
    denom = 2.0 * b
    term = np.abs(g)
    u = term.copy()
    maximal_of = _maximal_of(base, measure, mode)
    cap = max(1, math.ceil(10.0 * max(1, base.domain.max_level())
                           * math.log2(1.0 / tol)))
    iterations = 0
    while True:
        term = maximal_of(term * measure.masses)
        term /= denom
        if np.maximum.reduce(term, axis=None) < tol * np.minimum.reduce(
                u, axis=None, where=u > 0.0, initial=math.inf):
            break
        u += term
        iterations += 1
        if iterations > cap:
            raise NonConvergence(f"series did not settle within {cap} terms")
    if np.any(u[live] <= 0.0):
        raise ZeroInput("some positive-mass cell sees no mass of the seed "
                        "through the base; enlarge the base family")
    # Zero-mass cells are invisible to every average; park a harmless 1 there
    # so the result is a valid (strictly positive) weight.
    values = u.copy()
    values[~live] = np.maximum(values[~live], 1.0)
    mu = maximal_of(u * measure.masses)
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
