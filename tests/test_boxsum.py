"""The exact box-sum engine and the paths routed through it.

``lattice.box_sums`` must equal ``math.fsum`` over each box bit for bit, so
every comparison here is on the float bits, not within a tolerance.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (GridDomain, Measure, Weight, build_base,
                      doubling_constant, maximal, muckenhoupt_constant,
                      reverse_holder_constant)
from oscillab import lattice
from oscillab.errors import EmptyBase, OscillabError, ZeroMassBaseSet
from oscillab.lattice import BASE_KINDS, BaseSet, box_sums

import oracles

GRIDS = ((8,), (16,), (4, 4), (8, 8), (4, 8))


def _fsum_per_box(values, boxes) -> np.ndarray:
    return np.array([math.fsum(values[b.slices()].ravel().tolist())
                     for b in boxes])


def _intervals(n):
    """Every interval of n cells, as ``BaseSet``s and as corner arrays."""
    boxes = [BaseSet((i,), (j,)) for i in range(n) for j in range(i + 1, n + 1)]
    return boxes, np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _domain(sides) -> GridDomain:
    return GridDomain(sides, split=(1, 1) if len(sides) == 2 else None)


def _family(sides, kind, min_scale, measure=None):
    """The base family, or None where the kind does not fit the grid."""
    dom = _domain(sides)
    measure = measure or Measure.uniform(dom)
    try:
        return build_base(dom, measure, kind, min_scale)
    except OscillabError:
        return None


# Cells from 1e-300 to 1e300 in magnitude, both signs, zeros and subnormals.
# Cells are drawn from a small pool, with signs, so boxes often cancel to
# zero or to a subnormal remainder.
_magnitudes = st.builds(lambda m, e: m * 10.0 ** e,
                        st.floats(1.0, 9.999), st.integers(-300, 299))
_pool_value = st.one_of(st.just(0.0), st.sampled_from([1.0, 0.5, 3.0]),
                        _magnitudes,
                        st.integers(1, 2 ** 20).map(lambda k: k * 5e-324))


@st.composite
def _grid_values(draw):
    sides = draw(st.sampled_from(GRIDS))
    pool = draw(st.lists(_pool_value, min_size=1, max_size=4))
    n = int(np.prod(sides))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    values = np.array([s * pool[i] for s, i in zip(signs, picks)])
    return sides, values.reshape(sides)


def _spanned_cells(rng, sides, span, low, zeros=False, cancel=False):
    """Cells whose nonzero frexp exponents run from low to low + span, both
    ends taken, of both signs.  ``zeros`` sets some cells to +0.0 or -0.0;
    ``cancel`` turns cell pairs into x and -x, or into x and -(x - d), d a
    few units of the least exponent's last place, so boxes cancel to 0 and
    to small remainders (subnormal where low is near -1021)."""
    n = int(np.prod(sides))
    expo = rng.integers(low, low + span + 1, n)
    expo[:2] = low, low + span
    mant = rng.uniform(0.5, 1.0, n)
    short = rng.random(n) < 0.3
    mant[short] = np.floor(mant[short] * 16) / 16  # few mantissa bits
    mant[:2] = 0.75  # exact even where low + span is subnormal
    cells = np.ldexp(mant, expo) * rng.choice([-1.0, 1.0], n)
    if zeros:
        dead = rng.random(n) < 0.2
        dead[:2] = False
        cells[dead] = rng.choice([-0.0, 0.0], int(dead.sum()))
    if cancel:
        ulp = 2.0 ** (low - 53)
        for i in range(2, n - 1, 4):
            if cells[i] != 0.0 and np.frexp(cells[i])[1] == low:
                cells[i] = math.copysign(2.0 ** (low - 1) + ulp * 64, cells[i])
            cells[i + 1] = -cells[i] + math.copysign(
                ulp * int(rng.integers(0, 4)), cells[i])
    return cells.reshape(sides)


def _some_boxes(rng, sides, count):
    """The full box, the first and last cells and ``count`` random boxes."""
    boxes = [BaseSet((0,) * len(sides), tuple(sides)),
             BaseSet((0,) * len(sides), (1,) * len(sides)),
             BaseSet(tuple(s - 1 for s in sides), tuple(sides))]
    for _ in range(count):
        lo = [int(rng.integers(0, s)) for s in sides]
        hi = [int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, sides)]
        boxes.append(BaseSet(tuple(lo), tuple(hi)))
    return boxes


def _assert_like_fsum(values, boxes):
    """``box_sums`` equals per-box ``math.fsum`` bit for bit.  A box whose
    exact sum passes the float range makes the call raise, as fsum does;
    ``box_sums`` then still sums the other boxes.  (fsum may also raise
    on a partial sum whose exact total is finite; the engine returns that
    total, so the exact ``Fraction`` sum decides which boxes overflow.)"""
    want, fits = [], []
    for b in boxes:
        cells = values[b.slices()].ravel().tolist()
        try:
            want.append(math.fsum(cells))
        except OverflowError:
            try:
                want.append(float(sum(map(Fraction, cells))))
            except OverflowError:
                continue
        fits.append(b)
    lo = np.array([b.lo for b in fits]).reshape(-1, values.ndim)
    hi = np.array([b.hi for b in fits]).reshape(-1, values.ndim)
    assert _bits(box_sums(values, lo, hi)) == _bits(want)
    if len(fits) < len(boxes):
        with pytest.raises(OverflowError, match="too large"):
            box_sums(values, [b.lo for b in boxes], [b.hi for b in boxes])


_SPAN_GRIDS = ((8,), (16,), (64,), (256,), (4, 4), (8, 8), (4, 8), (16, 16),
               (32, 32), (64, 64))


@st.composite
def _spanned_grids(draw):
    """(values, boxes) with an exponent span within 3 binades of the
    two-limb guard, at a middle scale, near the subnormal range (least
    exponent near -1021) or near overflow (greatest near 1024)."""
    sides = draw(st.sampled_from(_SPAN_GRIDS))
    guard = 50 - 2 * int(np.prod(sides)).bit_length()
    span = draw(st.integers(guard - 3, guard + 3))
    low = draw(st.one_of(st.integers(-60, 60), st.integers(-1024, -1018),
                         st.integers(1021 - span, 1024 - span)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = _spanned_cells(rng, sides, span, low, draw(st.booleans()),
                            draw(st.booleans()))
    return values, _some_boxes(rng, sides, 40)


@st.composite
def _near_the_scan_guard(draw):
    """(values, boxes, limbs): cells whose greatest frexp exponent top puts
    top + size.bit_length() in 1016..1030, across the 1022 below which
    ``box_sums`` skips its overflow scan, with exponent spans on both sides
    of the two-limb guard; ``limbs`` says which side.  At times every cell
    is positive and about three in four sit at 0.96875 * 2**top, so that
    boxes overflow where top + bits passes 1024."""
    sides = draw(st.sampled_from(_SPAN_GRIDS))
    bits = int(np.prod(sides)).bit_length()
    top = draw(st.sampled_from(range(1016, min(1030, 1024 + bits) + 1))) - bits
    guard = 50 - 2 * bits
    span = draw(st.integers(max(0, guard - 6), guard + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = _spanned_cells(rng, sides, span, top - span, draw(st.booleans()),
                            draw(st.booleans()))
    if draw(st.booleans()):
        values = np.abs(values)
        heavy = rng.random(values.shape) < 0.75
        heavy.flat[:2] = False  # the cells at both ends of the span
        values[heavy] = math.ldexp(0.96875, top)
    # Cancelled pairs next to zeros leave remainders below top - span.
    expo = np.frexp(values)[1][values != 0.0]
    assert expo.max() == top
    return (values, _some_boxes(rng, sides, 40),
            expo.max() - expo.min() + 2 * bits <= 50)


def _assert_path_like_fsum(values, boxes, limbs):
    """``_assert_like_fsum``, and the exact table runs unless ``limbs``."""
    tables = []
    build = lattice.scaled_ints
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "scaled_ints",
                      lambda *a: tables.append(1) or build(*a))
        _assert_like_fsum(values, boxes)
    assert (not tables) == limbs


@st.composite
def _signed_zero_grids(draw):
    """(values, boxes): cells on the two-limb path, most of them negative with
    a nonzero fraction L / 2**k, and -0.0 on a strip along each low edge
    (so the boxes there hold -0.0 cells alone) and on random cells; the
    boxes are every box of the grid, so -0.0 cells take every corner role
    of the inclusion-exclusion, the table's -0.0 padding included."""
    sides = draw(st.sampled_from(((8,), (16,), (32,), (4, 4), (4, 8), (8, 8))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.one_of(st.integers(-40, 40), st.integers(-1021, -1016)))
    expo = rng.integers(low, low + draw(st.integers(0, 6)) + 1, sides)
    values = np.ldexp(rng.uniform(0.5, 1.0, sides), expo) * np.where(
        rng.random(sides) < draw(st.sampled_from([0.5, 0.8, 1.0])), -1.0, 1.0)
    zero = rng.random(sides) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    for axis, side in enumerate(sides):
        zero[(slice(None),) * axis + (slice(draw(st.integers(0, side - 1))),)] = True
    zero.flat[-1] = False
    values[zero] = -0.0
    values.flat[-1] = -abs(values.flat[-1])
    axes = [[(i, j) for i in range(n) for j in range(i + 1, n + 1)]
            for n in sides]
    boxes = [BaseSet(*zip(*box)) for box in itertools.product(*axes)]
    return values, boxes


class TestBoxSums:
    @given(_grid_values(), st.sampled_from(BASE_KINDS), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_box_fsum_bit_for_bit(self, grid, kind, min_scale):
        sides, values = grid
        base = _family(sides, kind, min_scale)
        if base is None:
            return
        got = box_sums(values, base.lo, base.hi)
        assert _bits(got) == _bits(_fsum_per_box(values, base.sets))

    @given(_grid_values())
    @settings(max_examples=100, deadline=None)
    def test_dyadic_lattice_and_single_cells(self, grid):
        sides, values = grid
        boxes = list(oracles.iter_dyadic_boxes(sides))
        lo = np.array([b.lo for b in boxes])
        hi = np.array([b.hi for b in boxes])
        assert _bits(box_sums(values, lo, hi)) == _bits(_fsum_per_box(values, boxes))
        # ``dyadic_grids`` holds the same boxes, one grid of corners a shape.
        got, grid_boxes = [], []
        for shape, sums in lattice.dyadic_grids(GridDomain(sides), values).items():
            got.extend(sums.ravel().tolist())
            grid_boxes += [BaseSet(j, j + shape) for j in
                           np.argwhere(np.ones(sums.shape, dtype=bool)) * shape]
        assert sorted(grid_boxes, key=BaseSet.sort_key) == grid_boxes
        assert set(grid_boxes) == set(boxes)
        assert _bits(got) == _bits(_fsum_per_box(values, grid_boxes))
        # One-cell boxes give the cell itself, except that fsum turns -0.0
        # into 0.0.
        cells = np.argwhere(np.ones(sides, dtype=bool))
        assert _bits(box_sums(values, cells, cells + 1)) \
            == _bits(values.ravel() + 0.0)

    def test_subnormal_results(self):
        tiny = 5e-324
        values = np.array([1e300, -1e300, 3 * tiny, -tiny, 0.5, -0.5, tiny, 0.0])
        lo = np.array([[0], [2], [0], [4], [3]])
        hi = np.array([[3], [4], [8], [6], [7]])
        got = box_sums(values, lo, hi)
        assert _bits(got) == _bits([3 * tiny, 2 * tiny, 3 * tiny, 0.0, 0.0])
        assert got[0] == 1.5e-323

    def test_exact_overflow_raises_like_fsum(self):
        values = np.array([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError):
            math.fsum(values[:2].tolist())
        with pytest.raises(OverflowError):
            box_sums(values, [[0]], [[2]])
        # fsum overflows on a partial sum here; the engine returns the exact,
        # representable total.
        with pytest.raises(OverflowError):
            math.fsum(values.tolist())
        assert box_sums(values, [[0]], [[3]])[0] == 1e308

    # On the exact table, ``box_sums`` rounds each box int times a power of
    # two by one int / int quotient.  Where the exponent span top - low +
    # 53 + size.bit_length() reaches 1023, the int may pass the float
    # range.  Here the span is k + 58 (frexp puts 2**k at exponent k + 1 and
    # 0.5 at 0), so the grid runs on both sides of k = 965.
    @pytest.mark.parametrize("k", [960, 963, 964, 965, 966, 970, 971, 972,
                                   973, 980, 1000, 1022])
    def test_both_conversion_branches(self, k):
        big = 2.0 ** k
        values = np.array([big, 1.0, -big, -1.0, 3.0, big, -big * 0.75, 0.5])
        expo = np.frexp(values)[1]
        assert expo.max() - expo.min() + 53 + values.size.bit_length() \
            == k + 58
        boxes, lo, hi = _intervals(8)
        assert _bits(box_sums(values, lo, hi)) == _bits(_fsum_per_box(values, boxes))

    def test_overflow_in_either_branch(self):
        # Spans below and past 1023, both on the table.
        values = np.array([1e308, 1e308, 2.0 ** 60])  # span 1018
        with pytest.raises(OverflowError, match="too large"):
            box_sums(values, [[0]], [[2]])
        assert box_sums(values, [[1]], [[3]])[0] == 1e308
        values = np.array([2.0 ** 1023, 2.0 ** 1023, 1.0])  # span 1078
        with pytest.raises(OverflowError, match="too large"):
            box_sums(values, [[0]], [[2]])
        assert box_sums(values, [[1]], [[3]])[0] == 2.0 ** 1023

    def test_fast_branch_subnormal_remainders(self):
        tiny = 5e-324
        values = np.array([2.0 ** -1000, 3 * tiny, -(2.0 ** -1000),
                           1.5 * 2.0 ** -1022, -(2.0 ** -1022), 2.0 ** -1060])
        boxes, lo, hi = _intervals(6)
        got = box_sums(values, lo, hi)
        assert _bits(got) == _bits(_fsum_per_box(values, boxes))
        assert got[boxes.index(BaseSet((0,), (3,)))] == 3 * tiny
        assert got[boxes.index(BaseSet((3,), (5,)))] == 2.0 ** -1023

    def test_non_finite_cells_follow_fsum(self):
        values = np.array([1.0, math.inf, 2.0, math.nan, -math.inf, 4.0])
        lo = np.array([[0], [0], [2], [2], [4], [3]])
        hi = np.array([[1], [2], [3], [4], [5], [6]])
        got = box_sums(values, lo, hi)
        assert got[0] == 1.0 and got[2] == 2.0
        assert got[1] == math.inf and got[4] == -math.inf
        assert math.isnan(got[3]) and math.isnan(got[5])
        with pytest.raises(ValueError):
            math.fsum(values[1:5].tolist())
        with pytest.raises(ValueError):
            box_sums(values, [[1]], [[5]])

    @pytest.mark.parametrize("c", [0.0, -0.0, 5e-324, 2.0 ** -1060, 0.1,
                                   1 / 3, -2.5, 1.0, 1e300])
    def test_constant_closed_form(self, c):
        # A constant array sums as c * k per box; every kind on 1-d and 2-d
        # grids, over all boxes and over a family with zero-mass members
        # dropped.
        dropped = 0
        for sides in GRIDS:
            holes = np.ones(sides)
            holes.flat[::3] = 0.0
            for kind in BASE_KINDS:
                for measure in (None, Measure.general(_domain(sides), holes)):
                    base = _family(sides, kind, 0, measure)
                    if base is None:
                        continue
                    dropped += base.dropped_zero_mass
                    values = np.full(sides, c)
                    assert _bits(box_sums(values, base.lo, base.hi)) \
                        == _bits(_fsum_per_box(values, base.sets))
        assert dropped > 0

    def test_constant_overflow_like_the_table(self):
        values = np.full((4, 4), 1e308)
        with pytest.raises(OverflowError):
            math.fsum(values[:2].ravel().tolist())
        with pytest.raises(OverflowError) as closed:
            box_sums(values, [[0, 0], [0, 0]], [[1, 1], [2, 1]])
        values[3, 3] = 1.5e308  # not constant: the exact table
        with pytest.raises(OverflowError) as table:
            box_sums(values, [[0, 0], [0, 0]], [[1, 1], [2, 1]])
        assert type(closed.value) is type(table.value) is OverflowError
        assert str(closed.value) == str(table.value) \
            == "an exact box sum is too large for a float"
        assert box_sums(np.full(4, 1e308), [[1]], [[2]])[0] == 1e308

    def test_constant_skips_the_table(self, monkeypatch):
        def refuse(values):
            raise AssertionError("exact table built")
        monkeypatch.setattr(lattice, "scaled_ints", refuse)
        dom = _domain((16, 16))
        base = build_base(dom, Measure.uniform(dom), "all-cubes")
        assert _bits(base.set_masses(Measure.uniform(dom))) \
            == _bits((base.hi - base.lo).prod(axis=1))
        assert box_sums(np.full(8, -2.5), [[0]], [[8]])[0] == -20.0
        # A narrow exponent span takes the two float limbs, a wide one the
        # exact table.
        assert box_sums(np.arange(8.0), [[0]], [[8]])[0] == 28.0
        with pytest.raises(AssertionError, match="table"):
            box_sums(np.array([1.0, 2.0 ** 60, 0.0, 3.0]), [[0]], [[4]])

    # The two float limbs run where the cells' frexp exponents span at
    # most 50 - 2 * size.bit_length() binades and the least is at least
    # -1021; otherwise the exact table runs.  Each case sits on one side
    # of that guard: (sides, span, least exponent, limbs).
    @pytest.mark.parametrize("sides, span, low, limbs", [
        ((8,), 42, 0, True), ((8,), 43, 0, False),
        ((256,), 32, -40, True), ((256,), 33, -40, False),
        ((16, 16), 32, 900, True), ((16, 16), 33, 900, False),
        ((64, 64), 24, 990, True), ((64, 64), 25, 990, False),
        ((8,), 10, -1021, True), ((8,), 10, -1022, False),
        ((4, 4), 40, -1021, True), ((4, 4), 40, -1022, False)])
    def test_both_paths_at_the_guard(self, sides, span, low, limbs):
        values = _spanned_cells(np.random.default_rng(span + 2000 + low), sides,
                                span, low, cancel=True)
        expo = np.frexp(values)[1][values != 0.0]
        assert (expo.min(), expo.max()) == (low, low + span)
        boxes = _some_boxes(np.random.default_rng(abs(low)), sides, 60)
        _assert_path_like_fsum(values, boxes, limbs)

    @given(_spanned_grids())
    @settings(max_examples=150, deadline=None)
    def test_spans_across_the_guard(self, grid):
        values, boxes = grid
        _assert_like_fsum(values, boxes)

    @given(_near_the_scan_guard())
    @settings(max_examples=150, deadline=None)
    def test_overflow_scan_across_its_guard(self, grid):
        values, boxes, limbs = grid
        _assert_path_like_fsum(values, boxes, limbs)

    # The least and greatest exponents of a nonzero cell come from one scan
    # of |cell|: a negative subnormal as the least magnitude (the exact
    # table, as every subnormal low takes), -0.0 cells among nonzero ones,
    # and one nonzero cell among zeros; on 8 cells, 2**1017 puts top + bits
    # at the scan's guard, 1022, and 2**1018 just past it.
    @pytest.mark.parametrize("values, limbs", [
        ([1.0, -5e-324, 0.5, -2.0, 7.0, 3 * 5e-324, -0.25, 3.0], False),
        ([-5e-324, 2.0 ** -1060, -7 * 5e-324, 0.0, 3 * 5e-324, -0.0,
          2.0 ** -1030, -(2.0 ** -1050)], False),
        ([1.0, -0.0, 3.0, -0.0, -2.5, 0.0, 0.75, -0.0], True),
        ([-0.0, -0.0, 2.0 ** -1000, -0.0, -(2.0 ** -990), -0.0, -0.0, 0.0],
         True),
        ([0.0, -0.0, 0.0, -3.0, 0.0, 0.0, -0.0, 0.0], True),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -(2.0 ** 1017)], True),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -(2.0 ** 1018)], True),
        ([-0.0, 1.5e308, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0], True),
        ([0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 5e-324, 0.0], False)])
    def test_exponent_scan_cases(self, values, limbs):
        _assert_path_like_fsum(np.array(values), _intervals(8)[0], limbs)
        _assert_path_like_fsum(np.array(values).reshape(2, 4),
                               _some_boxes(np.random.default_rng(1), (2, 4),
                                           30), limbs)

    def test_all_zero_and_empty(self):
        zeros = np.zeros((4, 4))
        assert _bits(box_sums(zeros, [[0, 0]], [[4, 4]])) == _bits([0.0])
        assert box_sums(np.ones(4), np.empty((0, 1), int),
                        np.empty((0, 1), int)).shape == (0,)

    @pytest.mark.parametrize("sides", [(64,), (8, 8)])
    def test_one_summer_across_paths(self, monkeypatch, sides):
        # A family's summer keeps its corner blocks and one limb table from
        # call to call.  Fed every path in turn, and the first array again,
        # it must give what a fresh box_sums and per-box fsum give, so no
        # table contents leak from one call into the next.
        monkeypatch.setattr(lattice, "_BOX_BLOCK", 100)
        dom = _domain(sides)
        base = build_base(dom, Measure.uniform(dom), "all-cubes")
        assert len(base) > lattice._BOX_BLOCK
        rng = np.random.default_rng(12)
        narrow = _spanned_cells(rng, sides, 4, 0, zeros=True)
        nan = narrow.copy()
        nan.flat[5] = math.nan
        arrays = [narrow, _spanned_cells(rng, sides, 30, -40, cancel=True),
                  _spanned_cells(rng, sides, 60, -30), np.full(sides, 2.5),
                  np.full(sides, -0.0), np.zeros(sides), nan, narrow]
        tables, real = [], lattice.scaled_ints
        monkeypatch.setattr(lattice, "scaled_ints", lambda values: (
            tables.append(values) or real(values)))
        summer = base.summer
        for values in arrays:
            got = summer(values)
            assert _bits(got) == _bits(_fsum_per_box(values, base.sets))
            assert _bits(got) == _bits(box_sums(values, base.lo, base.hi))
        # Only the wide span took the exact table: once in the summer and
        # once in box_sums.
        assert len(tables) == 2 and tables[0] is tables[1] is arrays[2]

    @given(_signed_zero_grids())
    @settings(max_examples=150, deadline=None)
    def test_limb_split_with_signed_zeros(self, case):
        # One ``modf`` splits each cell into trunc(I / 2**k) and a signed
        # fraction; both limbs of a -0.0 cell are -0.0, and the table's
        # padding is -0.0, so a box of -0.0 cells sums to 0.0 as in fsum.
        values, boxes = case
        bits = values.size.bit_length()
        mag = np.abs(values[values != 0.0])
        low = int(np.frexp(mag.min())[1])
        frac = np.modf(np.ldexp(values, 1 - low - bits))[0]
        assert ((frac != 0.0) & (values < 0.0)).any()
        _assert_path_like_fsum(values, boxes, limbs=True)
        none = np.empty((0, values.ndim), int)
        assert box_sums(values, none, none).shape == (0,)
        empty = [b for b in boxes if not values[b.slices()].any()]
        if empty:
            got = box_sums(values, [b.lo for b in empty], [b.hi for b in empty])
            assert not np.signbit(got).any()


@st.composite
def _general_masses(draw, sides=None):
    """A measure on one of the grids with some cells of zero mass."""
    sides = sides or draw(st.sampled_from(GRIDS))
    n = int(np.prod(sides))
    cells = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.25, 3.5, 1e-300]),
                          min_size=n, max_size=n))
    masses = np.array(cells).reshape(sides)
    if not np.any(masses > 0):
        masses.flat[draw(st.integers(0, n - 1))] = 2.0
    return sides, masses


class TestBuildBase:
    @given(_general_masses(), st.sampled_from(BASE_KINDS), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, grid, kind, min_scale):
        sides, masses = grid
        dom = _domain(sides)
        try:
            base = build_base(dom, Measure.general(dom, masses), kind, min_scale)
        except EmptyBase:
            base = None
        except OscillabError:
            return  # the kind does not fit this grid or scale
        want, dropped = oracles.brute_base(sides, masses, kind, min_scale)
        if base is None:
            assert want == []
            return
        assert [(b.lo, b.hi) for b in base.sets] == want
        assert base.dropped_zero_mass == dropped
        assert [tuple(r) for r in base.lo] == [b[0] for b in want]
        assert [tuple(r) for r in base.hi] == [b[1] for b in want]

    @pytest.mark.parametrize("kind", BASE_KINDS)
    def test_zero_mass_full_domain(self, kind):
        # A valid measure always has mass on the full domain, so bypass the
        # constructor's check to reach the mandated-member guard.
        dom = _domain((4, 4))
        measure = Measure.uniform(dom)
        object.__setattr__(measure, "masses", np.zeros((4, 4)))
        if kind.startswith("dyadic"):
            with pytest.raises(ZeroMassBaseSet):
                oracles.brute_base((4, 4), measure.masses, kind)
            with pytest.raises(ZeroMassBaseSet):
                build_base(dom, measure, kind)
        else:
            assert oracles.brute_base((4, 4), measure.masses, kind)[0] == []
            with pytest.raises(EmptyBase):
                build_base(dom, measure, kind)


@st.composite
def _doubling_measures(draw):
    """(sides, masses, measure): uniform, density or general with zero-mass
    cells, on the box-sum grids and the oblong 4x16 and 16x4."""
    sides = draw(st.sampled_from(GRIDS + ((4, 16), (16, 4))))
    dom = _domain(sides)
    kind = draw(st.sampled_from(["uniform", "density", "general"]))
    if kind == "uniform":
        measure = Measure.uniform(dom)
    elif kind == "density":
        n = dom.num_cells
        density = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
        measure = Measure.density(dom, np.array(density).reshape(sides))
    else:
        sides, masses = draw(_general_masses(sides))
        measure = Measure.general(dom, masses)
    return sides, measure.masses, measure


_weights = st.lists(st.floats(-4.0, 4.0), min_size=64, max_size=64).map(
    lambda xs: np.exp(np.array(xs)))


class TestRoutedPaths:
    """Each path through the engine against the per-box loop it replaced."""

    @given(_weights, st.sampled_from(GRIDS), st.sampled_from(BASE_KINDS),
           st.floats(1.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_plain_space_constants(self, cells, sides, kind, p):
        base = _family(sides, kind, 0)
        if base is None:
            return
        dom, measure = base.domain, Measure.uniform(base.domain)
        values = cells[:dom.num_cells].reshape(sides)
        m = measure.masses
        ap = rh = -math.inf
        e = -1.0 / (p - 1.0)
        for box, mass in zip(base.sets, base.set_masses(measure)):
            sl = box.slices()
            a = math.fsum((values[sl] * m[sl]).ravel().tolist()) / mass
            b = math.fsum((values[sl] ** e * m[sl]).ravel().tolist()) / mass
            d = math.fsum((values[sl] ** p * m[sl]).ravel().tolist()) / mass
            ap = max(ap, a * b ** (p - 1.0))
            rh = max(rh, d ** (1.0 / p) / a)
        assert _bits([muckenhoupt_constant(Weight(dom, values), p, base, measure)]) \
            == _bits([ap])
        assert _bits([reverse_holder_constant(Weight(dom, values), p, base,
                                              measure)]) == _bits([rh])

    @given(_general_masses(), st.sampled_from(BASE_KINDS),
           st.sampled_from(["dyadic", "centered", "uncentered"]),
           st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_maximal(self, grid, kind, mode, min_scale, seed):
        sides, masses = grid
        dom = _domain(sides)
        measure = Measure.general(dom, masses)
        base = _family(sides, kind, min_scale, measure)
        if base is None or (mode == "dyadic" and not kind.startswith("dyadic")) \
                or (mode == "centered" and not kind.endswith("cubes")):
            return
        f = np.random.default_rng(seed).standard_normal(sides)
        absfm = np.abs(f) * masses
        want = np.zeros(sides)
        for box, mass in zip(base.sets, base.set_masses(measure)):
            avg = math.fsum(absfm[box.slices()].ravel().tolist()) / mass
            s = box.sides()[0]
            if mode != "centered":
                want[box.slices()] = np.maximum(want[box.slices()], avg)
            elif s % 2 == 1:
                center = tuple(l + (s - 1) // 2 for l in box.lo)
                want[center] = max(want[center], avg)
        want[masses == 0.0] = 0.0
        assert _bits(maximal(f, base, measure, mode)) == _bits(want)

    @given(_doubling_measures(), _weights)
    @settings(max_examples=100, deadline=None)
    def test_doubling(self, grid, cells):
        sides, masses, measure = grid
        dom = measure.domain
        values = cells[:dom.num_cells].reshape(sides)
        wm = values * masses
        want = 1.0
        for box in oracles.iter_dyadic_boxes(sides):
            child = math.fsum(wm[box.slices()].ravel().tolist())
            if child <= 0.0:
                continue
            for axis in range(dom.dims):
                lo, hi = list(box.lo), list(box.hi)
                s = hi[axis] - lo[axis]
                if 2 * s > sides[axis]:
                    continue
                lo[axis] = lo[axis] // (2 * s) * (2 * s)
                hi[axis] = lo[axis] + 2 * s
                parent = math.fsum(
                    wm[tuple(map(slice, lo, hi))].ravel().tolist())
                want = max(want, parent / child)
        got = doubling_constant(Weight(dom, values), measure)
        assert _bits([got]) == _bits([want])


def _member_cells(base, i) -> np.ndarray:
    """Flat indices of member i's cells, in the box's own row-major order."""
    grid = np.arange(base.domain.num_cells).reshape(base.domain.sides)
    return grid[base.box(i).slices()].ravel()


class TestBlockReduce:
    """``lattice.block_reduce`` against a loop with one ``math.fsum`` per
    member over its cells with mass."""

    @pytest.mark.parametrize("sides, kind", [
        ((16,), "dyadic-cubes"), ((16,), "all-cubes"), ((8, 8), "all-cubes"),
        ((8, 8), "dyadic-rectangles"), ((4, 8), "all-rectangles")])
    @pytest.mark.parametrize("gather", [7, 40, 1 << 14])
    @pytest.mark.parametrize("massless", [False, True])
    def test_per_member_fsum(self, monkeypatch, sides, kind, gather,
                             massless):
        # gather 7 and 40 split the runs into blocks of one row and of a
        # few rows.
        monkeypatch.setattr("oscillab.lattice._GATHER_CELLS", gather)
        rng = np.random.default_rng(5)
        masses = rng.uniform(0.5, 2.0, sides)
        f = rng.normal(size=sides) * 10.0 ** rng.uniform(-3, 3, sides)
        if massless:
            masses[rng.random(sides) < 0.3] = 0.0
            masses.flat[0] = 1.0
            # Terms past the float range, on cells without mass only.
            f[masses == 0.0] = 1e300
        base = _family(sides, kind, 0, Measure.general(_domain(sides),
                                                       masses))
        cells, flat = masses.ravel(), f.ravel()
        centre = rng.normal(size=len(base))
        mass = base.set_masses(Measure.general(base.domain, masses))

        def spread(rows, idx):
            return np.abs(flat[idx] - centre[rows, None])

        forms = {"plain": lambda rows, idx: spread(rows, idx) ** 2.7,
                 "log": lambda rows, idx: 300.0 * np.log(spread(rows, idx)),
                 "max": spread}
        # Every member, a prefix, and a scatter that splits blocks.
        selections = {"all": None,
                      "prefix": np.arange(len(base)) < len(base) // 3 + 1,
                      "scatter": rng.random(len(base)) < 0.4}
        for sel, members in selections.items():
            for how, form in forms.items():
                with np.errstate(over="ignore"):
                    got = lattice.block_reduce(
                        base, form, None if how == "max" else mass, cells,
                        members=members, log=how == "log")
                want = []
                for i in range(len(base)):
                    if members is not None and not members[i]:
                        continue
                    idx = _member_cells(base, i)
                    live = cells[idx] != 0.0
                    with np.errstate(over="ignore"):
                        terms = form(np.array([i]), idx[None])[0]
                    if how == "max":
                        want.append(max(np.where(live, terms, 0.0).tolist()))
                        continue
                    terms, m = terms[live], cells[idx][live]
                    if how == "plain":
                        want.append(math.fsum((terms * m).tolist())
                                    / float(mass[i]))
                        continue
                    shift = float(np.max(terms))
                    want.append(shift + math.log(math.fsum(
                        (np.exp(terms - shift) * m).tolist()))
                        - math.log(mass[i]))
                assert _bits(got) == _bits(want), (how, sel)


def _outcome(fn, *args, **kwargs):
    """The call's result, or the type and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - errors are compared, not hidden
        return "raised", type(exc), str(exc)


def _reference_max(base, form, mass, cells, members=None):
    """The unscreened path: ``first_max`` over ``block_reduce``."""
    return lattice.first_max(lattice.block_reduce(base, form, mass, cells,
                                                  members=members))


# Cell values of the screened terms: near ties (one value on every cell),
# subnormal and zero tops, inf rows, and sums past the float range.
_TERM_VALUES = {
    "tie": [0.1],
    "spread": [0.0, 0.1, 1.0, 3.0, 1e-3, 7.25, 2.0 ** 60, 2.0 ** -60],
    "subnormal": [0.0, 5e-324, 1e-310, 3e-320],
    "zero": [0.0],
    "inf": [1.0, 2.0, math.inf],
    "huge": [1.0, 1e308, 1.7e308],
}


@st.composite
def _screen_case(draw):
    sides, kind = draw(st.sampled_from([
        ((16,), "dyadic-cubes"), ((16,), "all-cubes"), ((8, 8), "all-cubes"),
        ((4, 8), "dyadic-rectangles"), ((4, 8), "all-rectangles")]))
    base = _family(sides, kind, 0)
    n, size = len(base), int(np.prod(sides))
    values = np.array(draw(st.lists(st.sampled_from(
        _TERM_VALUES[draw(st.sampled_from(sorted(_TERM_VALUES)))]),
        min_size=size, max_size=size)))
    # Dense unit cell masses make ties; zeros drop cells from every row.
    pick = draw(st.sampled_from([[1.0], [1.0, 0.0], [0.5, 1.0, 3.0, 0.0]]))
    cells = np.array(draw(st.lists(st.sampled_from(pick), min_size=size,
                                   max_size=size)))
    scale = np.array(draw(st.lists(st.sampled_from([1.0, 1.0, 2.0, 0.25]),
                                   min_size=n, max_size=n)))
    # Masses are positive; 1e-300 sends a mean past the float range.
    mass = np.array(draw(st.lists(st.sampled_from(
        [1.0, 1.0, 3.0, 16.0, 0.1, 1e-300]), min_size=n, max_size=n)))
    # No mask, the prefix before a failing box (as the norm kernel passes
    # it), or a scatter that splits blocks.
    members = draw(st.sampled_from([None, "prefix", "scatter"]))
    if members == "prefix":
        members = np.arange(n) < draw(st.integers(0, n))
    elif members == "scatter":
        members = np.array(draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))
    gather = draw(st.sampled_from([7, 40, 1 << 14]))
    return base, values, cells, scale, mass, members, gather


class TestBlockMax:
    """``lattice.block_max``, the screened maximum, against the unscreened
    ``first_max`` over ``block_reduce``, bit for bit, errors included."""

    @given(_screen_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_block_reduce(self, case):
        base, values, cells, scale, mass, members, gather = case
        flat = values.ravel()

        def form(rows, idx):
            return flat[idx] * scale[rows, None]

        with mock.patch("oscillab.lattice._GATHER_CELLS", gather), \
                np.errstate(over="ignore"):
            got = _outcome(lattice.block_max, base, form, mass, cells.ravel(),
                           members)
            want = _outcome(_reference_max, base, form, mass, cells.ravel(),
                            members)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got == want
        else:
            assert _bits([got[1][0]]) == _bits([want[1][0]])
            assert got[1][1] == want[1][1]

    @staticmethod
    def _rows_family(n):
        """Dyadic cubes on a line of 2 n' cells, n' the least power of two
        >= n: member 1 is 0:n', the last member a single cell."""
        side = 1 << (n - 1).bit_length()
        return _family((2 * side,), "dyadic-cubes", 0)

    @staticmethod
    def _form(base, table):
        """Member i's terms are ``table[i]``, zero-padded; others are 0."""
        def form(rows, idx):
            out = np.zeros(idx.shape)
            for i, terms in table.items():
                at = np.flatnonzero(rows == i)[:len(terms)]
                out[at, 0] = terms[:len(at)]
            return out
        return form

    # Rows where numpy's sum and the exact one part: one large term and
    # many below half its ulp, many equal terms, and terms over a wide
    # range of exponents.
    _ADVERSARIAL = {
        "tail-8": [1.0] + [2.0 ** -53] * 7,
        "tail-64": [1.0] + [2.0 ** -53] * 63,
        "tail-4096": [1.0] + [2.0 ** -53] * 4095,
        "equal-1000": [0.1] * 1000,
        "equal-4096": [0.7] * 4096,
        "wide-4096": (np.random.default_rng(3).uniform(1.0, 2.0, 4096)
                      * 2.0 ** np.random.default_rng(4).integers(-60, 61, 4096)
                      ).tolist(),
        "wide-3000": (np.random.default_rng(5).uniform(1.0, 2.0, 3000)
                      * 2.0 ** np.random.default_rng(6).integers(-40, 41, 3000)
                      ).tolist(),
    }

    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    def test_screen_error_within_the_bound(self, name):
        # The screen's numpy mean of n terms >= 0 lies within Higham's
        # gamma_(n-1) and one rounding of the division of the exact mean,
        # and ``math.fsum`` over the mass rounds the exact mean once.
        row = np.array([self._ADVERSARIAL[name]])
        n, u = row.shape[1], 2.0 ** -53
        for mass in (1.0, 3.0, 0.125):
            exact = oracles.fraction_row_mean(row, mass)
            screened = float(row.sum(axis=1)[0] / mass)
            gamma = (n - 1) * u / (1 - (n - 1) * u)
            assert abs(Fraction(screened) - exact) <= (gamma + u + gamma * u) * exact
            if mass != 3.0:  # a power of two divides exactly
                assert math.fsum(row[0].tolist()) / mass == float(exact)

    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    def test_rival_one_ulp_away(self, name):
        # A one-cell rival one ulp from the row's exact mean, on the side
        # where numpy's sum erred, ranks the other way in the screen: only
        # the margin keeps both rows for ``math.fsum``.
        terms = self._ADVERSARIAL[name]
        base = self._rows_family(len(terms))
        screened = float(np.array([terms]).sum(axis=1)[0])
        exact = math.fsum(terms)
        assert exact == float(oracles.fraction_row_mean(terms, 1.0))
        # Where numpy's sum is exact the rival sits one ulp below.
        rival = float(np.nextafter(exact, 0.0 if screened == exact else screened))
        last = len(base) - 1
        form = self._form(base, {1: terms, last: [rival]})
        mass, cells = np.ones(len(base)), np.ones(base.domain.num_cells)
        got = lattice.block_max(base, form, mass, cells)
        assert got == _reference_max(base, form, mass, cells)
        assert got == ((exact, 1) if rival < exact else (rival, last))

    def test_row_sum_near_overflow_takes_the_exact_path(self):
        # numpy rounds DBL_MAX + 3 * 2**969 down to DBL_MAX, finite, but
        # its exact sum overflows in ``math.fsum``; that row's mean is far
        # below the top, so only the 2**1023 check sends it to fsum.
        big = [sys.float_info.max] + [2.0 ** 969] * 3
        assert math.isfinite(np.array([big]).sum(axis=1)[0])
        base = self._rows_family(4)
        last = len(base) - 1
        form = self._form(base, {1: big, last: [2.0 ** 1000]})
        mass = np.ones(len(base))
        mass[1] = 2.0 ** 60
        cells = np.ones(base.domain.num_cells)
        want = _outcome(_reference_max, base, form, mass, cells)
        assert want == ("raised", OverflowError, "intermediate overflow in fsum")
        assert _outcome(lattice.block_max, base, form, mass, cells) == want

    def test_subnormal_top_takes_the_exact_path(self):
        # Below 2**-1022 a mean rounds to a multiple of 2**-1074, not
        # relatively: a mass puts numpy's sum and the exact one on either
        # side of 2.5 * 2**-1074, so the row's screened mean is 2 * 2**-1074
        # and its value 3 * 2**-1074, which a later one-cell rival ties.
        terms = (np.array(self._ADVERSARIAL["tail-4096"]) * 2.0 ** -100).tolist()
        screened = float(np.array([terms]).sum(axis=1)[0])
        exact = math.fsum(terms)
        tiny = 2.0 ** -1074
        row_mass = float((Fraction(screened) + Fraction(exact)) / 2
                         / (Fraction(5, 2) * Fraction(tiny)))
        assert (screened / row_mass, exact / row_mass) == (2 * tiny, 3 * tiny)
        base = self._rows_family(len(terms))
        last = len(base) - 1
        form = self._form(base, {1: terms, last: [3 * tiny]})
        mass = np.ones(len(base))
        mass[1] = row_mass
        cells = np.ones(base.domain.num_cells)
        want = _reference_max(base, form, mass, cells)
        assert want == (3 * tiny, 1)
        assert lattice.block_max(base, form, mass, cells) == want

    def test_infinite_top_takes_the_exact_path(self):
        # A mass puts the row's exact mean past the float range and numpy's
        # just inside it: the row's value is inf, and so is a later rival's
        # mean, 1 over a subnormal mass, the only row an infinite top keeps.
        terms = (np.array(self._ADVERSARIAL["tail-4096"]) * 2.0 ** 10).tolist()
        screened = float(np.array([terms]).sum(axis=1)[0])
        exact = math.fsum(terms)
        edge = Fraction(2) ** 1024 - Fraction(2) ** 970  # rounds to inf
        row_mass = float((Fraction(screened) + Fraction(exact)) / 2 / edge)
        assert math.isfinite(screened / row_mass)
        assert exact / row_mass == math.inf
        base = self._rows_family(len(terms))
        last = len(base) - 1
        form = self._form(base, {1: terms, last: [1.0]})
        mass = np.ones(len(base))
        mass[1], mass[last] = row_mass, 5e-324
        cells = np.ones(base.domain.num_cells)
        with np.errstate(over="ignore"):
            want = _reference_max(base, form, mass, cells)
            assert want == (math.inf, 1)
            assert lattice.block_max(base, form, mass, cells) == want

    def test_only_kept_rows_reach_fsum(self, monkeypatch):
        rng = np.random.default_rng(11)
        base = _family((8, 8), "all-cubes", 0)
        flat = rng.uniform(0.0, 1.0, 64)
        flat[[5, 6]] = 0.999  # a near tie at the top
        mass = base.set_masses(Measure.uniform(base.domain))
        cells = np.ones(64)

        def form(rows, idx):
            return flat[idx] ** 2

        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        best = lattice.block_max(base, form, mass, cells)
        kept = len(calls)
        calls.clear()
        assert best == _reference_max(base, form, mass, cells)
        assert len(calls) == len(base)
        # The rows whose numpy mean is within (n + 2) 2**-52 of the top.
        means = np.array([float(form(None, np.array([_member_cells(base, i)]))
                                .sum() / mass[i]) for i in range(len(base))])
        width = max(int(np.prod(b)) for b in (base.hi - base.lo))
        want = np.count_nonzero(means >= means.max() * (1 - (width + 2) * 2.0 ** -52))
        assert kept == want < len(base)


class TestScreenedMax:
    """``lattice.screened_max``, the one keep rule in front of every exact
    confirm of a per-box maximum."""

    @staticmethod
    def _run(screen, margin, exact=None):
        """(result, the member lists ``confirm`` saw); exact values are the
        screen's unless given."""
        seen = []
        exact = np.asarray(screen if exact is None else exact, dtype=float)

        def confirm(keep):
            seen.append(list(keep))
            return (exact.item(i) for i in keep)
        return lattice.screened_max(np.asarray(screen, dtype=float), margin,
                                    confirm), seen

    def test_empty(self):
        assert self._run([], 2.0 ** -40) == ((-math.inf, None), [[]])

    @pytest.mark.parametrize("top", [math.inf, math.nan, 0.0, 5e-324,
                                     2.0 ** -1023])
    def test_keeps_all_where_top_is_not_positive_normal(self, top):
        # A subnormal top times (1 - margin) rounds back to top.
        _, seen = self._run([0.5 * top, top, 0.0, 0.25 * top], 2.0 ** -40)
        assert seen == [[0, 1, 2, 3]]

    def test_keeps_all_at_an_infinite_margin(self):
        got, seen = self._run([1.0, 3.0, 2.0], math.inf)
        assert (got, seen) == ((3.0, 1), [[0, 1, 2]])

    def test_kept_positions_map_to_members(self):
        # Members 1 and 3 are within 1% of the top; the exact values put 3
        # first, and its index comes back as a member index.
        screen = [1.0, 5.0, 3.0, 4.999, 2.0]
        exact = [1.0, 4.0, 3.0, 4.5, 2.0]
        assert self._run(screen, 0.01, exact) == ((4.5, 3), [[1, 3]])

    def test_confirm_sees_only_the_kept_in_order(self):
        screen = np.array([7.0, 1.0, 7.0, 6.99, 7.0, 0.0])
        got, seen = self._run(screen, 2.0 ** -20)
        assert (got, seen) == ((7.0, 0), [[0, 2, 4]])

    @given(_screen_case())
    @settings(max_examples=60, deadline=None)
    def test_block_max_without_cell_masses(self, case):
        base, values, _, scale, mass, members, gather = case
        flat = values.ravel()

        def form(rows, idx):
            return flat[idx] * scale[rows, None]

        with mock.patch("oscillab.lattice._GATHER_CELLS", gather), \
                np.errstate(over="ignore"):
            got = _outcome(lattice.block_max, base, form, mass, None, members)
            want = _outcome(_reference_max, base, form, mass, None, members)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got == want
        else:
            assert _bits([got[1][0]]) == _bits([want[1][0]])
            assert got[1][1] == want[1][1]
