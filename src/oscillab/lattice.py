"""Finite grid domains, cell-mass measures, and axis-aligned box families.

Everything downstream reduces integrals to weighted sums over cells and
suprema to maxima over a finite family of boxes.  Sums are correctly
rounded and every family carries a canonical order, so repeated runs are
bit-reproducible.

A family is its corner arrays, ``BaseFamily.lo`` and ``hi``, in canonical
order; every reduction reads them, and ``BaseSet`` objects are built only
on demand.

Two summation primitives share one contract.  ``fsum`` adds one array with
``math.fsum``.  ``box_sums`` adds one array over many boxes at once, with
O(cells) set-up and O(1) exact work per box: each cell becomes an exact
Python int scaled by a common power of two, a zero-padded cumulative table
is taken per axis, and each box's exact int is got from its corners by
inclusion-exclusion (summed-area tables, Crow 1984).  Each int is rounded
once by ``float()``, and the whole result is scaled back by one exact
``ldexp``; a sum in the subnormal range is a multiple of 2**-1074 and so
already exact.  Where the cells span so many binary orders (about 970)
that an int could pass the float range, each int is divided by the
power of two instead, which rounds as correctly.  On finite cells the
result is the exact sum rounded once, so it equals ``math.fsum`` over the
box bit for bit; an exact sum beyond the float range raises
``OverflowError`` as ``fsum`` does.  The one difference: ``fsum`` can
raise "intermediate overflow" on partial sums whose exact total is
finite, and ``box_sums`` returns that total.  With a non-finite cell in
``values`` every box goes through ``fsum``, which gives inf, nan or
``ValueError`` (inf + -inf).  A constant array c (uniform masses, unit
weights) skips the table: a box of k < 2**53 cells sums to c * k exactly,
so one float product rounds it once, for O(1) float work per box.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadParams, EmptyBase, ZeroMassBaseSet

BASE_KINDS = ("dyadic-cubes", "all-cubes", "dyadic-rectangles", "all-rectangles")
DYADIC_KINDS = ("dyadic-cubes", "dyadic-rectangles")
CUBE_KINDS = ("dyadic-cubes", "all-cubes")
RECTANGLE_KINDS = ("dyadic-rectangles", "all-rectangles")


def fsum(values) -> float:
    """Correctly rounded sum of an array, iterated in canonical row-major order.

    The result is the true real sum rounded once, so independent code paths
    that add the same multiset of cell values agree bit for bit.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    return math.fsum(arr.ravel().tolist())


def first_max(values, floor: float = -math.inf):
    """(value, index) of the first strict maximum above ``floor`` (a NaN
    never wins), or (floor, None)."""
    best, arg = floor, None
    for i, val in enumerate(values):
        if val > best:
            best, arg = val, i
    return best, arg


def scaled_ints(values: np.ndarray):
    """(ints, low, top): each cell of a finite array as the exact Python int
    cell * 2**(53 - low), low and top the least and greatest exponents of a
    nonzero cell (``np.frexp``); None if every cell is 0."""
    # Cell x == mant * 2**(expo - 53) exactly, mant an integer below 2**53.
    frac, expo = np.frexp(values)
    mant = (frac * 2.0 ** 53).astype(np.int64)
    live = mant != 0
    if not live.any():
        return None
    low, top = int(expo[live].min()), int(expo[live].max())
    ints = mant.astype(object) << np.maximum(expo - low, 0).astype(object)
    return ints, low, top


# Boxes per block of exact big-int arithmetic in ``box_sums``; bounds the
# object-array temporaries on large families.
_BOX_BLOCK = 4096


def box_sums(values, lo, hi) -> np.ndarray:
    """Correctly rounded sum of ``values`` over each box ``lo[i] <= cell < hi[i]``.

    ``lo`` and ``hi`` are integer arrays of shape (boxes, dims).  Element i
    equals ``math.fsum(values[box_i].ravel())`` bit for bit; see the module
    docstring for the contract.  Each box's exact int is rounded by
    ``float()`` and scaled by ``ldexp``, or divided where the cells'
    exponent span nears the float range; a constant array takes one
    product c * k per box instead.  ``OverflowError`` says "too large".
    """
    values = np.asarray(values, dtype=float)
    lo = np.asarray(lo, dtype=np.intp).reshape(-1, values.ndim)
    hi = np.asarray(hi, dtype=np.intp).reshape(-1, values.ndim)
    if not np.isfinite(values).all():
        return np.array([fsum(values[tuple(map(slice, l, h))])
                         for l, h in zip(lo.tolist(), hi.tolist())], dtype=float)
    flat = values.ravel()
    if flat[0] == flat[-1] and flat.min() == flat.max():
        # + 0.0 turns the -0.0 of a constant -0.0 into 0.0, as fsum does.
        with np.errstate(over="ignore"):
            out = flat[0] * (hi - lo).prod(axis=1) + 0.0
        return _finite_sums(out)
    scaled = scaled_ints(values)
    if scaled is None:
        return np.zeros(len(lo))
    ints, low, top = scaled
    table = np.zeros(tuple(n + 1 for n in values.shape), dtype=object)
    inner = table[(slice(1, None),) * values.ndim]
    inner[...] = ints
    for axis in range(values.ndim):
        np.cumsum(inner, axis=axis, out=inner)
    # The exact sum of a box is acc * 2**shift, with |acc| below
    # 2**(top - low + 53 + values.size.bit_length()).  Unless that bound
    # nears the float range, float(acc) rounds acc correctly and ldexp
    # scales it exactly (a subnormal sum has fewer than 53 significant
    # bits, so it is already exact); otherwise divide, as acc may not fit.
    wide = top - low + 53 + values.size.bit_length() >= 1023
    shift = low - 53
    scale, den = (1 << shift, 1) if shift >= 0 else (1, 1 << -shift)
    out = np.empty(len(lo))
    for start in range(0, len(lo), _BOX_BLOCK):
        l = lo[start:start + _BOX_BLOCK].T
        h = hi[start:start + _BOX_BLOCK].T
        if values.ndim == 1:
            acc = table[h[0]] - table[l[0]]
        else:
            acc = (table[h[0], h[1]] - table[l[0], h[1]]
                   - table[h[0], l[1]] + table[l[0], l[1]])
        if not wide:
            out[start:start + len(acc)] = acc.astype(float)
            continue
        if scale != 1:
            acc *= scale
        # int / int is correctly rounded, subnormal and overflow included.
        out[start:start + len(acc)] = acc / den
    if wide:
        return out
    with np.errstate(over="ignore"):
        return _finite_sums(np.ldexp(out, shift))


def _finite_sums(out: np.ndarray) -> np.ndarray:
    if np.isinf(out).any():
        raise OverflowError("an exact box sum is too large for a float")
    return out


def content_key(values) -> tuple:
    """Cache key for an array's content: its shape and the sha256 of its
    float64 bytes.  Rewriting an array in place changes its key."""
    arr = np.ascontiguousarray(values, dtype=float)
    return arr.shape, hashlib.sha256(arr.tobytes()).digest()


class BoundedCache:
    """At most ``bound`` entries; the least recently used goes first.

    Every cache in oscillab is one of these, held by the instance it serves
    (a ``BaseFamily`` or a ``Weight``), so nothing outlives that instance.
    ``hits`` and ``misses`` count lookups.
    """

    __slots__ = ("bound", "hits", "misses", "_data")

    def __init__(self, bound: int):
        self.bound = bound
        self.hits = self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def fetch(self, key, compute):
        """The entry under ``key``; on a miss, ``compute()`` stored under it.
        An exception from ``compute`` propagates and stores nothing."""
        data = self._data
        if key in data:
            self.hits += 1
            data.move_to_end(key)
            return data[key]
        self.misses += 1
        got = data[key] = compute()
        if len(data) > self.bound:
            data.popitem(last=False)
        return got


# Entry bounds of the per-family caches (see ``BaseFamily``).
SUMS_ENTRIES = 16
NORM_ENTRIES = 32


# Cells per gathered block in ``BaseFamily.shape_runs`` and the tiled
# ``operators.maximal``; bounds the temporaries of the shape-grouped kernels.
_GATHER_CELLS = 1 << 14


@dataclass(frozen=True)
class GridDomain:
    """Finite grid of cells; each side is a power of two.

    ``split`` tags a 2-d grid as the product of two one-axis factors, the
    shape rectangle bases are built over.
    """

    sides: tuple[int, ...]
    split: tuple[int, int] | None = None

    def __post_init__(self):
        sides = tuple(int(s) for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if not 1 <= len(sides) <= 2:
            raise BadParams(f"only 1-d and 2-d grids are supported, got dims={len(sides)}")
        for s in sides:
            if s < 1 or s & (s - 1):
                raise BadParams(f"every side must be a power of two, got {s}")
        if self.split is not None:
            split = tuple(int(x) for x in self.split)
            object.__setattr__(self, "split", split)
            if len(sides) != 2 or sum(split) != 2 or min(split) < 1:
                raise BadParams(f"split must be (1, 1) on a 2-d grid, got {split}")

    @property
    def dims(self) -> int:
        return len(self.sides)

    @property
    def num_cells(self) -> int:
        return math.prod(self.sides)

    def max_level(self) -> int:
        return max(self.sides).bit_length() - 1

    def full_box(self) -> "BaseSet":
        return BaseSet((0,) * self.dims, self.sides)

    def to_dict(self) -> dict:
        d: dict = {"sides": list(self.sides)}
        if self.split is not None:
            d["split"] = list(self.split)
        return d


@dataclass(frozen=True, slots=True)
class BaseSet:
    """Half-open axis-aligned box of whole cells: lo <= cell < hi.

    Slotted: a family can hold tens of thousands of boxes, and an instance
    dict would take twice the memory of the box itself.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(map(int, self.lo))
        hi = tuple(map(int, self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise BadParams(f"corner ranks differ: {lo} vs {hi}")
        if min(lo) < 0 or not all(map(operator.lt, lo, hi)):
            raise BadParams(f"empty or negative box {lo}..{hi}")

    @property
    def dims(self) -> int:
        return len(self.lo)

    def sides(self) -> tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def cell_count(self) -> int:
        return math.prod(self.sides())

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def sort_key(self):
        # Canonical order: scale descending, then lexicographic corner.
        return tuple(-s for s in self.sides()), self.lo

    def label(self) -> str:
        return "x".join(f"{l}:{h}" for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True, eq=False)
class Measure:
    """Nonnegative mass per cell with positive total.

    ``kind`` is a provenance tag: uniform, density-over-uniform, or general.
    """

    domain: GridDomain
    masses: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        masses = np.ascontiguousarray(self.masses, dtype=float)
        if masses.shape != self.domain.sides:
            raise BadParams(f"mass shape {masses.shape} != domain {self.domain.sides}")
        if not np.all(np.isfinite(masses)) or np.any(masses < 0):
            raise BadParams("masses must be finite and nonnegative")
        if fsum(masses) <= 0.0:
            raise BadParams("total mass must be positive")
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def uniform(cls, domain: GridDomain) -> "Measure":
        return cls(domain, np.ones(domain.sides), kind="uniform")

    @classmethod
    def density(cls, domain: GridDomain, density: np.ndarray) -> "Measure":
        """Density times the uniform unit cell mass."""
        return cls(domain, np.asarray(density, dtype=float), kind="density-over-uniform")

    @classmethod
    def general(cls, domain: GridDomain, masses: np.ndarray) -> "Measure":
        return cls(domain, np.asarray(masses, dtype=float), kind="general")

    @property
    def total_mass(self) -> float:
        return fsum(self.masses)

    @functools.cached_property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.domain.sides).encode())
        h.update(self.kind.encode())
        h.update(self.masses.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class BaseFamily:
    """Canonically ordered family of boxes attached to one domain.

    The family is its corner arrays: ``lo`` and ``hi`` are read-only
    integer arrays of shape (sets, dims), box i being lo[i] <= cell < hi[i].
    Code refers to a member by its index i; ``box(i)`` builds one
    ``BaseSet``, for a box a report prints.  ``sets`` builds the whole
    tuple on first access and caches it; no oscillab path reads it (the
    benchmark tracer in ``perfbench`` does).

    Each member has positive measure for the measure it was built against;
    zero-mass candidates are dropped (and counted) at construction.

    Two bounded caches live and die with the family, both keyed by content:
    ``sums`` keeps up to ``SUMS_ENTRIES`` read-only result arrays, at most
    16 x len x 8 bytes (4.2 MB for the 32,896 boxes of 256 all-cubes); and
    ``oscillation.oscillation_norm`` keeps up to ``NORM_ENTRIES`` reports
    in ``_norms``, each about 1 KB, plus about 32 bytes per member (a float
    and its tuple slot) for a report with ``per_set`` values.  A dyadic
    family keeps ``tile_index`` for ``maximal``: 4 x shapes x cells bytes
    (0.8 MB on 64x64 dyadic-rectangles).
    """

    kind: str
    domain: GridDomain
    min_scale: int
    lo: np.ndarray
    hi: np.ndarray
    dropped_zero_mass: int = 0
    _sums: BoundedCache = field(default_factory=lambda: BoundedCache(
        SUMS_ENTRIES), compare=False, repr=False)
    _norms: BoundedCache = field(default_factory=lambda: BoundedCache(
        NORM_ENTRIES), compare=False, repr=False)

    def __post_init__(self):
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @functools.cached_property
    def base_id(self) -> str:
        """Short label that reports print; members are not hashed, so two
        families can share it.  Caches key on ``key``."""
        token = json.dumps(
            {"kind": self.kind, "domain": self.domain.to_dict(),
             "min_scale": self.min_scale, "n": len(self)}, sort_keys=True)
        return hashlib.sha256(token.encode()).hexdigest()[:12]

    @functools.cached_property
    def key(self) -> str:
        """Content key: sha256 of kind, domain, min_scale and the corners."""
        h = hashlib.sha256(json.dumps(
            {"kind": self.kind, "domain": self.domain.to_dict(),
             "min_scale": self.min_scale}, sort_keys=True).encode())
        h.update(self.lo.tobytes())
        h.update(self.hi.tobytes())
        return h.hexdigest()

    @functools.cached_property
    def sets(self) -> tuple[BaseSet, ...]:
        """Every member as a ``BaseSet``, in canonical order; built once."""
        return _box_tuple(self.lo, self.hi)

    def box(self, i: int) -> BaseSet:
        """Member i as a ``BaseSet``, without building ``sets``."""
        return BaseSet(self.lo[i].tolist(), self.hi[i].tolist())

    def __len__(self) -> int:
        return len(self.lo)

    def shape_runs(self):
        """Yield (start, stop, idx) over the members in order, one run of
        boxes of one shape at a time: row i of idx holds the flat (row-major)
        cell indices of member ``start + i``, in the box's own row-major
        order.

        A run longer than ``_GATHER_CELLS`` cells comes in several blocks.
        The family caches one corner index per member and one offset pattern
        per run, not the index blocks themselves.
        """
        runs = getattr(self, "_shape_runs", None)
        if runs is None:
            lo, hi = self.lo, self.hi
            sides = hi - lo
            first = np.ravel_multi_index(tuple(lo.T), self.domain.sides)
            cuts = np.flatnonzero(np.any(sides[1:] != sides[:-1], axis=1)) + 1
            bounds = [0, *cuts.tolist(), len(lo)]
            runs = []
            for start, stop in zip(bounds, bounds[1:]):
                cells = np.indices(sides[start]).reshape(self.domain.dims, -1)
                offsets = np.ravel_multi_index(tuple(cells), self.domain.sides)
                runs.append((start, stop, first[start:stop, None], offsets))
            object.__setattr__(self, "_shape_runs", runs)
        for start, stop, first, offsets in runs:
            rows = max(1, _GATHER_CELLS // len(offsets))
            for a in range(start, stop, rows):
                b = min(a + rows, stop)
                yield a, b, first[a - start:b - start] + offsets

    @functools.cached_property
    def tile_index(self) -> np.ndarray:
        """Dyadic kinds: int32 (shapes, cells); row s, flat cell c holds the
        index of the member of the s-th shape covering c (one dyadic shape
        tiles the grid), or ``len(self)`` where it was dropped for zero mass.
        """
        side = self.hi - self.lo
        rows = np.r_[0, np.cumsum(np.any(side[1:] != side[:-1], axis=1))]
        table = np.full((rows[-1] + 1, self.domain.num_cells), len(self),
                        np.int32)
        for a, b, idx in self.shape_runs():
            table[rows[a], idx] = np.arange(a, b)[:, None]
        return table

    def sums(self, values) -> np.ndarray:
        """``box_sums(values, self.lo, self.hi)``, read-only, memoised in the
        family's LRU of ``SUMS_ENTRIES`` results keyed by ``content_key``.

        A miss costs one ``box_sums`` pass, a hit one sha256 of the array.
        For the linear passes that repeat on one family (w-masses, centre
        numerators, power means); an array built afresh on every call, such
        as each maximal-series term, should call ``box_sums`` directly.
        """
        def compute():
            got = box_sums(values, self.lo, self.hi)
            got.setflags(write=False)
            return got
        return self._sums.fetch(content_key(values), compute)

    def set_masses(self, measure: Measure) -> np.ndarray:
        """Per-member measure, in canonical order: ``sums(measure.masses)``."""
        return self.sums(measure.masses)


def _lengths(side: int, min_scale: int, dyadic: bool) -> list[int]:
    """Interval lengths along one axis, longest first."""
    if dyadic:
        return [1 << s for s in range(side.bit_length() - 1, min_scale - 1, -1)]
    return list(range(side, (1 << min_scale) - 1, -1))


def _boxes_by_shape(sides, shapes, dyadic: bool):
    """Corner arrays (lo, hi) of every box of each shape, shape by shape,
    corners in row-major order; dyadic boxes sit at multiples of their sides.

    With the shapes in descending order this is the canonical order
    (``BaseSet.sort_key``).  One vectorised pass: box j of shape i has
    corner digits j in row-major order against the per-axis corner counts.
    """
    shapes = np.array(list(shapes), dtype=np.intp).reshape(-1, len(sides))
    steps = shapes if dyadic else np.ones_like(shapes)
    counts = np.maximum((np.array(sides, dtype=np.intp) - shapes) // steps + 1, 0)
    per_shape = counts.prod(axis=1)
    which = np.repeat(np.arange(len(shapes)), per_shape)
    rank = np.arange(len(which)) - np.repeat(np.cumsum(per_shape) - per_shape,
                                             per_shape)
    lo = np.empty((len(which), len(sides)), dtype=np.intp)
    for axis in reversed(range(len(sides))):
        rank, digit = np.divmod(rank, counts[which, axis])
        lo[:, axis] = digit * steps[which, axis]
    return lo, lo + shapes[which]


def dyadic_lattice(domain: GridDomain, min_scale: int = 0):
    """Corner arrays of every product of per-axis dyadic intervals."""
    per_axis = [_lengths(s, min_scale, True) for s in domain.sides]
    return _boxes_by_shape(domain.sides, itertools.product(*per_axis), True)


def _candidate_corners(domain: GridDomain, kind: str, min_scale: int):
    """Corner arrays of every box of the kind, in canonical order."""
    sides = domain.sides
    dyadic = kind in DYADIC_KINDS
    if kind in CUBE_KINDS:
        if dyadic and domain.dims == 2 and sides[0] != sides[1]:
            raise BadParams("dyadic-cubes in 2-d needs a square domain "
                            "(the full domain must itself be a cube)")
        shapes = [(n,) * domain.dims
                  for n in _lengths(min(sides), min_scale, dyadic)]
    elif domain.dims != 2 or domain.split is None:
        raise BadParams(f"{kind} needs a 2-d domain with a declared split")
    else:
        # Rectangle kinds: product of one interval per factor of the split.
        shapes = itertools.product(*(_lengths(s, min_scale, dyadic)
                                     for s in sides))
    return _boxes_by_shape(sides, shapes, dyadic)


def _box_tuple(lo: np.ndarray, hi: np.ndarray) -> tuple[BaseSet, ...]:
    # Column lists of ints, not one list per row: a row list per box would
    # double the memory the boxes themselves take.
    d = lo.shape[1]
    return tuple(BaseSet(row[:d], row[d:])
                 for row in zip(*lo.T.tolist(), *hi.T.tolist()))


def build_base(domain: GridDomain, measure: Measure, kind: str,
               min_scale: int = 0) -> BaseFamily:
    """Enumerate every box of the requested kind with positive measure.

    Zero-mass candidates are dropped (counted in ``dropped_zero_mass``);
    a zero-mass *mandated* member (the full domain, for dyadic kinds)
    raises ``ZeroMassBaseSet`` instead.  The result is sorted canonically:
    scale descending, then lexicographic corner.
    """
    if kind not in BASE_KINDS:
        raise BadParams(f"unknown base kind {kind!r}")
    if measure.domain != domain:
        raise BadParams("measure was built for a different domain")
    if min_scale < 0:
        raise BadParams("min_scale must be >= 0")
    usable = min(domain.sides) if kind in CUBE_KINDS else max(domain.sides)
    if (1 << min_scale) > usable:
        raise BadParams(f"min_scale {min_scale} exceeds the domain scale")

    lo, hi = _candidate_corners(domain, kind, min_scale)
    keep = box_sums(measure.masses, lo, hi) > 0.0
    if kind in DYADIC_KINDS:
        full = np.all(lo == 0, axis=1) & np.all(hi == domain.sides, axis=1)
        if np.any(full & ~keep):
            raise ZeroMassBaseSet("the full domain is mandated for dyadic "
                                  "kinds but has zero mass")
    dropped = int(np.count_nonzero(~keep))
    if dropped == len(keep):
        raise EmptyBase("no base set has positive mass")
    lo, hi = lo[keep], hi[keep]
    # One check of all kept corners stands in for validating each BaseSet.
    if np.any(lo < 0) or np.any(lo >= hi) or np.any(hi > domain.sides):
        raise BadParams("a candidate box is empty or leaves the domain")
    return BaseFamily(kind=kind, domain=domain, min_scale=min_scale,
                      lo=lo, hi=hi, dropped_zero_mass=dropped)


# ---------------------------------------------------------------------------
# Serialization: cell fields as CSV.

def write_field_csv(path, domain: GridDomain, values: np.ndarray) -> None:
    """Header line ``dims,side0[,side1]`` then one value per cell, row-major."""
    values = np.asarray(values, dtype=float)
    if values.shape != domain.sides:
        raise BadParams(f"value shape {values.shape} != domain {domain.sides}")
    lines = [",".join([str(domain.dims)] + [str(s) for s in domain.sides])]
    lines.extend(repr(float(v)) for v in values.ravel(order="C"))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_csv(path) -> tuple[GridDomain, np.ndarray]:
    text = Path(path).read_text(errors="replace")  # U+FFFD is no number
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise BadParams(f"{path}: empty field file")
    head = rows[0].split(",")
    try:
        dims = int(head[0])
        sides = tuple(int(x) for x in head[1:])
    except ValueError as exc:
        raise BadParams(f"{path}: bad header {rows[0]!r}") from exc
    if len(sides) != dims:
        raise BadParams(f"{path}: header says dims={dims} but lists {len(sides)} sides")
    domain = GridDomain(sides)
    flat: list[float] = []
    for ln in rows[1:]:
        try:
            flat.extend(float(tok) for tok in ln.replace(",", " ").split())
        except ValueError as exc:
            raise BadParams(f"{path}: bad cell in row {ln!r}") from exc
    if len(flat) != domain.num_cells:
        raise BadParams(f"{path}: expected {domain.num_cells} cells, got {len(flat)}")
    values = np.array(flat).reshape(domain.sides)
    if not np.all(np.isfinite(values)):
        raise BadParams(f"{path}: every cell must be finite")
    return domain, values
