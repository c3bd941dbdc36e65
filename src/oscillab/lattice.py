"""Finite grid domains, cell-mass measures, and axis-aligned box families.

Everything downstream reduces integrals to weighted sums over cells and
suprema to maxima over a finite family of boxes.  Sums are correctly
rounded and every family carries a canonical order, so repeated runs are
bit-reproducible.

Two summation primitives share one contract.  ``fsum`` adds one array with
``math.fsum``.  ``box_sums`` adds one array over many boxes at once, with
O(cells) set-up and O(1) exact work per box: each cell becomes an exact
Python int scaled by a common power of two, a zero-padded cumulative table
is taken per axis, and each box sum is got from its corners by
inclusion-exclusion and one correctly rounded int-to-float division
(summed-area tables, Crow 1984).  On finite cells the result is the exact
sum rounded once, so it equals ``math.fsum`` over the box bit for bit;
an exact sum beyond the float range raises ``OverflowError`` as ``fsum``
does.  The one difference: ``fsum`` can raise "intermediate overflow" on
partial sums whose exact total is finite, and ``box_sums`` returns that
total.  With a non-finite cell in ``values`` every box goes through
``fsum``, which gives inf, nan or ``ValueError`` (inf + -inf).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
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


# Boxes per block of exact big-int arithmetic in ``box_sums``; bounds the
# object-array temporaries on large families.
_BOX_BLOCK = 4096


def box_sums(values, lo, hi) -> np.ndarray:
    """Correctly rounded sum of ``values`` over each box ``lo[i] <= cell < hi[i]``.

    ``lo`` and ``hi`` are integer arrays of shape (boxes, dims).  Element i
    equals ``math.fsum(values[box_i].ravel())`` bit for bit; see the module
    docstring for the contract.
    """
    values = np.asarray(values, dtype=float)
    lo = np.asarray(lo, dtype=np.intp).reshape(-1, values.ndim)
    hi = np.asarray(hi, dtype=np.intp).reshape(-1, values.ndim)
    if not np.isfinite(values).all():
        return np.array([fsum(values[tuple(map(slice, l, h))])
                         for l, h in zip(lo.tolist(), hi.tolist())], dtype=float)
    # Cell x == mant * 2**(expo - 53) exactly, with mant an integer below
    # 2**53; scaled by 2**(53 - low) it is the exact int mant << (expo - low).
    frac, expo = np.frexp(values)
    mant = (frac * 2.0 ** 53).astype(np.int64)
    live = mant != 0
    if not live.any():
        return np.zeros(len(lo))
    low = int(expo[live].min())
    table = np.zeros(tuple(n + 1 for n in values.shape), dtype=object)
    inner = table[(slice(1, None),) * values.ndim]
    inner[...] = mant.astype(object) << np.maximum(expo - low, 0).astype(object)
    for axis in range(values.ndim):
        np.cumsum(inner, axis=axis, out=inner)
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
        if scale != 1:
            acc *= scale
        # int / int is correctly rounded, subnormal and overflow included.
        out[start:start + len(acc)] = acc / den
    return out


# Cells per gathered block in ``BaseFamily.shape_runs``; bounds the
# (boxes, cells) temporaries of the shape-grouped kernels.
_GATHER_CELLS = 1 << 14


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
            if not _is_pow2(s):
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
        n = 1
        for s in self.sides:
            n *= s
        return n

    def levels(self) -> tuple[int, ...]:
        return tuple(s.bit_length() - 1 for s in self.sides)

    def max_level(self) -> int:
        return max(self.levels())

    def full_box(self) -> "BaseSet":
        return BaseSet((0,) * self.dims, self.sides)

    def to_dict(self) -> dict:
        d: dict = {"sides": list(self.sides)}
        if self.split is not None:
            d["split"] = list(self.split)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GridDomain":
        split = d.get("split")
        return cls(tuple(d["sides"]), tuple(split) if split else None)


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
        n = 1
        for s in self.sides():
            n *= s
        return n

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def contains_box(self, other: "BaseSet") -> bool:
        return all(l <= ol and oh <= h
                   for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    def sort_key(self):
        # Canonical order: scale descending, then lexicographic corner.
        return tuple(-s for s in self.sides()), self.lo

    def label(self) -> str:
        return "x".join(f"{l}:{h}" for l, h in zip(self.lo, self.hi))

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


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

    @property
    def digest(self) -> str:
        cached = getattr(self, "_digest", None)
        if cached is None:
            h = hashlib.sha256()
            h.update(repr(self.domain.sides).encode())
            h.update(self.kind.encode())
            h.update(self.masses.tobytes())
            cached = h.hexdigest()[:16]
            object.__setattr__(self, "_digest", cached)
        return cached

    def mass_of(self, box: BaseSet) -> float:
        return fsum(self.masses[box.slices()])


@dataclass(frozen=True, eq=False)
class BaseFamily:
    """Canonically ordered family of boxes attached to one domain.

    Each member has positive measure for the measure it was built against;
    zero-mass candidates are dropped (and counted) at construction.
    """

    kind: str
    domain: GridDomain
    min_scale: int
    sets: tuple[BaseSet, ...]
    dropped_zero_mass: int = 0
    _mass_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def base_id(self) -> str:
        cached = getattr(self, "_base_id", None)
        if cached is None:
            h = hashlib.sha256()
            token = json.dumps(
                {"kind": self.kind, "domain": self.domain.to_dict(),
                 "min_scale": self.min_scale, "n": len(self.sets)},
                sort_keys=True)
            h.update(token.encode())
            cached = h.hexdigest()[:12]
            object.__setattr__(self, "_base_id", cached)
        return cached

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) integer arrays of shape (sets, dims), in ``sets`` order.

        ``build_base`` hands over the arrays it built the sets from; a family
        made any other way builds them on first use.
        """
        cached = getattr(self, "_corners", None)
        if cached is None:
            lo = np.array([b.lo for b in self.sets], dtype=np.intp)
            hi = np.array([b.hi for b in self.sets], dtype=np.intp)
            lo.setflags(write=False)
            hi.setflags(write=False)
            cached = (lo, hi)
            object.__setattr__(self, "_corners", cached)
        return cached

    def shape_runs(self):
        """Yield (start, stop, idx) over ``sets`` in order, one run of boxes
        of one shape at a time: row i of idx holds the flat (row-major) cell
        indices of set ``start + i``, in the box's own row-major order.

        A run longer than ``_GATHER_CELLS`` cells comes in several blocks.
        The family caches one corner index per set and one offset pattern
        per run, not the index blocks themselves.
        """
        runs = getattr(self, "_shape_runs", None)
        if runs is None:
            lo, hi = self.corners()
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

    def set_masses(self, measure: Measure) -> np.ndarray:
        """Per-set measure, aligned with ``sets``; cached per measure digest."""
        key = measure.digest
        got = self._mass_cache.get(key)
        if got is None:
            got = box_sums(measure.masses, *self.corners())
            got.setflags(write=False)
            self._mass_cache[key] = got
        return got

    def to_dict(self) -> dict:
        return {"kind": self.kind, "domain": self.domain.to_dict(),
                "min_scale": self.min_scale}


def _lengths(side: int, min_scale: int, dyadic: bool) -> list[int]:
    """Interval lengths along one axis, longest first."""
    if dyadic:
        return [1 << s for s in range(side.bit_length() - 1, min_scale - 1, -1)]
    return list(range(side, (1 << min_scale) - 1, -1))


def _boxes_by_shape(sides, shapes, dyadic: bool):
    """Corner arrays (lo, hi) of every box of each shape, shape by shape,
    corners in row-major order; dyadic boxes sit at multiples of their sides.

    With the shapes in descending order this is the canonical order
    (``BaseSet.sort_key``).
    """
    los = [np.empty((0, len(sides)), dtype=np.intp)]
    his = [los[0]]
    for shape in shapes:
        axes = [np.arange(0, n - s + 1, s if dyadic else 1, dtype=np.intp)
                for n, s in zip(sides, shape)]
        lo = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        los.append(lo.reshape(-1, len(sides)))
        his.append(los[-1] + np.array(shape, dtype=np.intp))
    return np.concatenate(los), np.concatenate(his)


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
    family = BaseFamily(kind=kind, domain=domain, min_scale=min_scale,
                        sets=_box_tuple(lo, hi), dropped_zero_mass=dropped)
    lo.setflags(write=False)
    hi.setflags(write=False)
    object.__setattr__(family, "_corners", (lo, hi))
    return family


def iter_dyadic_boxes(domain: GridDomain, min_scale: int = 0):
    """All products of per-axis dyadic intervals (the full dyadic lattice).

    For 1-d this is the binary tree of intervals; for 2-d it includes
    mixed-scale boxes, which is the lattice single-axis doubling lives on.
    """
    yield from _box_tuple(*dyadic_lattice(domain, min_scale))


def axis_parent(box: BaseSet, axis: int, domain: GridDomain) -> BaseSet | None:
    """Dyadic father of ``box`` along one axis (side doubled), or None at the top."""
    s = box.sides()[axis]
    if not (_is_pow2(s) and box.lo[axis] % s == 0):
        raise BadParams(f"{box.label()} is not dyadic along axis {axis}")
    if 2 * s > domain.sides[axis]:
        return None
    lo = list(box.lo)
    hi = list(box.hi)
    lo[axis] = (box.lo[axis] // (2 * s)) * (2 * s)
    hi[axis] = lo[axis] + 2 * s
    return BaseSet(tuple(lo), tuple(hi))


def simultaneous_children(box: BaseSet) -> list[BaseSet]:
    """Bisect every axis with at least two cells, preserving the aspect ratio.

    Returns [] for a single cell.  If only one axis is still divisible the
    step degenerates to a single bisection.
    """
    splittable = [a for a, s in enumerate(box.sides()) if s >= 2]
    if not splittable:
        return []
    pieces = [box]
    for a in splittable:
        nxt = []
        for b in pieces:
            mid = b.lo[a] + (b.hi[a] - b.lo[a]) // 2
            lo1, hi1 = list(b.lo), list(b.hi)
            hi1[a] = mid
            lo2, hi2 = list(b.lo), list(b.hi)
            lo2[a] = mid
            nxt.append(BaseSet(tuple(lo1), tuple(hi1)))
            nxt.append(BaseSet(tuple(lo2), tuple(hi2)))
        pieces = nxt
    pieces.sort(key=BaseSet.sort_key)
    return pieces


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
    text = Path(path).read_text()
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
        flat.extend(float(tok) for tok in ln.replace(",", " ").split())
    if len(flat) != domain.num_cells:
        raise BadParams(f"{path}: expected {domain.num_cells} cells, got {len(flat)}")
    values = np.array(flat).reshape(domain.sides)
    if not np.all(np.isfinite(values)):
        raise BadParams(f"{path}: every cell must be finite")
    return domain, values
