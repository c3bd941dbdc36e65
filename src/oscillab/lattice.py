"""Finite grid domains, cell-mass measures, and axis-aligned box families.

Everything downstream reduces integrals to weighted sums over cells and
suprema to maxima over a finite family of boxes.  Sums are correctly
rounded and every family carries a canonical order, so repeated runs are
bit-reproducible.

A family is its corner arrays, ``BaseFamily.lo`` and ``hi``, in canonical
order; every reduction reads them, and ``BaseSet`` objects are built only
on demand.  What rests on the boxes alone is a ``Geometry``, pooled by
``build_base`` per (sides, split, kind, min_scale) with every candidate box;
a ``BaseFamily`` is one measure's view of it, or of its boxes of positive
mass, with that measure's caches.  The pool holds at most ``POOL_BYTES`` of
``Geometry.nbytes``, least recently used out first, and serves the dyadic
lattice (``dyadic_grids``) of the doubling constant and the stopping time.

Three summation primitives share one contract: a sum is the exact sum
rounded once.  ``fsum`` adds one array with ``math.fsum``.  ``box_sums``
adds one array over many boxes at once, with O(cells) work and O(1) more
per box, from summed-area tables (Crow 1984): a padded cumulative table
per axis, and each box's sum from its corners by inclusion-exclusion.  A
``box_summer`` does the set-up that rests on the boxes alone once (each
geometry keeps one, ``Geometry.summer``); ``box_sums`` is a one-shot, left
only to the sequence rule's level fields, whose boxes no geometry holds.  Each
cell x is an exact integer I = x * 2**(53 - low), low and top the least and
greatest frexp exponents of a nonzero cell.  Where top - low <= 50 - 2 *
bits, N cells < 2**bits, and no cell is below 2**-1022, one ``np.modf``
splits I / 2**k, k = 52 - bits, into two exact float64 limbs, H = trunc(I /
2**k) and the signed fraction L / 2**k, |L| < 2**k.  The sums of the
fractions, multiples of 2**(bits - 52), stay below 2**bits, those of H below
2**51, and every step of 2-d inclusion-exclusion below twice that, so all
are exact; each box's H + L / 2**k is one IEEE addition, the exact sum
rounded once, and one ``ldexp`` scales it back exactly (a subnormal result
has fewer than 53 significant bits and is a multiple of 2**-1074).  The
padding is -0.0, so a box of -0.0 cells sums to 0.0, as in ``fsum``; only
exact ``+``, ``-``, ``modf`` and ``ldexp`` run, so the bits do not depend on
the CPU.  Otherwise the table holds I as Python ints, and each box's int
times 2**(low - 53) is one int / int quotient, which Python rounds
correctly, subnormals and overflow included.  On finite cells the result
equals ``math.fsum`` over the box bit for bit, and an exact sum beyond the
float range raises ``OverflowError``; no |box sum| reaches 2**(top + bits),
so the results are scanned for it only where top + bits passes 1022.  The
one difference: ``fsum`` can raise "intermediate overflow" on partial sums
whose exact total is finite, and ``box_sums`` returns that total.  With a
NaN or inf cell every box goes through ``fsum`` (inf, nan or ``ValueError``).
A constant array c (uniform masses, unit weights) skips the tables: a box of
k < 2**53 cells sums to c * k exactly, one float product rounded once.

``block_reduce`` and ``block_max`` are the sites of the nonlinear per-box
sums, per chunk of whole members of ``BaseFamily.layout``: one gather, one
call of the caller's form, a fill of the cells without mass (inf times 0
would make a row NaN) and one ``reduceat``.  ``block_reduce`` gives each
member's fsum(t * m) / mass, m the cell masses where given, or in log space
shift + log(fsum(exp(t - shift) * m)) - log(mass), shift the row maximum
over cells with mass.  ``block_max`` gives the first maximum of fsum(t * m)
/ mass, t >= 0: a numpy row sum of n terms, in any order, is within
gamma_(n-1) = (n-1)u / (1 - (n-1)u) of the exact sum (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 4.2), so its means screen the
rows with margin (n + 2) 2**-52, n the widest member, or inf where a sum
reaches 2**1023 (fsum may raise there).  Per chunk, ``screened_max``
confirms the members whose screen is at least top * (1 - margin), top the
largest screen so far, or all where top is not a positive normal float or
margin is inf, so no chunk's terms outlive it.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadParams, EmptyBase, OverflowGuard, ZeroMassBaseSet

BASE_KINDS = ("dyadic-cubes", "all-cubes", "dyadic-rectangles", "all-rectangles")
DYADIC_KINDS = ("dyadic-cubes", "dyadic-rectangles")
CUBE_KINDS = ("dyadic-cubes", "all-cubes")
RECTANGLE_KINDS = ("dyadic-rectangles", "all-rectangles")


def fsum(values) -> float:
    """Correctly rounded sum of an array: the exact sum rounded once, so
    code paths that add the same cells agree bit for bit."""
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


def screened_max(screen: np.ndarray, margin: float, confirm, top=-math.inf):
    """(value, index) of the first strict maximum of ``confirm(keep)``, the
    exact values of the members the module docstring keeps, indices in
    order; ``top`` is the largest screen of members before these, if any."""
    top = np.maximum.reduce(screen, initial=top)
    keep = (screen >= top * (1.0 - margin)).nonzero()[0] \
        if margin < math.inf and 2.0 ** -1022 <= top < math.inf \
        else np.arange(len(screen))
    best, j = first_max(confirm(keep))
    return best, None if j is None else int(keep[j])


def checked_field(f, sides) -> np.ndarray:
    """f as a float array; ``BadParams`` unless of shape ``sides``, finite."""
    f = np.asarray(f, dtype=float)
    if f.shape != sides:
        raise BadParams(f"field shape {f.shape} != domain {sides}")
    if not np.isfinite(f).all():
        raise BadParams("field values must be finite")
    return f


def cell_product(a, b, positive: bool = False) -> np.ndarray:
    """a * b per cell; ``OverflowGuard`` where a product passes the float
    range, or with ``positive`` where a, b > 0 give 0 (w m of a massed cell)."""
    with np.errstate(over="ignore"):
        out = np.multiply(a, b)
    if not np.isfinite(out).all() or positive and not out.all() and (
            (out == 0.0) & (a > 0.0) & (b > 0.0)).any():
        raise OverflowGuard("a cell product left the float range; rescale the inputs")
    return out


def scaled_ints(values: np.ndarray):
    """(ints, low, top): each cell of a finite array, not all 0, as the exact
    Python int cell * 2**(53 - low), low and top the least and greatest
    exponents of a nonzero cell (``np.frexp``)."""
    # Cell x == mant * 2**(expo - 53) exactly, mant an integer below 2**53.
    frac, expo = np.frexp(values)
    mant = (frac * 2.0 ** 53).astype(np.int64)
    live = mant != 0
    low, top = int(expo[live].min()), int(expo[live].max())
    ints = mant.astype(object) << np.maximum(expo - low, 0).astype(object)
    return ints, low, top


# Boxes per block of corner gathers in ``box_summer``; bounds the temporaries
# (object arrays on the exact table) on large families.
_BOX_BLOCK = 4096


def box_sums(values, lo, hi) -> np.ndarray:
    """Correctly rounded sum of ``values`` over each box ``lo[i] <= cell < hi[i]``,
    ``lo`` and ``hi`` integer arrays of shape (boxes, dims): element i equals
    ``math.fsum(values[box_i].ravel())`` bit for bit (module docstring)."""
    return box_summer(lo, hi, np.shape(values))(values)


def box_summer(lo, hi, shape):
    """``values -> box_sums(values, lo, hi)`` for arrays of ``shape``, bit for
    bit, set up once: one limb table and, from the first call that reads a
    table, the corners' flat indices in ``_BOX_BLOCK`` blocks.  A two-limb
    call is one ``modf`` into the table, a ``cumsum`` per axis and per block
    the corner gathers and one addition, with no copy for one block."""
    ndim = len(shape)
    lo, hi = (np.asarray(c, dtype=np.intp).reshape(-1, ndim) for c in (lo, hi))
    bits = math.prod(shape).bit_length()
    cells, padded = (slice(1, None),) * ndim, tuple(n + 1 for n in shape)
    # One complex table, H real and L / 2**k imaginary, each added on its
    # own; a call writes every interior cell and never the -0.0 padding.
    limbs = np.full(padded, complex(-0.0, -0.0))
    split = (limb_cells := limbs[cells]).imag, limb_cells.real
    blocks = []

    def summer(values):
        values = np.asarray(values, dtype=float)
        flat = values.ravel()
        mag = np.abs(flat)
        big = np.maximum.reduce(mag)
        if not big < math.inf:  # a NaN or infinite cell
            return np.array([fsum(values[tuple(map(slice, l, h))])
                             for l, h in zip(lo.tolist(), hi.tolist())], dtype=float)
        if flat[0] == flat[-1] and np.minimum.reduce(flat) == np.maximum.reduce(flat):
            # + 0.0 turns the -0.0 of a constant -0.0 into 0.0, as fsum does.
            with np.errstate(over="ignore"):
                out = flat[0] * (hi - lo).prod(axis=1) + 0.0
            return _finite_sums(out)
        # Not constant, so some cell is nonzero.
        top = math.frexp(big)[1]
        low = math.frexp(np.minimum.reduce(mag, where=mag > 0.0, initial=math.inf))[1]
        # The exact sum of a box is acc * 2**shift, acc an int, with |acc|
        # below 2**(top - low + 53 + bits).
        shift = low - 53
        if top - low + 2 * bits <= 50 and shift >= -1074:
            shift += 52 - bits  # the limbs of I / 2**k
            np.modf(np.ldexp(values, -shift), out=split)
            table, inner, finish = limbs, limb_cells, lambda acc: acc.real + acc.imag
        else:
            table = np.zeros(padded, dtype=object)
            inner = table[cells]
            inner[...] = scaled_ints(values)[0]
            # int / int is correctly rounded, subnormal and overflow included.
            scale, den = (1 << shift, 1) if shift >= 0 else (1, 1 << -shift)
            finish = lambda acc: (acc * scale / den).astype(float)
            shift = 0  # the quotient is already scaled
        for axis in range(ndim):
            inner.cumsum(axis=axis, out=inner)
        if not blocks:
            # Flat table indices, signs + - or + - - +: take() beats fancy indexing.
            for a in range(0, len(lo), _BOX_BLOCK):
                h, l = hi[a:a + _BOX_BLOCK], lo[a:a + _BOX_BLOCK]
                if ndim == 1:
                    corners = h[:, 0], l[:, 0]
                else:
                    hr, lr = h[:, 0] * padded[1], l[:, 0] * padded[1]
                    corners = hr + h[:, 1], lr + h[:, 1], hr + l[:, 1], lr + l[:, 1]
                blocks.append(corners)
        take = table.take
        out = [finish(take(c[0]) - take(c[1]) if ndim == 1 else
                      take(c[0]) - take(c[1]) - take(c[2]) + take(c[3])) for c in blocks]
        out = out[0] if len(out) == 1 else np.concatenate([np.empty(0), *out])
        if top + bits <= 1022:  # every |box sum| is below 2**(top + bits)
            return np.ldexp(out, shift) if shift else out
        with np.errstate(over="ignore"):
            return _finite_sums(np.ldexp(out, shift))

    return summer


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
    """At most ``bound`` entries, or a ``total`` ``size`` of at most ``bound``;
    the least recently used goes first, and a larger entry is never kept.

    Every cache in oscillab is one of these, held by the instance it serves
    (a ``BaseFamily`` or a ``Weight``), so nothing outlives that instance,
    but one: the geometry pool (``build_base``), which its families share.
    ``hits`` and ``misses`` count lookups.
    """

    __slots__ = ("bound", "size", "total", "hits", "misses", "_data")

    def __init__(self, bound: int, size=lambda got: 1):
        self.bound, self.size = bound, size
        self.total = self.hits = self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def fetch(self, key, compute, keep=None):
        """The entry under ``key``; on a miss, ``compute()``, stored under it
        unless ``keep`` says no.  An exception from ``compute`` propagates
        and stores nothing."""
        data = self._data
        if key in data:
            self.hits += 1
            data.move_to_end(key)
            return data[key]
        self.misses += 1
        got = compute()
        if (keep is None or keep(got)) and (size := self.size(got)) <= self.bound:
            data[key] = got
            self.total += size
            while self.total > self.bound:
                self.total -= self.size(data.popitem(last=False)[1])
        return got


# Entry bounds of the per-family caches (see ``BaseFamily``).
SUMS_ENTRIES = 16
NORM_ENTRIES = 32


# Cells per gathered block of the tiled ``operators.maximal``, and terms per
# chunk of ``BaseFamily.layout`` (a wider member alone); bounds the
# temporaries of the per-box kernels.
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


class Geometry:
    """The boxes of a family apart from any measure: ``lo`` and ``hi``,
    read-only integer arrays of shape (sets, dims), box i being lo[i] <= cell
    < hi[i], the count of candidates dropped for zero mass, and, built from
    the corners on first use and read-only, ``runs``, ``key``, ``layout``,
    ``summer`` and ``tile_index``.  ``build_base`` pools the geometry of
    every candidate of a kind; a family that drops some has its own."""

    def __init__(self, kind, domain, min_scale, lo, hi, dropped_zero_mass=0):
        self.kind, self.domain, self.min_scale = kind, domain, min_scale
        self.lo, self.hi = _read_only(lo), _read_only(hi)
        self.dropped_zero_mass = dropped_zero_mass

    def __len__(self) -> int:
        return len(self.lo)

    def box(self, i: int) -> BaseSet:
        """Member i as a ``BaseSet``, without building ``sets``."""
        return BaseSet(self.lo[i].tolist(), self.hi[i].tolist())

    def _hash(self, **more):
        return hashlib.sha256(json.dumps(
            {"kind": self.kind, "domain": self.domain.to_dict(),
             "min_scale": self.min_scale, **more}, sort_keys=True).encode())

    @functools.cached_property
    def base_id(self) -> str:
        """Short label that reports print; members are not hashed, so two
        families can share it.  Caches key on ``key``."""
        return self._hash(n=len(self)).hexdigest()[:12]

    @functools.cached_property
    def key(self) -> str:
        """Content key: sha256 of kind, domain, min_scale and the corners."""
        h = self._hash()
        h.update(self.lo.tobytes())
        h.update(self.hi.tobytes())
        return h.hexdigest()

    @functools.cached_property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) of each run of members of one shape, in order."""
        side = self.hi - self.lo
        cuts = np.flatnonzero(np.any(side[1:] != side[:-1], axis=1)) + 1
        return tuple(itertools.pairwise([0, *cuts.tolist(), len(self)]))

    @functools.cached_property
    def tile_index(self) -> np.ndarray:
        """Dyadic kinds: int32 (shapes, cells); row s, flat cell c holds the
        index of the member of the s-th shape covering c (one dyadic shape
        tiles the grid), or ``len(self)`` where it was dropped for zero mass.
        """
        sides = self.domain.sides
        table = np.full((len(self.runs), self.domain.num_cells), len(self),
                        np.int32)
        first = np.ravel_multi_index(tuple(self.lo.T), sides)[:, None]
        for row, (a, b) in enumerate(self.runs):
            box = np.indices(self.hi[a] - self.lo[a]).reshape(len(sides), -1)
            cells = first[a:b] + np.ravel_multi_index(tuple(box), sides)
            table[row, cells] = np.arange(a, b)[:, None]
        return _read_only(table)

    @functools.cached_property
    def layout(self) -> tuple:
        """``_term_layout`` of the members, built by the first kernel call."""
        return _term_layout(self.lo, self.hi, self.domain.sides)

    @functools.cached_property
    def summer(self):
        """``box_summer`` of the corners over the domain's cells."""
        return box_summer(self.lo, self.hi, self.domain.sides)

    @functools.cached_property
    def nbytes(self) -> int:
        """The most bytes the geometry can hold: the corners, ``layout``'s 4
        a term and 16 a member, ``summer``'s 16 x prod(side + 1) and 32 a
        member, ``tile_index``'s 4 x shapes x cells, and the objects around
        the arrays, 8 KB plus 256 bytes a shape and one per 16 terms."""
        terms, sides = int((self.hi - self.lo).prod(axis=1).sum()), self.domain.sides
        return (8192 + 2 * self.lo.nbytes + 4 * terms + terms // 16 + 48 * len(self)
                + 16 * math.prod(s + 1 for s in sides)
                + (4 * math.prod(sides) + 256) * len(self.runs))


class BaseFamily:
    """Canonically ordered family of boxes attached to one domain: a
    ``Geometry`` with one measure's caches.  All but ``domain`` (the
    caller's), the caches and ``sets`` is the geometry's.

    Code refers to a member by its index i; ``box(i)`` builds one
    ``BaseSet``, for a box a report prints, and ``sets`` all of them, on
    first access, cached on the family; no oscillab path reads it (the
    benchmark tracer in ``perfbench`` does).  Each member has positive
    measure for the measure it was built against.

    Two bounded caches live and die with the family, both keyed by content:
    ``sums`` keeps up to ``SUMS_ENTRIES`` read-only result arrays, at most
    16 x len x 8 bytes (4.2 MB for the 32,896 boxes of 256 all-cubes); and
    ``oscillation.oscillation_norm`` keeps up to ``NORM_ENTRIES`` entries
    in ``_norms``: reports, each about 1 KB plus 32 bytes per member with
    ``per_set`` values, a sequence's read-only level fields, 8 x levels x
    cells bytes, and, on a family whose layout is one chunk, each norm
    group's formed terms and their cell masses, 16 bytes per term, 32 per
    member and 8 per cell.  The geometry's arrays, ``Geometry.nbytes`` at
    most (13.9 MB for 256 all-cubes, 11.8 MB of it the layout of its 2.83 M
    terms), stay in the pool where they fit; those of a geometry past the
    budget, or of one that drops boxes, die with their families.
    """

    def __init__(self, geometry: Geometry, domain: GridDomain):
        self.geometry, self.domain = geometry, domain
        self._sums = BoundedCache(SUMS_ENTRIES)
        self._norms = BoundedCache(NORM_ENTRIES)

    def __getattr__(self, name):
        return getattr(self.geometry, name)

    def __len__(self) -> int:
        return len(self.geometry.lo)

    @functools.cached_property
    def sets(self) -> tuple[BaseSet, ...]:
        """Every member as a ``BaseSet``, in canonical order; built once."""
        return _box_tuple(self.lo, self.hi)

    def sums(self, values) -> np.ndarray:
        """``box_sums(values, self.lo, self.hi)``, read-only, memoised in the
        family's LRU of ``SUMS_ENTRIES`` results keyed by ``content_key``: a
        miss costs one ``summer`` call, a hit one sha256 of the array.  For
        the linear passes that repeat on one family (w-masses, centre
        numerators, power means); an array built afresh on every call, such
        as each maximal-series term, should call ``summer`` directly."""
        return self._sums.fetch(content_key(values),
                                lambda: _read_only(self.summer(values)))

    def set_masses(self, measure: Measure) -> np.ndarray:
        """Per-member measure, in canonical order: ``sums(measure.masses)``."""
        return self.sums(measure.masses)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _term_layout(lo: np.ndarray, hi: np.ndarray, sides) -> tuple:
    """(width, chunks): the widest box's cell count and, per chunk of whole
    boxes of at most ``_GATHER_CELLS`` cells (or one wider box), its first
    box, each term's int32 flat cell and each box's first term and term
    count.  Term t of a box is its low corner plus the row-major digits of
    t against its sides, one vectorised pass per chunk."""
    side, strides = hi - lo, np.cumprod((1, *sides[:0:-1]))[::-1]
    counts, chunks, a = side.prod(axis=1), [], 0
    ends = counts.cumsum()
    while a < len(counts):
        b = max(a + 1, int(np.searchsorted(
            ends, ends[a] - counts[a] + _GATHER_CELLS, "right")))
        n = counts[a:b]
        starts = n.cumsum() - n
        rank = np.arange(n.sum()) - starts.repeat(n)
        cells = (lo[a:b] @ strides).repeat(n)
        for axis in reversed(range(len(sides))):
            rank, digit = np.divmod(rank, side[a:b, axis].repeat(n))
            cells += digit * strides[axis]
        chunks.append((a, *map(_read_only, (cells.astype(np.int32), starts, n))))
        a = b
    return int(counts.max(initial=0)), chunks


def _terms(base: BaseFamily, form, cells, members, fill: float):
    """(ids, starts, counts, terms, masses) per chunk of ``base.layout``: the
    members ``members`` selects, their first terms and counts, the terms,
    ``fill`` on cells without mass, and their cell masses (or None); or
    ``form``'s chunks, if it is a list of them (``_chunk``)."""
    if isinstance(form, list):
        yield from form
        return
    dead = None if cells is None or cells.all() else cells == 0.0
    for a, idx, starts, counts in base.layout[1]:
        ids = np.arange(a, a + len(starts))
        rows = ids.repeat(counts)
        if members is not None and not (pick := members[a:a + len(ids)]).all():
            if not pick.any():
                continue
            take = members.take(rows)
            ids, rows, idx, counts = ids[pick], rows[take], idx[take], counts[pick]
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
        idx = idx.astype(np.intp)
        terms = form(rows, idx[:, None]).ravel()
        if dead is not None:
            terms[dead.take(idx)] = fill
        yield ids, starts, counts, terms, None if cells is None else cells.take(idx)


def _chunk(base: BaseFamily, form, cells):
    """``_terms``'s one chunk of every member, fill 0, as a list, for a caller
    that powers the terms more than once; None on a layout of more chunks."""
    return list(_terms(base, form, cells, None, 0.0)) if len(base.layout[1]) == 1 else None


def block_reduce(base: BaseFamily, form, mass=None, cells=None,
                 members: np.ndarray | None = None, log: bool = False) -> list:
    """Per member i, in order, the reduction of its row that the module
    docstring states, one ``math.fsum`` per member; only the members where
    the boolean mask ``members`` holds, when given.  ``form(rows, idx)``
    gives the terms of a chunk of the family's layout as a fresh array of
    shape (terms, 1) or (terms,): term t of member ``rows[t]`` on flat cell
    ``idx[t, 0]``, or ``_chunk``'s list with fresh terms, in place of
    ``cells``, the cell masses, and ``members``; ``mass`` is an array, or
    None for row maxima."""
    out = []
    for ids, starts, counts, terms, masses in _terms(
            base, form, cells, members, -math.inf if log else 0.0):
        if mass is None:
            out.extend(np.maximum.reduceat(terms, starts).tolist())
            continue
        if log:
            shift = np.maximum.reduceat(terms, starts)
            terms = np.exp(terms - shift.repeat(counts))
        if masses is not None:
            terms *= masses
        # fsum over slices of one list keeps the per-row work in C.
        vals = terms.tolist()
        sums = map(math.fsum, map(vals.__getitem__, map(
            slice, starts.tolist(), (starts + counts).tolist())))
        div = mass[ids].tolist()
        if log:
            sums = map(operator.add, shift.tolist(), map(math.log, sums))
            div = map(math.log, div)
        out.extend(map(operator.sub if log else operator.truediv, sums, div))
    return out


def block_max(base: BaseFamily, form, mass, cells=None, members=None):
    """``first_max(block_reduce(...))`` on the same arguments, bit for bit,
    for terms >= 0, masses > 0.  A row it drops has a sum below 2**1023 and
    an exact mean below a kept row's, so in ``fsum`` it would neither win
    nor raise.  An overflowing sum or mean keeps every row from its chunk
    on, so the screen mutes overflow: ``reduceat`` adds a row's tail to its
    first term in one step, so a row whose running sum stays finite can
    still screen as inf."""
    margin = (base.layout[0] + 2) * 2.0 ** -52
    top, best, arg, seen = -math.inf, -math.inf, None, 0
    for ids, starts, counts, terms, masses in _terms(base, form, cells, members, 0.0):
        if masses is not None:
            np.multiply(terms, masses, out=terms)
        div, ends = mass[ids], starts + counts
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(terms, starts)
            screen = sums / div
        if not np.maximum.reduce(sums) < 2.0 ** 1023:  # or NaN
            margin = math.inf
        got, j = screened_max(screen, margin, lambda keep: (
            math.fsum(terms[starts.item(k):ends.item(k)].tolist()) / div.item(k)
            for k in keep.tolist()), top)
        if got > best:
            best, arg = got, seen + j
        top, seen = np.maximum.reduce(screen, initial=top), seen + len(ids)
    return best, arg


def deviations(f, centre: np.ndarray):
    """The ``block_reduce`` form |f - centre[i]| on the cells of member i."""
    flat = np.asarray(f, dtype=float).ravel()
    return lambda rows, idx: np.abs(flat.take(idx) - centre.take(rows)[:, None])


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


# Bytes of the geometry pool, ``Geometry.nbytes`` summed: room for the nine
# families of the constants-large benchmark together (17.8 MiB, 13.3 of it
# 256-cell all-cubes) and the 16 that verify-mix's trials draw (1.15 MiB);
# 64x64 all-cubes, about 155 MB of layout alone, is built per family.
POOL_BYTES = 32 << 20
_GEOMETRIES = BoundedCache(POOL_BYTES, operator.attrgetter("nbytes"))


def _pooled(domain: GridDomain, kind: str, min_scale: int) -> Geometry:
    """The pooled ``Geometry`` of every candidate box of the kind, on a
    domain of its own: callers hang caches on theirs."""
    return _GEOMETRIES.fetch(
        (domain.sides, domain.split, kind, min_scale), lambda: Geometry(
            kind, GridDomain(domain.sides, domain.split), min_scale,
            *_candidate_corners(domain, kind, min_scale)))


def dyadic_grids(domain: GridDomain, values) -> dict:
    """``{shape: sums}`` over the domain's per-axis dyadic lattice, shapes in
    canonical order, ``sums[j]`` the correctly rounded sum of ``values`` on
    the box at corner j * shape: one call of the pooled summer of the
    dyadic-cubes geometry on a line, of dyadic-rectangles split (1, 1) in 2-d."""
    geo = _pooled(domain, "dyadic-cubes", 0) if domain.dims == 1 else _pooled(
        GridDomain(domain.sides, (1, 1)), "dyadic-rectangles", 0)
    sums, starts = geo.summer(values), [a for a, _ in geo.runs]
    shapes = map(tuple, (geo.hi[starts] - geo.lo[starts]).tolist())
    return {shape: sums[a:b].reshape([n // s for n, s in zip(domain.sides, shape)])
            for (a, b), shape in zip(geo.runs, shapes)}


def build_base(domain: GridDomain, measure: Measure, kind: str,
               min_scale: int = 0) -> BaseFamily:
    """Enumerate every box of the requested kind with positive measure.

    Zero-mass candidates are dropped (counted in ``dropped_zero_mass``);
    a zero-mass *mandated* member (the full domain, for dyadic kinds)
    raises ``ZeroMassBaseSet`` instead.  The result is sorted canonically:
    scale descending, then lexicographic corner.

    The pooled ``Geometry`` of (sides, split, kind, min_scale) sums each
    candidate's mass box by box.  A family of every candidate sits on it;
    one that drops some gets a ``Geometry`` of its kept boxes, with its own
    summer, layout and tile index: the pooled summer would also sum the
    dropped boxes, which can overflow where every kept box's sum is finite.
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

    geo = pooled = _pooled(domain, kind, min_scale)
    keep = (masses := pooled.summer(measure.masses)) > 0.0
    if not keep.any():
        # Some candidate covers each cell, the full domain among a dyadic
        # kind's, so it has no mass exactly when no box has.
        if kind in DYADIC_KINDS:
            raise ZeroMassBaseSet("the full domain is mandated for dyadic "
                                  "kinds but has zero mass")
        raise EmptyBase("no base set has positive mass")
    if not keep.all():
        masses = masses[keep]
        geo = Geometry(kind, pooled.domain, min_scale, pooled.lo[keep],
                       pooled.hi[keep], len(keep) - len(masses))
    family = BaseFamily(geo, domain)
    # The kept boxes' masses are the family's first ``set_masses``.
    family._sums.fetch(content_key(measure.masses), lambda: _read_only(masses))
    return family


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
