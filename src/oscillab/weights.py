"""Weights on the grid: Muckenhoupt-type constants, reverse Holder constants,
doubling, the closed-form self-improvement schedule, and weight generators.

Constants are exact finite maxima over the attached base family.  Every
computed A_p, reverse Holder and A_1 constant is recorded on the weight,
keyed by (kind, exponent or mode, base id, measure digest, family key), so
one run never recomputes (or re-rounds) the same number.  The family key
hashes the members, which the base id does not, so ``constants_cache``
labels end in its first 8 hex digits.  The doubling constant is kept
apart, in a bounded cache on the weight keyed by measure digest, so it
never shows in ``constants_cache`` output.

An A_p or reverse Holder constant takes log space where a w**e m may leave
e**±690, so any rescaling of the measure keeps it finite and within a
relative 1e-11 (not bit for bit); plain space costs one cached
``box_sums`` pass per exponent, a numpy screen, libm near the top.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lattice
from .errors import BadParams, ExponentOutOfRange, OverflowGuard
from .lattice import (BaseFamily, BaseSet, BoundedCache, GridDomain, Measure,
                      block_reduce)
from .reports import DEFAULT_TOL, CertificateReport, make_check

# Where an exponentiated cell value times its mass may pass 1e300 or fall
# below 1e-300, the constant is computed in log space instead.
_LOG_LIMIT = math.log(1e300)
# Above this magnitude even exponent * log(cell) is unsafe in log space.
_SPAN_LIMIT = 1e307
# numpy's vectorised pow is within 1 ulp of libm's (a Tier-1 test guards
# this), so a box whose screened value is below top * (1 - _SCREEN_MARGIN)
# is below libm's maximum too.
_SCREEN_MARGIN = 2.0 ** -40
# Entry bound of each weight's doubling-constant cache (one float each).
DOUBLING_ENTRIES = 8

SELF_IMPROVEMENT_SETTINGS = ("euclidean-cubes", "rectangles", "homogeneous",
                             "non-doubling")


def conjugate(p: float) -> float:
    """Dual exponent p' = p / (p - 1)."""
    if p <= 1.0:
        raise ExponentOutOfRange(f"conjugate needs p > 1, got {p}")
    return p / (p - 1.0)


@dataclass(eq=False)
class Weight:
    """Strictly positive cell values plus a provenance tag and constant cache.

    ``_records`` holds the recorded constants, unbounded: one record, about
    0.5 KB, per (constant, base, measure) computed; ``_doubling`` holds up
    to ``DOUBLING_ENTRIES`` doubling constants by measure digest, about 100
    bytes each, for the life of the weight.
    """

    domain: GridDomain
    values: np.ndarray
    provenance: dict = field(default_factory=dict)
    _records: dict = field(default_factory=dict, repr=False)
    _doubling: BoundedCache = field(default_factory=lambda: BoundedCache(
        DOUBLING_ENTRIES), repr=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.domain.sides:
            raise BadParams(f"weight shape {values.shape} != domain {self.domain.sides}")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise BadParams("weight values must be finite and strictly positive")
        values.setflags(write=False)
        self.values = values

    @classmethod
    def unit(cls, domain: GridDomain) -> "Weight":
        """The unit weight, one per domain instance and held on it: it lives
        and dies with the domain; its records grow by one per (constant,
        base, measure) its callers compute.  Every caller on the domain gets
        this one instance, so none may reassign its ``values``."""
        if (unit := domain.__dict__.get("unit_weight")) is None:
            unit = domain.__dict__["unit_weight"] = cls(
                domain, np.ones(domain.sides), provenance={"kind": "unit"})
        return unit

    @functools.cached_property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.domain.sides).encode())
        h.update(self.values.tobytes())
        return h.hexdigest()[:12]

    def record(self, key):
        return self._records.get(key)

    def cached_constants(self) -> dict:
        """The records by label: kind|exponent|base_id|measure digest|key[:8]."""
        out = {}
        for key, rec in sorted(self._records.items(), key=lambda kv: repr(kv[0])):
            out["|".join([*map(str, key[:4]), key[4][:8]])] = {
                "value": float(rec.value),
                "argmax": rec.argmax.label() if rec.argmax is not None else None,
            }
        return out


@dataclass(frozen=True)
class ConstantRecord:
    value: float
    argmax: BaseSet | None


def _needs_log_space(values: np.ndarray, exponents, masses=None) -> bool:
    """Whether a values**e (times a positive mass) may leave e**±_LOG_LIMIT."""
    top = max(abs(e) for e in exponents) * float(np.max(np.abs(np.log(values))))
    if top > _SPAN_LIMIT:
        raise OverflowGuard("an exponent times a log-weight left the float range")
    if masses is not None:
        top += float(np.max(np.abs(np.log(masses[masses > 0.0]))))
    return top > _LOG_LIMIT


def _log_means(w: Weight, exponents, base: BaseFamily, measure: Measure,
               set_masses: np.ndarray) -> list[np.ndarray]:
    """Per exponent e, the log of the mean of w**e over each base set: one
    log-variant ``block_reduce`` of the exponents e log w + log m, a cell
    without mass adding exp(-inf) = 0."""
    log_w = np.log(w.values).ravel()
    with np.errstate(divide="ignore"):
        log_m = np.log(measure.masses).ravel()
    return [np.array(block_reduce(
        base, lambda rows, idx, e=e: e * log_w[idx] + log_m[idx],
        set_masses, log=True)) for e in exponents]


def _finite_or_raise(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise OverflowGuard(f"{what} left the representable range; rescale the weight")
    return value


def _extremal_constant(w: Weight, key: tuple, exponents, span, plain, log,
                       what: str, base: BaseFamily, measure: Measure) -> float:
    """Largest over the base of a functional of the means of w**e, e in
    ``exponents``: ``plain(*means)`` gives it elementwise, on arrays or on
    floats, or ``log(*logs)`` its logs where ``span`` and the measure need
    log space.  Records the value and its attaining set on the weight.

    One path for both spaces: the functional runs once on the whole mean
    arrays, in numpy, and screens the boxes under ``lattice.screened_max``'s
    keep rule with margin ``_SCREEN_MARGIN``.  Only the kept boxes are
    confirmed, in one pass on Python floats: the plain value and argmax are
    libm pow's box by box, which numpy's vectorised pow can miss by an ulp,
    and the log functionals take only ``+``, ``*`` and ``/``, where numpy
    and floats agree.  Plain means lie within e**±_LOG_LIMIT, so a
    functional that raises on floats is out of range: ``OverflowGuard``.
    """
    key = (*key, base.base_id, measure.digest, base.key)
    got = w.record(key)
    if got is not None:
        return got.value
    masses = base.set_masses(measure)
    in_logs = _needs_log_space(w.values, span, measure.masses)
    if in_logs:
        means, functional = _log_means(w, exponents, base, measure, masses), log
    else:
        # numpy's ``**`` gives the same bits on the whole grid as on each
        # box's slice; every w**e m is finite; w * m recurs in the cache.
        means = [base.sums(w.values ** e * measure.masses) / masses
                 for e in exponents]
        functional = plain
    with np.errstate(all="ignore"):
        screen = functional(*means)
    try:
        best, arg = lattice.screened_max(screen, _SCREEN_MARGIN, lambda keep: map(
            functional, *(m[keep].tolist() for m in means)))
        if in_logs:
            best = math.exp(best)
    except (OverflowError, ZeroDivisionError):  # raised as OverflowGuard below
        best = math.inf
    result = _finite_or_raise(best, what)
    w._records[key] = ConstantRecord(result, base.box(arg))
    return result


def muckenhoupt_constant(w: Weight, p: float, base: BaseFamily,
                         measure: Measure) -> float:
    """Largest over the base of (mean of w) * (mean of w^(-1/(p-1)))^(p-1).

    Always >= 1 by Jensen; equals 1 exactly on single cells.  Requires p > 1.
    Records the attaining set on the weight's cache.
    """
    if not 1.0 < p < math.inf:
        raise ExponentOutOfRange(f"the A_p functional needs a finite p > 1, got {p}")
    e = -1.0 / (p - 1.0)
    return _extremal_constant(
        w, ("ap", float(p)), (1.0, e), (1.0, e, p - 1.0),
        lambda m1, me: m1 * me ** (p - 1.0),
        lambda l1, le: l1 + (p - 1.0) * le, "A_p constant", base, measure)


def reverse_holder_constant(w: Weight, delta: float, base: BaseFamily,
                            measure: Measure) -> float:
    """Largest over the base of (mean of w^delta)^(1/delta) / (mean of w)."""
    if not 1.0 < delta < math.inf:
        raise ExponentOutOfRange(f"the reverse Holder functional needs a finite delta > 1, got {delta}")
    return _extremal_constant(
        w, ("rh", float(delta)), (delta, 1.0), (1.0, delta),
        lambda md, m1: md ** (1.0 / delta) / m1,
        lambda ld, l1: ld / delta - l1, "reverse Holder constant", base,
        measure)


def _auto_mode(base: BaseFamily) -> str:
    """The maximal mode "auto" stands for on ``base``."""
    return "dyadic" if base.kind in lattice.DYADIC_KINDS else "uncentered"


def a1_constant(w: Weight, base: BaseFamily, measure: Measure,
                mode: str = "auto") -> float:
    """Smallest C with (maximal of w) <= C * w on positive-mass cells.

    ``mode`` picks the maximal operator: "auto" resolves to dyadic on dyadic
    base kinds and uncentered otherwise.
    """
    from . import operators

    if mode == "auto":
        mode = _auto_mode(base)
    key = ("a1", mode, base.base_id, measure.digest, base.key)
    got = w.record(key)
    if got is not None:
        return got.value
    mw = operators.maximal(w.values, base, measure, mode)
    live = measure.masses > 0
    ratios = np.zeros(w.values.shape)
    with np.errstate(over="ignore"):  # an infinite ratio raises below
        ratios[live] = mw[live] / w.values[live]
    flat_idx = int(np.argmax(ratios.ravel()))
    result = _finite_or_raise(float(ratios.ravel()[flat_idx]), "A_1 constant")
    cell = np.unravel_index(flat_idx, w.values.shape)
    arg = BaseSet(tuple(int(c) for c in cell), tuple(int(c) + 1 for c in cell))
    w._records[key] = ConstantRecord(result, arg)
    return result


def doubling_constant(w: Weight, measure: Measure) -> float:
    """Max ratio of parent to child weighted mass over single-axis halvings.

    Runs over the full per-axis dyadic lattice of the domain down to single
    cells.  A step of a stopping-time walk that bisects d axes then has
    weighted-mass ratio at most D^d.  Children of zero measure, the only
    ones without w m, are skipped (they never enter a walk); returns at
    least 1.  ``OverflowGuard`` where a ratio or a cell's w m leaves the
    float range, a cell with mass whose w m rounds to 0 included.

    One ``box_sums`` pass (``lattice.dyadic_grids``) gives every child and
    parent mass.  Only the constant is cached, on the weight by measure
    digest (see ``Weight``): the dyadic lattice is not a base family.
    """
    return w._doubling.fetch(measure.digest,
                             lambda: _doubling_constant(w, measure))


def _doubling_constant(w: Weight, measure: Measure) -> float:
    grids = lattice.dyadic_grids(w.domain, lattice.cell_product(
        w.values, measure.masses, positive=True))
    best = 1.0
    for shape, child in grids.items():
        for axis, side in enumerate(shape):
            # The parent along this axis doubles the side: its grid, with
            # each corner repeated for the two children it holds.
            parent = grids.get(shape[:axis] + (2 * side,) + shape[axis + 1:])
            if parent is not None and (live := child > 0.0).any():
                with np.errstate(over="ignore"):  # an infinite ratio raises below
                    ratios = np.repeat(parent, 2, axis=axis)[live] / child[live]
                best = max(best, float(np.max(ratios)))
    return _finite_or_raise(best, "doubling constant")


@dataclass(frozen=True)
class SelfImprovementParams:
    """Geometry knobs for the closed-form integrability-bump schedule.

    ``dims`` feeds the cube-geometry formula; ``besicovitch`` is the covering
    constant used only by the non-doubling setting; ``tau``/``kconst`` are
    the homogeneous-setting decay and constant.
    """

    setting: str = "euclidean-cubes"
    dims: int = 1
    besicovitch: float = 2.0
    tau: float = 4.0
    kconst: float = 2.0

    def __post_init__(self):
        if self.setting not in SELF_IMPROVEMENT_SETTINGS:
            raise BadParams(f"unknown self-improvement setting {self.setting!r}")
        if self.besicovitch <= 0 or self.tau <= 0 or self.kconst < 1:
            raise BadParams("besicovitch and tau must be positive, kconst >= 1")


def self_improvement(params: SelfImprovementParams, p: float,
                     t: float) -> tuple[float, float]:
    """Closed-form (Delta, K): every weight whose strength constant at
    exponent p is at most t satisfies a reverse Holder inequality with
    exponent Delta(p, t) and constant at most K(p, t).

    Delta > 1, nonincreasing in each argument; K >= 1, nondecreasing.
    """
    if not p > 1.0:
        raise ExponentOutOfRange(f"self-improvement needs p > 1, got {p}")
    if t < 1.0:
        raise BadParams(f"the strength constant is never below 1, got t={t}")
    s = params.setting
    if s == "euclidean-cubes":
        delta = 1.0 + 1.0 / (2.0 ** (params.dims + 1) * t - 1.0)
        return delta, 2.0
    if s == "rectangles":
        delta = 1.0 + 1.0 / (2.0 ** (p + 2.0) * t)
        return delta, 2.0
    if s == "non-doubling":
        delta = 1.0 + 1.0 / (2.0 ** (p + 1.0) * params.besicovitch * t)
        return delta, 2.0
    # homogeneous
    delta = 1.0 + 1.0 / (params.tau * t)
    return delta, params.kconst


def power_bump_check(u: Weight, p: float, delta: float, base: BaseFamily,
                     measure: Measure, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Certified bump: with q = 1 + delta*(p-1), the A_q constant of u^delta
    is at most (RH_delta(u) * A_p(u))^delta.  One check, computed constants.
    """
    if not p > 1.0 or not delta > 1.0:
        raise ExponentOutOfRange(f"power bump needs p > 1 and delta > 1, got {p}, {delta}")
    q = 1.0 + delta * (p - 1.0)
    rh = reverse_holder_constant(u, delta, base, measure)
    ap = muckenhoupt_constant(u, p, base, measure)
    if _needs_log_space(u.values, (delta,)):
        raise OverflowGuard("u**delta is not representable; rescale the weight")
    bumped = Weight(u.domain, u.values ** delta,
                    provenance={"kind": "derived-power", "exponent": float(delta),
                                "parent": u.digest})
    lhs = muckenhoupt_constant(bumped, q, base, measure)
    rhs = (rh * ap) ** delta
    return CertificateReport(
        theorem="POWER_BUMP",
        inputs_digest=hashlib.sha256(
            (u.digest + repr((float(p), float(delta))) + base.base_id).encode()
        ).hexdigest()[:16],
        checks=[make_check("bumped_aq_vs_product", lhs, rhs, tol)],
        meta={"p": float(p), "delta": float(delta), "q": float(q),
              "rh": float(rh), "ap": float(ap), "base": base.base_id},
    )


# ---------------------------------------------------------------------------
# Generators.

def _number(params: dict, key: str, default: float, low=-math.inf) -> float:
    """``params[key]`` (``default`` when absent) as a float in (low, inf),
    else a ``BadParams`` naming the key."""
    value = params.get(key, default)
    try:
        if low < float(value) < math.inf:
            return float(value)
    except (TypeError, ValueError):
        pass
    raise BadParams(f"weight parameter {key} must be a number in "
                    f"({low}, inf), got {value!r}")


def generate_weight(kind: str, params: dict, seed: int, domain: GridDomain,
                    base: BaseFamily | None = None,
                    measure: Measure | None = None) -> Weight:
    """Deterministic weight construction.

    Kinds: ``power`` (distance-to-origin power law, exponent > -dims),
    ``random-log-bounded`` (iid log-uniform in [-M, M]), ``checkerboard``
    (alternating c and 1/c), and ``rubio-a1`` (iterated-maximal construction,
    needs ``base`` and ``measure``).
    """
    params = dict(params or {})
    if kind == "power":
        a = _number(params, "exponent", 1.0, low=-domain.dims)
        # A power past the float range is inf, which ``Weight`` rejects.
        with np.errstate(over="ignore"):
            if domain.dims == 1:
                n = domain.sides[0]
                x = (np.arange(n) + 0.5) / n
                vals = x ** a
            else:
                n0, n1 = domain.sides
                x = (np.arange(n0) + 0.5)[:, None] / n0
                y = (np.arange(n1) + 0.5)[None, :] / n1
                vals = (x ** 2 + y ** 2) ** (a / 2.0)
        return Weight(domain, vals, provenance={"kind": kind, "seed": int(seed),
                                                "params": {"exponent": a}})
    if kind == "random-log-bounded":
        bound = _number(params, "bound", 1.0, low=0.0)
        rng = np.random.default_rng(seed)
        vals = np.exp(rng.uniform(-bound, bound, size=domain.sides))
        return Weight(domain, vals, provenance={"kind": kind, "seed": int(seed),
                                                "params": {"bound": bound}})
    if kind == "checkerboard":
        contrast = _number(params, "contrast", 2.0, low=0.0)
        idx = np.indices(domain.sides).sum(axis=0)
        vals = np.where(idx % 2 == 0, contrast, 1.0 / contrast).astype(float)
        return Weight(domain, vals, provenance={"kind": kind, "seed": int(seed),
                                                "params": {"contrast": contrast}})
    if kind == "rubio-a1":
        from . import operators

        if base is None or measure is None:
            raise BadParams("rubio-a1 needs a base family and a measure")
        p = _number(params, "p", 2.0)
        mode = str(params.get("mode", _auto_mode(base)))
        tol = _number(params, "tol", 1e-10)
        g = params.get("g")
        if g is None:
            rng = np.random.default_rng(seed)
            g = np.zeros(domain.sides)
            live = np.flatnonzero(measure.masses.ravel() > 0)
            spike = live[int(rng.integers(len(live)))]
            g.ravel()[spike] = 1.0
        try:
            g = np.asarray(g, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"weight parameter g must be an array of numbers, "
                            f"got {g!r}") from exc
        u = operators.rubio_de_francia(g, p, base, measure, mode, tol=tol)
        u.provenance.setdefault("seed", int(seed))
        return u
    raise BadParams(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# Serialization: weight CSV plus JSON sidecar with provenance and cache.

def write_weight(path, weight: Weight) -> None:
    path = Path(path)
    lattice.write_field_csv(path, weight.domain, weight.values)
    sidecar = {
        "provenance": weight.provenance,
        "digest": weight.digest,
        "constants": weight.cached_constants(),
    }
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def read_weight(path) -> Weight:
    path = Path(path)
    domain, values = lattice.read_field_csv(path)
    provenance = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        try:
            provenance = dict(json.loads(sidecar.read_text()).get("provenance", {}))
        except (AttributeError, TypeError, ValueError) as exc:
            raise BadParams(f"{sidecar}: malformed sidecar ({exc})") from exc
    return Weight(domain, values, provenance=provenance)
