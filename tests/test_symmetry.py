"""Exact symmetry: reports that do not see the order of cells or boxes.

Every box value is the exact value rounded once, or a maximum confirmed by
``math.fsum``.  The grid's reflections, and the transpose of a square grid,
map each base kind onto itself, so every norm, constant and probe must be
bit-identical under them.  No reference implementation is needed: a path
that sums in an order-dependent way, or rounds a row twice, fails here.
Only values are compared; extremal sets move with the grid's labels.

The certificates of seven suites see no order either: their check values
are bit-identical under the same symmetries.  Gain-exponent and
two-weight-band are left out: each reports the values of its first worst
row, and rows tied in relative slack but not in value change places.

Scaling the measure or the weight by a power of two scales every exact box
sum by that power, so the norms and the plain-space constants move by that
power (or not at all) bit for bit, as long as no path changes space.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (CenteredDiff, DualHardy, GridDomain, Measure, Weight,
                      a1_constant, build_base, doubling_constant,
                      jn_exp_moment, muckenhoupt_constant, oscillation_norm,
                      reverse_holder_constant, sharp_oscillation, weights)
from oscillab.corpus import sample_inputs
from oscillab.errors import OscillabError
from oscillab.lattice import BaseFamily, BaseSet
from oscillab.oscillation import TLSequence
from oscillab.verify import TheoremId, certify

NORM_PS = (0.5, 1.0, 1.5, 2.0, 3.7)
CONSTANT_PS = (1.3, 2.0, 5.0)


def _outcome(compute):
    """compute()'s value, or its error's type: a message may name a box."""
    try:
        return compute()
    except OscillabError as exc:
        return type(exc).__name__


def _norms(f, w_vals, masses, dom, kind) -> dict:
    """The norm kernel's values: centered (with w and with the unit weight),
    sharp, and the reciprocal rule on the density measure of w."""
    mea = Measure.general(dom, masses)
    base = build_base(dom, mea, kind)
    w, unit = Weight(dom, w_vals), Weight.unit(dom)
    out = {}
    for p in NORM_PS:
        out["centered", p] = _outcome(lambda: oscillation_norm(
            f, CenteredDiff(), w, p, base, mea).value)
        out["centered-unit", p] = _outcome(lambda: oscillation_norm(
            f, CenteredDiff(), unit, p, base, mea).value)
    out["sharp",] = _outcome(lambda: sharp_oscillation(f, base, mea).value)
    dens = Measure.density(dom, w_vals)
    base_d = build_base(dom, dens, kind)
    for p in (1.0, 2.0):
        out["dual", p] = _outcome(lambda: oscillation_norm(
            f, DualHardy(w), unit, p, base_d, dens).value)
    return out


def _constants(w_vals, masses, dom, kind) -> dict:
    mea = Measure.general(dom, masses)
    base = build_base(dom, mea, kind)
    w = Weight(dom, w_vals)
    out = {}
    for p in CONSTANT_PS:
        out["ap", p] = _outcome(lambda: muckenhoupt_constant(w, p, base, mea))
        out["rh", p] = _outcome(lambda: reverse_holder_constant(w, p, base, mea))
    out["a1",] = _outcome(lambda: a1_constant(w, base, mea))
    out["doubling",] = _outcome(lambda: doubling_constant(w, mea))
    return out


def _values(f, w_vals, masses, dom, kind) -> dict:
    mea = Measure.general(dom, masses)
    base = build_base(dom, mea, kind)
    # A fixed tempering scale: the default 2 e**(D**2) overflows once the
    # doubling constant D passes 26.6, as it does on most general measures.
    jn = _outcome(lambda: jn_exp_moment(f, base, Weight(dom, w_vals), mea,
                                        eta=4.0).t_value)
    return {**_norms(f, w_vals, masses, dom, kind),
            **_constants(w_vals, masses, dom, kind), ("jn",): jn}


def _symmetries(dims: int):
    """Each reflection of the grid, and on a square grid the transpose."""
    moves = [lambda a, axis=axis: np.flip(a, axis) for axis in range(dims)]
    return moves + ([np.transpose] if dims == 2 else [])


@st.composite
def _instance(draw):
    """A field, a weight e**N(0, sigma) and a general measure on a 1-d grid
    of 8 to 32 cells or a square grid of 4x4 to 16x16, and a base kind."""
    if draw(st.booleans()):
        sides, split = (draw(st.sampled_from((8, 16, 32))),), None
        kind = draw(st.sampled_from(("dyadic-cubes", "all-cubes")))
    else:
        n = draw(st.sampled_from((4, 8, 16)))
        sides, split = (n, n), (1, 1)
        kind = draw(st.sampled_from(("dyadic-cubes", "all-cubes",
                                     "dyadic-rectangles", "all-rectangles")))
    sigma = draw(st.sampled_from((0.5, 2.0, 6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.normal(0.0, 1.0, sides)
    w_vals = np.exp(rng.normal(0.0, sigma, sides))
    masses = np.exp(rng.normal(0.0, 1.0, sides))
    return GridDomain(sides, split=split), kind, f, w_vals, masses


def _plain_space(w_vals, masses) -> bool:
    exponents = [x for p in CONSTANT_PS for x in (1.0, -1.0 / (p - 1.0), p - 1.0, p)]
    return not weights._needs_log_space(w_vals, exponents, masses)


class TestSymmetry:
    @given(_instance())
    @settings(max_examples=20, deadline=None)
    def test_values_do_not_see_the_grid_order(self, instance):
        dom, kind, f, w_vals, masses = instance
        want = _values(f, w_vals, masses, dom, kind)
        assert any(isinstance(v, float) for v in want.values())
        for move in _symmetries(dom.dims):
            got = _values(*(np.ascontiguousarray(move(a))
                            for a in (f, w_vals, masses)), dom, kind)
            assert got == want


def _moved_box(box: BaseSet, sides, axis) -> BaseSet:
    """``box`` under the reflection of ``axis``, or the transpose (None)."""
    if axis is None:
        return BaseSet(box.lo[::-1], box.hi[::-1])
    lo, hi = list(box.lo), list(box.hi)
    lo[axis], hi[axis] = sides[axis] - box.hi[axis], sides[axis] - box.lo[axis]
    return BaseSet(lo, hi)


def _moved_inputs(inputs: dict, axis) -> dict:
    """A suite's sampled inputs under the reflection of ``axis`` or the
    transpose: every cell array moved, the family rebuilt on the moved
    measure, and each sequence coefficient keyed by its moved cube."""
    move = np.transpose if axis is None else (lambda a: np.flip(a, axis))
    base = inputs["base"]
    dom, mea = base.domain, inputs["measure"]
    moved_mea = Measure(dom, np.ascontiguousarray(move(mea.masses)), mea.kind)
    out = {}
    for key, val in inputs.items():
        if isinstance(val, np.ndarray):
            val = np.ascontiguousarray(move(val))
        elif isinstance(val, Weight):
            val = Weight(dom, np.ascontiguousarray(move(val.values)),
                         provenance=val.provenance)
        elif isinstance(val, Measure):
            val = moved_mea
        elif isinstance(val, BaseFamily):
            val = build_base(dom, moved_mea, val.kind, val.min_scale)
        elif isinstance(val, TLSequence):
            val = TLSequence(dom, {_moved_box(cube, dom.sides, axis): c
                                   for cube, c in val.coeffs.items()})
        out[key] = val
    return out


def _check_values(theorem, inputs):
    """Each check's label, bits of both sides, status and reason, or the
    error's type."""
    try:
        checks = certify(theorem, inputs).checks
    except OscillabError as exc:
        return type(exc).__name__
    return [(c.label, None if c.lhs is None else c.lhs.hex(),
             None if c.rhs is None else c.rhs.hex(), c.status, c.reason)
            for c in checks]


class TestCertificateSymmetry:
    @pytest.mark.parametrize("theorem", [
        TheoremId.HOLDER_BRIDGE, TheoremId.WEIGHT_SWAP,
        TheoremId.MAJORANT_SUFFICIENCY, TheoremId.LOG_CONVEXITY,
        TheoremId.RECIPROCAL_RULE, TheoremId.RECTANGLE_DECAY,
        TheoremId.SEQUENCE_SPACES])
    @given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_check_values_do_not_see_the_grid_order(self, theorem, seed,
                                                    trial):
        # Compared are the checks, not the meta: a reported set's label,
        # the majorant's digest and the JN tail fit on the extremal set
        # move with the grid.
        inputs = sample_inputs(theorem, seed, trial)
        want = _check_values(theorem, inputs)
        axes = [*range(inputs["base"].domain.dims)]
        for axis in axes + ([None] if len(axes) == 2 else []):
            assert _check_values(theorem, _moved_inputs(inputs, axis)) == want


class TestPowerOfTwoScale:
    @given(_instance(), st.integers(-8, 8).filter(bool))
    @settings(max_examples=12, deadline=None)
    def test_scaled_measure(self, instance, k):
        # Every sum in a norm or a plain-space constant has the masses as a
        # factor, and each mean divides two of them.
        dom, kind, f, w_vals, masses = instance
        scaled = masses * 2.0 ** k
        assert _plain_space(w_vals, masses) and _plain_space(w_vals, scaled)
        want = {**_norms(f, w_vals, masses, dom, kind),
                **_constants(w_vals, masses, dom, kind)}
        got = {**_norms(f, w_vals, scaled, dom, kind),
               **_constants(w_vals, scaled, dom, kind)}
        # The reciprocal rule's measure is the weight, not the masses.
        assert got == want

    @given(_instance(), st.integers(-8, 8).filter(bool))
    @settings(max_examples=12, deadline=None)
    def test_scaled_weight(self, instance, k):
        # The weighted norms divide two sums of w m; A_1 and the doubling
        # constant divide two sums of w; the reciprocal rule at exponent 1
        # keeps its terms (|f - c| / w) w and doubles its mass.
        dom, kind, f, w_vals, masses = instance
        scaled = w_vals * 2.0 ** k
        want = {**_norms(f, w_vals, masses, dom, kind),
                **_constants(w_vals, masses, dom, kind)}
        got = {**_norms(f, scaled, masses, dom, kind),
               **_constants(scaled, masses, dom, kind)}
        for key in list(want):
            # pow(2**k w, e) is not 2**(k e) pow(w, e) bit for bit, nor is
            # (2**-k)**p exact.
            if key[0] in ("ap", "rh") or key[0] == "dual" and key[1] != 1.0:
                del want[key], got[key]
            elif key[0] == "dual" and isinstance(want[key], float):
                want[key] = math.ldexp(want[key], -k)
        assert got == want
