"""Reproducible instance sampling for the certificate suites.

Every instance is drawn from ``default_rng([seed, suite ordinal, trial])``
so a (suite, seed, trial) triple always regenerates the same inputs, on any
machine, independent of how many other trials ran first.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams
from .lattice import DYADIC_KINDS, GridDomain, Measure, build_base
from .oscillation import TLSequence
from .verify import TheoremId
from .weights import SelfImprovementParams, Weight, generate_weight

_ORDINAL = {tid: i for i, tid in enumerate(TheoremId)}

_SMALL_1D = (8, 16, 32, 64)
_SMALL_2D = (4, 8, 16)


def _rng(seed: int, theorem: TheoremId, trial: int) -> np.random.Generator:
    return np.random.default_rng([abs(int(seed)), _ORDINAL[theorem], int(trial)])


def _sample_domain(rng, theorem: TheoremId) -> GridDomain:
    if theorem is TheoremId.RECTANGLE_DECAY:
        side = int(rng.choice((8, 16)))
        return GridDomain((side, side), split=(1, 1))
    if theorem is TheoremId.SEQUENCE_SPACES:
        if rng.random() < 0.7:
            return GridDomain((int(rng.choice((16, 32, 64))),))
        return GridDomain((int(rng.choice((4, 8))),) * 2)
    if rng.random() < 0.7:
        return GridDomain((int(rng.choice(_SMALL_1D)),))
    return GridDomain((int(rng.choice(_SMALL_2D)),) * 2)


def _sample_measure(rng, domain: GridDomain, gentle: bool) -> Measure:
    u = rng.random()
    if gentle:
        # Keep parent/child mass ratios small: the exponential-moment
        # machinery exponentiates the squared doubling constant, so wild
        # cell masses would push it past what a float can hold.
        if u < 0.7:
            return Measure.uniform(domain)
        dens = np.exp(rng.uniform(-0.3, 0.3, size=domain.sides))
        return Measure.density(domain, dens)
    if u < 0.6:
        return Measure.uniform(domain)
    if u < 0.8:
        dens = np.exp(rng.normal(0.0, 0.5, size=domain.sides))
        return Measure.density(domain, dens)
    masses = rng.uniform(0.2, 1.5, size=domain.sides)
    if rng.random() < 0.5:
        kill = rng.random(size=domain.sides) < 0.08
        masses = np.where(kill, 0.0, masses)
        if not masses.any():
            masses.flat[0] = 1.0
    return Measure.general(domain, masses)


def _sample_weight(rng, domain: GridDomain, base=None, measure=None,
                   mild: bool = False) -> Weight:
    sub = int(rng.integers(2 ** 31))
    if mild:
        if rng.random() < 0.3:
            return Weight.unit(domain)
        return generate_weight("random-log-bounded",
                               {"bound": float(rng.uniform(0.2, 0.8))},
                               sub, domain)
    u = rng.random()
    if u < 0.45:
        return generate_weight("random-log-bounded",
                               {"bound": float(rng.uniform(0.5, 2.0))},
                               sub, domain)
    if u < 0.65:
        return generate_weight("power",
                               {"exponent": float(rng.uniform(-0.5, 1.5))},
                               sub, domain)
    if u < 0.8:
        return generate_weight("checkerboard",
                               {"contrast": float(rng.uniform(1.2, 3.0))},
                               sub, domain)
    if u < 0.9 and base is not None and measure is not None \
            and base.kind in DYADIC_KINDS:
        return generate_weight("rubio-a1", {"p": 2.0}, sub, domain,
                               base=base, measure=measure)
    return Weight.unit(domain)


def _sample_field(rng, domain: GridDomain) -> np.ndarray:
    u = rng.random()
    if u < 0.5:
        return np.clip(rng.normal(0.0, 1.0, size=domain.sides), -4.0, 4.0)
    if u < 0.7:
        # Logarithmic profile: the classic unbounded-mean-oscillation shape.
        if domain.dims == 1:
            n = domain.sides[0]
            return np.log((np.arange(n) + 0.5) / n)
        n0, n1 = domain.sides
        x = (np.arange(n0) + 0.5)[:, None] / n0
        y = (np.arange(n1) + 0.5)[None, :] / n1
        return 0.5 * np.log(x ** 2 + y ** 2)
    f = np.zeros(domain.sides)
    k = max(1, domain.num_cells // 8)
    idx = rng.choice(domain.num_cells, size=k, replace=False)
    f.flat[idx] = np.clip(rng.normal(0.0, 3.0, size=k), -9.0, 9.0)
    return f


def _sample_base_kind(rng, theorem: TheoremId, domain: GridDomain) -> str:
    if theorem is TheoremId.RECTANGLE_DECAY:
        return "dyadic-rectangles"
    if theorem in (TheoremId.MAJORANT_SUFFICIENCY, TheoremId.SEQUENCE_SPACES,
                   TheoremId.GAIN_EXPONENT):
        return "dyadic-cubes"
    return "dyadic-cubes" if rng.random() < 0.6 else "all-cubes"


def sample_inputs(theorem: TheoremId, seed: int, trial: int) -> dict:
    """One reproducible instance for ``certify(theorem, ...)``."""
    rng = _rng(seed, theorem, trial)
    domain = _sample_domain(rng, theorem)
    measure = _sample_measure(rng, domain,
                              gentle=theorem is TheoremId.RECTANGLE_DECAY)
    kind = _sample_base_kind(rng, theorem, domain)
    base = build_base(domain, measure, kind)
    f = _sample_field(rng, domain)
    inputs: dict = {"f": f, "base": base, "measure": measure}

    if theorem is TheoremId.HOLDER_BRIDGE:
        p0 = float(rng.uniform(1.5, 3.0))
        inputs.update(w=_sample_weight(rng, domain, base, measure),
                      p0=p0, q=float(rng.uniform(1.5, 3.0)),
                      p=1.0 + 0.9 * float(rng.random()) * (p0 - 1.0))
    elif theorem is TheoremId.WEIGHT_SWAP:
        inputs.update(w=_sample_weight(rng, domain, base, measure),
                      w0=_sample_weight(rng, domain, base, measure),
                      p=float(rng.uniform(1.5, 3.0)),
                      q=float(rng.uniform(1.5, 3.0)),
                      delta=float(rng.uniform(1.3, 2.5)),
                      sigma=float(rng.uniform(1.3, 2.5)))
    elif theorem is TheoremId.GAIN_EXPONENT:
        w = _sample_weight(rng, domain, base, measure)
        pick = rng.random()
        if pick < 0.7:
            params = SelfImprovementParams(setting="euclidean-cubes",
                                           dims=domain.dims)
        elif pick < 0.85:
            params = SelfImprovementParams(setting="non-doubling",
                                           dims=domain.dims, besicovitch=2.0)
        else:
            params = SelfImprovementParams(setting="homogeneous",
                                           tau=2.0 ** (domain.dims + 1),
                                           kconst=2.0)
        inputs.update(w=w, p=float(rng.uniform(1.5, 3.0)), params=params)
        if rng.random() < 0.4:
            inputs["t"] = float(rng.uniform(1.0, 2.0))  # scaled up if below strength
    elif theorem is TheoremId.MAJORANT_SUFFICIENCY:
        inputs.update(p=float(rng.uniform(1.3, 3.0)))
    elif theorem is TheoremId.LOG_CONVEXITY:
        r = float(rng.uniform(0.8, 3.0))
        inputs.update(w=_sample_weight(rng, domain, base, measure), r=r,
                      eps=0.4 * r * float(rng.uniform(0.1, 1.0)))
    elif theorem is TheoremId.TWO_WEIGHT_BAND:
        inputs.update(v=_sample_weight(rng, domain, base, measure),
                      w=_sample_weight(rng, domain, base, measure),
                      p=float(rng.uniform(0.8, 2.5)),
                      q=float(rng.uniform(1.5, 3.0)),
                      delta=float(rng.uniform(1.3, 2.5)))
    elif theorem is TheoremId.RECIPROCAL_RULE:
        p0 = float(rng.uniform(1.5, 3.0))
        inputs.update(w=_sample_weight(rng, domain, base, measure),
                      v=_sample_weight(rng, domain, base, measure),
                      p0=p0, q=float(rng.uniform(1.5, 3.0)),
                      p=1.0 + 0.9 * float(rng.random()) * (p0 - 1.0))
    elif theorem is TheoremId.RECTANGLE_DECAY:
        inputs.update(w=_sample_weight(rng, domain, base, measure, mild=True),
                      lam=float(rng.uniform(0.3, 2.0)))
        if rng.random() < 0.5:
            inputs.update(v=_sample_weight(rng, domain, base, measure, mild=True),
                          q=float(rng.uniform(1.5, 3.0)),
                          delta=float(rng.uniform(1.3, 2.5)),
                          p=float(rng.uniform(0.8, 2.0)))
    elif theorem is TheoremId.SEQUENCE_SPACES:
        q = float(rng.uniform(0.5, 3.0))
        p = q * float(rng.uniform(1.0, 2.0)) if rng.random() < 0.7 \
            else q * float(rng.uniform(0.3, 1.0))
        unit_bias = rng.random() < 0.4
        w = Weight.unit(domain) if unit_bias \
            else _sample_weight(rng, domain, base, measure)
        k = int(rng.integers(1, min(10, len(base)) + 1))
        picks = rng.choice(len(base), size=k, replace=False)
        coeffs = {base.box(int(i)): float(np.round(rng.normal(0.0, 2.0), 6))
                  for i in picks}
        coeffs = {b: s if s != 0.0 else 1.0 for b, s in coeffs.items()}
        del inputs["f"]
        inputs.update(seq=TLSequence(domain, coeffs), w=w, alpha=float(
            rng.uniform(0.2, 0.75 * domain.dims)), q=q, p=p)
    else:  # pragma: no cover - the enum is closed
        raise BadParams(f"no sampler for {theorem}")
    return inputs


def make_standard_corpus(seed: int = 0, size: int = 40) -> list[dict]:
    """Fixed-shape corpus for constant estimation: 1-d dyadic-cube bases,
    mixed weights, optional second weight ``v`` per item."""
    rng = np.random.default_rng([abs(int(seed)), len(TheoremId), 0])
    items = []
    for _ in range(size):
        domain = GridDomain((int(rng.choice((32, 64))),))
        measure = Measure.uniform(domain)
        base = build_base(domain, measure, "dyadic-cubes")
        item = {"f": _sample_field(rng, domain),
                "w": _sample_weight(rng, domain, base, measure),
                "base": base, "measure": measure}
        if rng.random() < 0.5:
            item["v"] = _sample_weight(rng, domain, base, measure)
        items.append(item)
    return items
