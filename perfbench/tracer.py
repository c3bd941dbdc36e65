"""Span tracer for the traced benchmark run, applied to oscillab from outside.

``Tracer.installed()`` wraps oscillab's public functions and rebinds every
module-level name that refers to one, because the package imports ``fsum``,
``oscillation_norm`` and the weight constants by name.  Each wrapped call
records a span (name, start, end, parent) in memory; the spans are written out
when the run ends.  ``lattice.fsum`` runs tens of thousands of times per op,
so its calls and time are tallied against the enclosing span instead.

Per layer the tracer keeps, by span name:

- ``calls``;
- ``self_s``: span time minus child spans, fsum tallies and the tracer's own
  input hashing;
- ``boxes``: the sum of ``len(base)`` over calls;
- ``iterations``: maximal-series terms, from the returned weight;
- ``repeat_share``: the share of calls whose inputs equal an earlier call's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
import weakref

import numpy as np

from oscillab import cli, corpus, lattice, operators, oscillation, reports, \
    verify, weights

_clock = time.perf_counter


def _base_boxes(args, result):
    return len(args["base"])


def _returned_boxes(args, result):
    return len(result)


def _series_iterations(args, result):
    return int(result.provenance.get("iterations", 0))


# (module, attribute, span name, boxes, iterations, track repeats)
_FUNCTIONS = (
    (lattice, "build_base", "lattice.build_base", _returned_boxes, None, False),
    (weights, "muckenhoupt_constant", "weights.muckenhoupt_constant",
     _base_boxes, None, True),
    (weights, "reverse_holder_constant", "weights.reverse_holder_constant",
     _base_boxes, None, True),
    (weights, "a1_constant", "weights.a1_constant", None, None, False),
    (weights, "doubling_constant", "weights.doubling_constant", None, None,
     True),
    (weights, "generate_weight", "weights.generate_weight", None, None, False),
    (operators, "maximal", "operators.maximal", _base_boxes, None, False),
    (operators, "rubio_de_francia", "operators.rubio_de_francia", None,
     _series_iterations, False),
    (oscillation, "oscillation_norm", "oscillation.oscillation_norm",
     _base_boxes, None, True),
    (oscillation, "sharp_oscillation", "oscillation.sharp_oscillation", None,
     None, False),
    (oscillation, "cz_selection", "oscillation.cz_selection", None, None,
     False),
    (oscillation, "jn_exp_moment", "oscillation.jn_exp_moment", None, None,
     False),
    (oscillation, "tl_equivalence_probe", "oscillation.tl_equivalence_probe",
     None, None, False),
    (oscillation, "weighted_median", "oscillation.weighted_median", None, None,
     False),
    (corpus, "sample_inputs", "corpus.sample_inputs", None, None, False),
    (corpus, "make_standard_corpus", "corpus.make_standard_corpus", None, None,
     False),
    (verify, "certify", "verify.certify", None, None, False),
    (verify, "build_majorant", "verify.build_majorant", None, None, False),
    (verify, "estimate_constant", "verify.estimate_constant", None, None,
     False),
    (cli, "main", "cli.main", None, None, False),
)

# (class, method, span name, track repeats)
_METHODS = (
    (lattice.BaseFamily, "set_masses", "lattice.set_masses", True),
    (reports.CertificateReport, "to_dict", "reports.to_dict", False),
)


class Tracer:
    def __init__(self):
        # One row per span: name, start, end, parent index (-1 at the top),
        # then the fsum calls and seconds tallied directly against it.
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Per span: seconds covered by child spans and tracer work, and the
        # fsum calls and seconds inside child spans.
        self._covered: list[list] = []
        # Running fsum totals, so that the tally is two additions per call;
        # a span takes its share from the difference between enter and exit.
        self._fsum = [0, 0.0]
        self.stats: dict[str, dict] = {}
        self._seen: dict[str, set] = {}
        self._base_keys = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------

    def _stat(self, name: str) -> dict:
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = {"calls": 0, "self_s": 0.0, "boxes": 0,
                                      "iterations": 0, "repeats": 0}
        return got

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), None,
                           self._stack[-1] if self._stack else -1,
                           self._fsum[0], self._fsum[1]])
        self._covered.append([0.0, 0, 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        end = _clock()
        row = self.spans[idx]
        covered = self._covered[idx]
        self._stack.pop()
        duration = end - row[1]
        fsum_calls = self._fsum[0] - row[4]    # inclusive of child spans
        fsum_s = self._fsum[1] - row[5]
        row[2] = end
        row[4] = fsum_calls - covered[1]       # direct
        row[5] = fsum_s - covered[2]
        stat = self._stat(row[0])
        stat["calls"] += 1
        stat["self_s"] += duration - covered[0] - row[5]
        if row[3] >= 0:
            parent = self._covered[row[3]]
            parent[0] += duration
            parent[1] += fsum_calls
            parent[2] += fsum_s

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _exclude(self, seconds: float) -> None:
        """Take tracer work out of the enclosing span's self time."""
        if self._stack:
            self._covered[self._stack[-1]][0] += seconds

    # -- input keys for repeat_share ----------------------------------------

    def _key(self, x):
        if isinstance(x, np.ndarray):
            a = np.ascontiguousarray(x)
            return ("array", a.dtype.str, a.shape,
                    hashlib.sha1(a.tobytes()).hexdigest())
        if isinstance(x, lattice.BaseFamily):
            got = self._base_keys.get(x)
            if got is None:
                h = hashlib.sha1(repr((x.kind, x.domain, x.min_scale)).encode())
                h.update(np.array([b.lo + b.hi for b in x.sets]).tobytes())
                got = self._base_keys[x] = ("base", h.hexdigest())
            return got
        if isinstance(x, weights.Weight):
            return ("weight", self._key(x.values))
        if isinstance(x, lattice.Measure):
            return ("measure", x.kind, self._key(x.masses))
        if isinstance(x, oscillation.TLSequence):
            return ("sequence", x.domain,
                    tuple((b.lo, b.hi, s) for b, s in x.items_canonical()))
        if x is None or isinstance(x, (bool, int, float, str)):
            return x
        if dataclasses.is_dataclass(x):
            return (type(x).__name__,) + tuple(
                self._key(getattr(x, f.name)) for f in dataclasses.fields(x))
        if isinstance(x, (tuple, list)):
            return tuple(self._key(v) for v in x)
        if isinstance(x, dict):
            return tuple(sorted((k, self._key(v)) for k, v in x.items()))
        return ("object", type(x).__name__, id(x))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, boxes, iterations, repeats):
        sig = inspect.signature(fn) if (boxes or repeats) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args_by_name = None
            if sig is not None:
                t0 = _clock()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                args_by_name = bound.arguments
                if repeats:
                    key = self._key(tuple(args_by_name.values()))
                    seen = self._seen.setdefault(name, set())
                    if key in seen:
                        self._stat(name)["repeats"] += 1
                    else:
                        seen.add(key)
                self._exclude(_clock() - t0)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            stat = self._stat(name)
            if boxes is not None:
                stat["boxes"] += boxes(args_by_name, result)
            if iterations is not None:
                stat["iterations"] += iterations(args_by_name, result)
            return result
        return traced

    def _tally_fsum(self, fn):
        totals = self._fsum

        @functools.wraps(fn)
        def tallied(values):
            t0 = _clock()
            result = fn(values)
            totals[1] += _clock() - t0
            totals[0] += 1
            return result
        return tallied

    @contextlib.contextmanager
    def installed(self):
        """Trace oscillab inside the block; restore every name after it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "oscillab" or n.startswith("oscillab.")) and m]
        undo = []

        def rebind(orig, wrapper):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))

        rebind(lattice.fsum, self._tally_fsum(lattice.fsum))
        for mod, attr, name, boxes, iterations, repeats in _FUNCTIONS:
            orig = getattr(mod, attr)
            rebind(orig, self._wrap(orig, name, boxes, iterations, repeats))
        for cls, attr, name, repeats in _METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, name, None, None, repeats))
            undo.append((cls, attr, orig))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def layer_stats(self) -> dict[str, dict]:
        out = {"lattice.fsum": {"calls": self._fsum[0],
                                "self_s": self._fsum[1]}}
        for name, stat in self.stats.items():
            calls = stat["calls"]
            out[name] = dict(stat, repeat_share=(stat["repeats"] / calls
                                                 if calls else 0.0))
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent, fsum tally."""
        with open(path, "w") as fh:
            for name, start, end, parent, n_fsum, s_fsum in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "fsum_calls": n_fsum,
                                     "fsum_s": s_fsum}) + "\n")
