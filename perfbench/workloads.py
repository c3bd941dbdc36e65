"""The three benchmark workloads: their op streams, how one op runs, and how
its output is checked.

Every op is built from the workload seed and the op's index alone, so a seed
always yields the same op stream.  oscillab sees only the generated inputs:
a (suite, seed, trial) triple for ``verify-mix`` and command lines for the
other two.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import oscillab
from oscillab import cli, corpus, verify
from oscillab.errors import DegenerateInput

SUITES = tuple(verify.TheoremId)


def golden_stride(n: int) -> int:
    """A stride near n times the golden ratio and coprime to n: visiting
    0, s, 2s, ... mod n then spreads any run of consecutive visits evenly
    over the n slots."""
    return next(s for s in itertools.count(max(1, round(n * 0.618)))
                if math.gcd(s, n) == 1)


class OpFailed(Exception):
    """An op's output failed its check."""


@dataclass(frozen=True)
class Op:
    label: str            # unique within a stream, hashed into the digest
    group: str            # suite, family or quantity, for per-group timings
    run: Callable[[], str]
    check: Callable[[str], None]


def strict_json(text: str):
    """Parse JSON, refusing the bare NaN and Infinity tokens."""
    def refuse(token):
        raise OpFailed(f"non-strict JSON token {token}")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise OpFailed(f"not JSON: {exc}") from None


def _cli_output(argv: list[str]) -> str:
    """Run one in-process ``oscillab`` command; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code != 0:
        raise OpFailed(f"exit code {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify-mix: one certificate trial per op, suites in round robin.

def _stratum_mix(theorem) -> list[tuple[tuple, float]]:
    """Each (grid sides, base kind) the sampler draws for a suite, with its
    probability, as ``corpus.sample_inputs`` defines them."""
    T = verify.TheoremId
    if theorem is T.RECTANGLE_DECAY:
        shapes = [((8, 8), 0.5), ((16, 16), 0.5)]
        kinds = [("dyadic-rectangles", 1.0)]
    else:
        if theorem is T.SEQUENCE_SPACES:
            shapes = ([((n,), 0.7 / 3) for n in (16, 32, 64)]
                      + [((n, n), 0.15) for n in (4, 8)])
        else:
            shapes = ([((n,), 0.7 / 4) for n in (8, 16, 32, 64)]
                      + [((n, n), 0.1) for n in (4, 8, 16)])
        if theorem in (T.MAJORANT_SUFFICIENCY, T.SEQUENCE_SPACES,
                       T.GAIN_EXPONENT):
            kinds = [("dyadic-cubes", 1.0)]
        else:
            kinds = [("dyadic-cubes", 0.6), ("all-cubes", 0.4)]
    return [((s, k), ps * pk) for s, ps in shapes for k, pk in kinds]


class StratifiedTrials:
    """Trial indices of one suite, picked so that every cycle of ``CYCLE``
    trials holds its grid sizes and base kinds in the sampler's own
    proportions.

    A trial's cost spans three orders of magnitude with its grid and base
    kind (16x16 all-cubes against 8 cells), so a plain run of trials lets
    the seed swing the mix, and the latency percentiles with it.  Here the
    j-th trial of a cycle comes from the stratum whose probability interval
    holds the evenly spaced point (k + 0.5) / CYCLE, k a stride permutation
    of j; the seed's trials 0, 1, 2, ... are scanned in order to fill each
    stratum.  The seed then changes the instances but not the mix.
    """

    CYCLE = 25              # 1 / 25 is the smallest stratum probability
    SCAN_LIMIT = 100_000

    def __init__(self, theorem, seed: int):
        self.theorem = theorem
        self.seed = seed
        self.mix = _stratum_mix(theorem)
        self.queues = {stratum: deque() for stratum, _ in self.mix}
        self.scanned = 0
        self._stride = golden_stride(self.CYCLE)

    def target(self, j: int) -> tuple:
        u = ((j * self._stride) % self.CYCLE + 0.5) / self.CYCLE
        acc = 0.0
        for stratum, prob in self.mix:
            acc += prob
            if u < acc:
                return stratum
        return self.mix[-1][0]

    def trial(self, j: int) -> int:
        queue = self.queues[self.target(j)]
        while not queue:
            if self.scanned >= self.SCAN_LIMIT:
                raise RuntimeError(f"{self.theorem.value}: no trial in stratum "
                                   f"{self.target(j)} after {self.scanned}")
            base = corpus.sample_inputs(self.theorem, self.seed,
                                        self.scanned)["base"]
            stratum = (base.domain.sides, base.kind)
            if stratum not in self.queues:
                raise RuntimeError(f"{self.theorem.value}: unexpected stratum "
                                   f"{stratum}")
            self.queues[stratum].append(self.scanned)
            self.scanned += 1
        return queue.popleft()


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_certificate(text: str) -> None:
    record = strict_json(text)
    if "degenerate" in record:  # the skip that `oscillab verify` records
        return
    failing = [c["label"] for c in record["checks"] if c["status"] == "fail"]
    if failing or record["pass"] is not True:
        raise OpFailed(f"failing checks {failing}")


def _verify_op(theorem, seed: int, trial: int, config_digest: str) -> Op:
    def run() -> str:
        inputs = corpus.sample_inputs(theorem, seed, trial)
        try:
            record = verify.certify(theorem, inputs).to_dict()
        except DegenerateInput as exc:
            record = {"degenerate": str(exc)}
        record["trial"] = trial
        # Serialised as `oscillab verify` writes trial_NNNN.json.
        out = {"version": oscillab.__version__, "config_digest": config_digest,
               "generated_at": _now()}
        out.update(record)
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    return Op(f"{theorem.value}/{trial}", theorem.value, run,
              _check_certificate)


def verify_mix(seed: int, workdir: Path) -> Iterator[Op]:
    digest = oscillab.RunConfig(seed=seed, suite="all").digest()
    streams = {t: StratifiedTrials(t, seed) for t in SUITES}
    for i in itertools.count():
        theorem = SUITES[i % len(SUITES)]
        yield _verify_op(theorem, seed, streams[theorem].trial(i // len(SUITES)),
                         digest)


# ---------------------------------------------------------------------------
# constants-large: one `oscillab constant` per op over the family matrix.

# 64x64 all-cubes is left out: 89,440 boxes take minutes per op.
FAMILIES = (("64", "dyadic-cubes"), ("64", "all-cubes"),
            ("256", "dyadic-cubes"), ("256", "all-cubes"),
            ("16x16", "dyadic-cubes"), ("16x16", "all-cubes"),
            ("16x16", "dyadic-rectangles"),
            ("64x64", "dyadic-cubes"), ("64x64", "dyadic-rectangles"))
GENERATORS = ("random-log-bounded", "power", "checkerboard", "rubio-a1")
KINDS = ("ap", "rh", "a1", "doubling")
# One cycle of ops visits every (family, kind) cell once.
CELLS = tuple((grid, base, kind) for grid, base in FAMILIES for kind in KINDS)
# Visiting the cells with a golden stride puts the slow ones (256 all-cubes,
# 64x64) evenly through the cycle.
_STRIDE = golden_stride(len(CELLS))


def _generator(base: str, kind: str, cycle: int) -> str:
    """The weight generator of a cell in a given cycle.

    rubio-a1 runs its maximal series with the dyadic operator, so it is used
    on dyadic bases only.  Shifting by the kind gives each cycle every
    generator of a family, so all cycles cost about the same, and the
    generators rotate through the kinds from one cycle to the next, so that
    a few cycles cover every (family, generator, kind) combination.
    """
    gens = GENERATORS if base.startswith("dyadic") else GENERATORS[:-1]
    return gens[(cycle + KINDS.index(kind)) % len(gens)]


def _check_constant(text: str) -> None:
    value = strict_json(text)["value"]
    if not isinstance(value, (int, float)) or not math.isfinite(value) \
            or value < 1.0:
        raise OpFailed(f"constant {value!r} is not finite and at least 1")


def _cli_op(label: str, group: str, argv: list[str],
            check: Callable[[str], None]) -> Op:
    return Op(label, group, lambda: _cli_output(argv), check)


def constants_large(seed: int, workdir: Path) -> Iterator[Op]:
    for i in itertools.count():
        grid, base, kind = CELLS[(i * _STRIDE) % len(CELLS)]
        gen = _generator(base, kind, i // len(CELLS))
        rng = np.random.default_rng([seed, i])
        argv = ["constant", "--kind", kind, "--gen", gen, "--grid", grid,
                "--base", base, "--seed", str(int(rng.integers(2 ** 31)))]
        if base == "dyadic-rectangles":
            argv.append("--split")
        param = {"random-log-bounded": f"bound={rng.uniform(0.5, 2.0)!r}",
                 "power": f"exponent={rng.uniform(-0.5, 1.5)!r}",
                 "checkerboard": f"contrast={rng.uniform(1.2, 3.0)!r}",
                 "rubio-a1": "p=2.0"}[gen]
        argv += ["--param", param]
        if kind == "ap":
            argv += ["--p", repr(rng.uniform(1.5, 3.0))]
        elif kind == "rh":
            argv += ["--delta", repr(rng.uniform(1.3, 2.5))]
        yield _cli_op(f"{i}:{' '.join(argv)}", f"{grid}/{base}", argv,
                      _check_constant)


# ---------------------------------------------------------------------------
# sweep-reuse: one `oscillab sweep` per op, c1p and psi in turn.

SWEEP_SIZE = 4
SWEEP_POWERS = "2,4"
_SWEEP_ROWS = {"c1p": len(SWEEP_POWERS.split(",")), "psi": 9}


def _check_sweep(quantity: str, text: str) -> None:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# version=") \
            or not lines[1].startswith("# generated_at="):
        raise OpFailed("missing sweep preamble")
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    if len(rows) != _SWEEP_ROWS[quantity]:
        raise OpFailed(f"{len(rows)} rows, expected {_SWEEP_ROWS[quantity]}")
    for row in rows:
        if len(row) != len(header):
            raise OpFailed(f"row {row} does not match header {header}")
        cells = dict(zip(header, row))
        # Documented skips: no majorant bound realized (c1p), or every
        # corpus item skipped for this (p, t) (psi, with n_used 0).
        may_be_empty = {"upper_realized"} if quantity == "c1p" else (
            {"psi_hat", "corpus_digest"} if cells.get("n_used") == "0" else set())
        for name, cell in cells.items():
            if cell == "":
                if name not in may_be_empty:
                    raise OpFailed(f"empty {name} cell")
            elif name != "corpus_digest":
                try:
                    value = float(cell)
                except ValueError:
                    raise OpFailed(f"{name} cell {cell!r} is not a number") \
                        from None
                if not math.isfinite(value):
                    raise OpFailed(f"{name} cell {cell!r} is not finite")


def sweep_reuse(seed: int, workdir: Path) -> Iterator[Op]:
    for i in itertools.count():
        quantity = ("c1p", "psi")[i % 2]
        rng = np.random.default_rng([seed, i])
        # `sweep` takes its seed only from a config file.
        config_seed = int(rng.integers(2 ** 31))
        config = workdir / f"sweep-{i:06d}.cfg"
        config.write_text(f"seed = {config_seed}\n")
        argv = ["--config", str(config), "sweep", "--quantity", quantity,
                "--size", str(SWEEP_SIZE)]
        if quantity == "c1p":
            argv += ["--powers", SWEEP_POWERS]
        yield _cli_op(f"{i}:{quantity}:seed={config_seed}", quantity,
                      argv, lambda text, q=quantity: _check_sweep(q, text))


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, Path], Iterator[Op]]
    # Ops in a traced run and in the digest every run reports.
    fixed_ops: int
    # A timed run ends on a whole block of this many ops; every block holds
    # the same mix, so the mix a run measures does not depend on its length.
    block: int


WORKLOADS = {w.name: w for w in (
    Workload("verify-mix", verify_mix,
             fixed_ops=len(SUITES) * StratifiedTrials.CYCLE,
             block=len(SUITES) * StratifiedTrials.CYCLE),
    Workload("constants-large", constants_large, fixed_ops=len(CELLS),
             block=len(CELLS)),
    Workload("sweep-reuse", sweep_reuse, fixed_ops=60, block=100),
)}
