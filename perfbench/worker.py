"""One workload process: set up, run ops in a closed loop, print one JSON line.

Started by ``run.py`` with single-threaded BLAS settings in its environment.
Modes:

- ``timed``: run whole blocks of ops until at least ``--seconds`` of op time
  at the reference host speed (see ``probe.py``) and at least ``MIN_OPS``
  and the workload's fixed op count have passed;
- ``fixed``: run exactly the workload's fixed op count;
- ``traced``: the same, under the span tracer, adding per-layer stats;
- ``setup``: stop when the first op is ready (a set-up time sample).

Every mode reports ``ready``, the wall clock when the first op was ready, so
the parent can take set-up time from process start.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oscillab  # noqa: E402

if not Path(oscillab.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: oscillab imported from {oscillab.__file__}, "
             f"not from {SRC}")

from probe import SpeedTrace  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

# A timed run makes at least this many ops, so that ten latency samples lie
# beyond p90.
MIN_OPS = 100


def _strip_stamp(text: str) -> str:
    """The output without its ``generated_at`` line, the one field that
    differs between runs of the same op."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if "generated_at" not in line)


def _latency_stats(latencies: list[float]) -> dict:
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_ms_p50": 1000.0 * statistics.median(latencies),
            "op_ms_p90": 1000.0 * (statistics.quantiles(latencies, n=10)[-1]
                                   if len(latencies) > 1 else latencies[0])}


def run_ops(ops, *, seconds: float, min_ops: int, digest_ops: int,
            block: int | None = None, tracer=None, speed=None) -> dict:
    """Run ops until ``seconds`` of op time and ``min_ops`` ops have passed,
    ending on a whole ``block`` of ops (``seconds`` 0: exactly ``min_ops``).

    Each op's run is timed alone; checking and hashing its output are not.
    With a ``speed`` trace, the host-speed probe runs between ops, each op's
    time is scaled to the reference speed, and ``seconds`` counts scaled
    time; the scaled figures are the result and the measured ones are kept
    under ``raw``.  The digest covers the first ``digest_ops`` outputs.
    """
    latencies, spans, groups, errors = [], [], {}, []
    failed = 0
    digest = hashlib.sha256()
    timed = 0.0
    for op in ops:
        if len(latencies) >= min_ops and timed >= seconds and (
                block is None or len(latencies) % block == 0):
            break
        if speed is not None:
            speed.maybe_probe()
        text, error = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                text = op.run()
            else:
                with tracer.span("op"):
                    text = op.run()
        except OpFailed as exc:
            error = str(exc)
        except Exception:  # an op that raises counts as failed; keep going
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        dt = t1 - t0
        if error is None:
            try:
                op.check(text)
            except OpFailed as exc:
                error = str(exc)
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{op.label}: {error}")
        if len(latencies) < digest_ops:
            digest.update(f"{op.label}\n".encode())
            digest.update(_strip_stamp(text).encode() if error is None
                          else b"FAILED\n")
        latencies.append(dt)
        spans.append((t0, t1, op.group))
        timed += dt if speed is None else dt * speed.latest_factor()
    out = {"raw": _latency_stats(latencies), "timed_s": sum(latencies)}
    if speed is not None:
        speed.probe_now()
        latencies = [(t1 - t0) * speed.factor(t0, t1) for t0, t1, _ in spans]
        out["probe_ms_p50"] = 1000.0 * statistics.median(speed.probes)
    for dt, (_, _, group) in zip(latencies, spans):
        groups.setdefault(group, []).append(dt)
    out.update(_latency_stats(latencies))
    out.update({
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "group_ms": {g: 1000.0 * statistics.fmean(v) for g, v in groups.items()},
        "digest": digest.hexdigest(),
        "digest_ops": min(digest_ops, len(latencies)),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int,
                        help="fixed op count, instead of the workload's own")
    parser.add_argument("--mode", default="timed",
                        choices=("timed", "fixed", "traced", "setup"))
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    n_fixed = args.ops or workload.fixed_ops

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        stream = workload.ops(args.seed, Path(tmp))
        first = next(stream)
        if args.mode in ("fixed", "traced"):
            # Build every op before timing, so that building none is traced.
            ops = [first] + list(itertools.islice(stream, n_fixed - 1))
            seconds, min_ops = 0.0, n_fixed
        else:
            ops = itertools.chain([first], stream)
            seconds = args.seconds
            min_ops = args.ops or max(n_fixed, MIN_OPS)
        out = {"ready": time.time()}
        if args.mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            with tracer.installed():
                out.update(run_ops(ops, seconds=seconds, min_ops=min_ops,
                                   digest_ops=n_fixed, tracer=tracer))
            out["layers"] = tracer.layer_stats()
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                tracer.write_spans(args.spans)
        elif args.mode == "fixed":
            out.update(run_ops(ops, seconds=seconds, min_ops=min_ops,
                               digest_ops=n_fixed))
        elif args.mode == "timed":
            out.update(run_ops(ops, seconds=seconds, min_ops=min_ops,
                               digest_ops=n_fixed, block=workload.block,
                               speed=SpeedTrace()))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": np.__version__,
                       "oscillab": oscillab.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
