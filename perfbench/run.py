"""Benchmark oscillab on one workload and print its metrics.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: one timed
workload process, plus set-up-only processes for the set-up time median.
Times are scaled to a reference host speed: op times by the probe in
``probe.py``, set-up times by a reference process that only imports numpy.
``--trace 1`` prints the per-layer metrics: the workload's fixed op count
runs once untraced and once traced, each in a fresh process, and their output
digests must agree.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, with failed_share, the output digest and the
run's provenance.

Workload processes run single-threaded: BLAS and OpenMP thread counts are set
to 1 in their environment.  The run exits nonzero without a result if the
sources under ``src/`` are missing, a workload process fails, or the traced
and untraced digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import REFERENCE_S  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5
# Start-up time of the reference process (see _reference_start_s) at the
# reference speed, in seconds.  On a 2-core KVM guest of a 2.1 GHz Xeon
# (Python 3.11, numpy 2.4) it took 0.15-0.19 s.  Set-up time is scaled by
# it because process start-up and imports slow down with the host in ways
# the in-process probe does not track.
REFERENCE_START_S = 0.150
DEADLINE_S = 170.0   # a run must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "OSCILLAB_THREADS": "1"}
# One string-hash seed for every workload process, so that dict and set
# layouts, and the time spent on them, do not change from run to run.
WORKER_ENV = {**THREAD_ENV, "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one workload process; return its result with ``setup_s``, the
    time from just before process start until its first op was ready."""
    start = time.time()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              env={**os.environ, **WORKER_ENV},
                              stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process {args} ran out of time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process {args} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(versions: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": versions["python"], "numpy": versions["numpy"],
            "oscillab": versions["oscillab"],
            "openblas_num_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
            "git_commit": _git_commit(), "src_lines": src_lines}


def _reference_start_s(deadline: float) -> float:
    """Seconds a Python process that only imports numpy takes to start and
    exit: the host's process start-up speed now, measured without oscillab."""
    start = time.time()
    try:
        subprocess.run([sys.executable, "-c", "import numpy"],
                       env={**os.environ, **WORKER_ENV}, check=True,
                       timeout=max(1.0, deadline - time.time()))
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"reference start-up process failed: {exc}") from None
    return time.time() - start


def _setup_sample(args: list[str], deadline: float) -> tuple[dict, float]:
    """One workload process, with its set-up time scaled to the reference
    start-up speed by a reference process started just before it."""
    reference = _reference_start_s(deadline)
    result = _spawn(args, deadline)
    return result, result["setup_s"] * REFERENCE_START_S / reference


def _end_to_end(common: list[str], seconds: int,
                deadline: float) -> tuple[dict, dict]:
    samples = [_setup_sample(common + ["--mode", "setup"], deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    samples.append(_setup_sample(
        common + ["--mode", "timed", "--seconds", str(seconds)], deadline))
    run = samples[-1][0]
    values = {name: run[name] for name in
              ("ops_per_s", "op_ms_p50", "op_ms_p90")}
    values["setup_s"] = statistics.median(scaled for _, scaled in samples)
    values["peak_rss_mb"] = run["peak_rss_mb"]
    run["raw"]["setup_s"] = statistics.median(r["setup_s"] for r, _ in samples)
    return values, run


def _per_layer(common: list[str], spans: Path, names: list[str],
               deadline: float) -> tuple[dict, dict]:
    plain = _spawn(common + ["--mode", "fixed"], deadline)
    traced = _spawn(common + ["--mode", "traced", "--spans", str(spans)],
                    deadline)
    if plain["digest"] != traced["digest"]:
        raise BenchError(f"traced output digest {traced['digest']} differs "
                         f"from untraced {plain['digest']}")
    layers = traced["layers"]
    values = {}
    for name in names:
        if name == "trace.overhead_share":
            values[name] = traced["timed_s"] / plain["timed_s"] - 1.0
        elif name.startswith("verify.suite."):
            suite = name[len("verify.suite."):-len(".ms_per_trial")]
            values[name] = plain["group_ms"].get(suite, 0.0)
        else:
            layer, stat = name.rsplit(".", 1)
            values[name] = layers.get(layer, {}).get(stat, 0)
    run = dict(traced, attempted=plain["attempted"] + traced["attempted"],
               failed=plain["failed"] + traced["failed"],
               errors=plain["errors"] + traced["errors"])
    return values, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int,
                        help="op count in place of the workload's own "
                        "(for smoke runs)")
    args = parser.parse_args(argv)
    deadline = time.time() + DEADLINE_S

    if not (ROOT / "src" / "oscillab" / "__init__.py").is_file():
        print(f"perfbench: no oscillab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.ops:
        common += ["--ops", str(args.ops)]
    try:
        if args.trace:
            spans = ROOT / ".bench_build" / "perfbench" / \
                f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, run = _per_layer(common, spans, list(units), deadline)
        else:
            values, run = _end_to_end(common, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}")
    print(f"{'failed_share':48s} {run['failed'] / run['attempted']:>16.6g} "
          f"share ({run['failed']} of {run['attempted']} ops)")
    print(f"output_digest {run['digest']} (first {run['digest_ops']} ops)")
    if not args.trace:
        print("measured " + json.dumps(
            {k: round(v, 4) for k, v in run["raw"].items()})
            + f" host-speed probe p50 {run['probe_ms_p50']:.3f} ms, "
            f"reference {1000 * REFERENCE_S:g} ms")
    if not args.trace and args.workload == "verify-mix":
        print("ms_per_trial " + json.dumps(
            {k: round(v, 3) for k, v in run["group_ms"].items()}))
    for error in run["errors"]:
        print(f"failed op: {error}")
    print("provenance " + json.dumps(_provenance(run["versions"])))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
