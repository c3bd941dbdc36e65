"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from oscillab import cli, corpus, verify  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--ops", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("failed_share") for line in lines)


def _ops(workload: str, seed: int, n: int, tmp_path) -> list:
    stream = workloads.WORKLOADS[workload].ops(seed, tmp_path)
    return [next(stream) for _ in range(n)]


def test_failing_certificate_counts_as_failed(tmp_path, monkeypatch):
    real = verify.certify

    def corrupted(theorem, inputs, *args, **kwargs):
        report = real(theorem, inputs, *args, **kwargs)
        report.checks[0].status = "fail"
        return report

    monkeypatch.setattr(verify, "certify", corrupted)
    ops = _ops("verify-mix", 0, 3, tmp_path)
    result = worker.run_ops(ops, seconds=0.0, min_ops=3, digest_ops=3)
    assert result["attempted"] == 3
    assert result["failed"] == 3
    assert "failing checks" in result["errors"][0]


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.5])
def test_bad_constant_counts_as_failed(tmp_path, monkeypatch, value):
    monkeypatch.setattr(cli, "muckenhoupt_constant", lambda *a, **k: value)
    ops = [op for op in _ops("constants-large", 0, 40, tmp_path)
           if " --kind ap " in op.label and " 64 " in op.label][:1]
    assert ops
    result = worker.run_ops(ops, seconds=0.0, min_ops=1, digest_ops=1)
    assert result["failed"] == 1


def test_sweep_check_rejects_non_finite_and_missing_rows():
    header = "p,t,psi_hat,corpus_digest,n_used,n_skipped"
    good = ["# version=0.1.0 config_digest=x", "# generated_at=now", header]
    rows = [f"{p},{t},1.5,abc,3,1" for p in (1.5, 2.0, 3.0)
            for t in (1.5, 3.0, 8.0)]
    workloads._check_sweep("psi", "\n".join(good + rows) + "\n")
    skipped = rows[:-1] + ["3.0,8.0,,,0,4"]
    workloads._check_sweep("psi", "\n".join(good + skipped) + "\n")
    with pytest.raises(workloads.OpFailed):
        workloads._check_sweep("psi", "\n".join(good + rows[:-1]) + "\n")
    with pytest.raises(workloads.OpFailed):
        bad = rows[:-1] + ["3.0,8.0,nan,abc,3,1"]
        workloads._check_sweep("psi", "\n".join(good + bad) + "\n")


def test_digest_mismatch_stops_the_run(monkeypatch, capsys):
    def fake_spawn(args, deadline):
        traced = "traced" in args
        return {"digest": "b" if traced else "a", "timed_s": 1.0,
                "group_ms": {}, "layers": {}, "attempted": 1, "failed": 0,
                "errors": [], "digest_ops": 1, "versions": {}}

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    code = run.main(["--workload", "verify-mix", "--seed", "0",
                     "--seconds", "1", "--trace", "1"])
    assert code != 0
    assert "differs" in capsys.readouterr().err


def test_traced_run_repeats_counts_and_keeps_the_digest(tmp_path):
    def traced():
        tracer = Tracer()
        ops = _ops("sweep-reuse", 5, 2, tmp_path) + \
            _ops("verify-mix", 5, 9, tmp_path)
        with tracer.installed():
            result = worker.run_ops(ops, seconds=0.0, min_ops=11,
                                    digest_ops=11, tracer=tracer)
        counts = {name: {k: v for k, v in stat.items() if k != "self_s"}
                  for name, stat in tracer.layer_stats().items()}
        return result["digest"], counts

    plain = worker.run_ops(_ops("sweep-reuse", 5, 2, tmp_path)
                           + _ops("verify-mix", 5, 9, tmp_path),
                           seconds=0.0, min_ops=11, digest_ops=11)
    first, second = traced(), traced()
    assert first == second
    assert first[0] == plain["digest"]
    assert first[1]["oscillation.oscillation_norm"]["calls"] > 0
    assert 0.0 < first[1]["oscillation.oscillation_norm"]["repeat_share"] < 1.0
    # Tracing is removed again on exit.
    assert not hasattr(verify.certify, "__wrapped__")


def test_speed_trace_takes_the_probes_around_an_interval():
    trace = probe.SpeedTrace()
    trace.times = [0.0, 0.5, 3.0, 3.2, 10.0]
    trace.probes = [0.010, 0.010, 0.020, 0.020, 0.040]
    ref = probe.REFERENCE_S
    assert trace.factor(3.05, 3.1) == pytest.approx(ref / 0.020)
    # Probes in the window, and the first probe after the interval.
    assert trace.factor(1.0, 1.2) == pytest.approx(ref / 0.010)
    # No probe within the window: the ones just before and after.
    assert trace.factor(5.0, 6.0) == pytest.approx(ref / 0.030)


def test_timed_run_scales_op_times_by_the_probe(tmp_path, monkeypatch):
    # A host at half the reference speed: scaled times are half the measured.
    monkeypatch.setattr(probe, "probe", lambda: 2 * probe.REFERENCE_S)
    ops = _ops("verify-mix", 2, 4, tmp_path)
    result = worker.run_ops(ops, seconds=0.0, min_ops=4, digest_ops=4,
                            speed=probe.SpeedTrace())
    assert result["attempted"] == 4 and result["failed"] == 0
    assert result["ops_per_s"] == pytest.approx(2 * result["raw"]["ops_per_s"])
    assert result["op_ms_p50"] == pytest.approx(result["raw"]["op_ms_p50"] / 2)
    assert result["probe_ms_p50"] == pytest.approx(2000 * probe.REFERENCE_S)


def test_stratified_trials_hold_the_sampler_mix():
    theorem = verify.TheoremId.HOLDER_BRIDGE
    trials = workloads.StratifiedTrials(theorem, seed=7)
    picks = [trials.trial(j) for j in range(50)]
    assert len(set(picks)) == len(picks)
    counts = {}
    for j, trial in enumerate(picks):
        base = corpus.sample_inputs(theorem, 7, trial)["base"]
        assert (base.domain.sides, base.kind) == trials.target(j)
        counts[trials.target(j)] = counts.get(trials.target(j), 0) + 1
    for stratum, prob in workloads._stratum_mix(theorem):
        assert abs(counts.get(stratum, 0) - 50 * prob) <= 2


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
