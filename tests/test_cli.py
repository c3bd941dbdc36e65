"""Command-line behavior: exit codes, report files, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import (GridDomain, Measure, Weight, build_base, cli, corpus,
                      run_suite, verify, write_field_csv)
from oscillab.errors import AllDegenerate, OverflowGuard
from oscillab.lattice import BASE_KINDS
from oscillab.cli import main
from oscillab.weights import read_weight


def _write_ramp(path, n=8, scale=1.0):
    dom = GridDomain((n,))
    write_field_csv(path, dom, scale * np.arange(float(n)))


def _read_sweep(path):
    """Rows of a sweep table, skipping the provenance comment lines."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestExitCodes:
    def test_unknown_suite_is_usage_error(self, tmp_path):
        rc = main(["verify", "--suite", "nonsense", "--trials", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_unknown_quantity_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--quantity", "zzz", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_field_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_sweep_size_is_usage_error(self, tmp_path):
        rc = main(["sweep", "--quantity", "c1p", "--size", "0",
                   "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_degenerate_corpus_exits_four(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        dom = GridDomain((8,))
        for i in range(3):
            write_field_csv(corpus_dir / f"flat{i}.csv", dom, np.full(8, float(i)))
        rc = main(["sweep", "--quantity", "c1p", "--corpus", str(corpus_dir),
                   "--out", str(tmp_path / "s")])
        assert rc == 4

    @pytest.mark.parametrize("argv, values", [
        (["norm", "--p", "2", "--field"], [1e200, -1e200, 3e200, 1.0]),
        (["constant", "--kind", "a1", "--weight"], [1e308, 1e308, 1.0, 1.0]),
    ], ids=["norm-power", "a1-sum"])
    def test_overflow_names_float_range_without_warning(self, tmp_path, capsys,
                                                        argv, values):
        data = tmp_path / "data.csv"
        write_field_csv(data, GridDomain((4,)), np.array(values))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, str(data), "--out", str(tmp_path / "o.json")])
        assert rc == 3
        assert not [w for w in caught if w.category is RuntimeWarning]
        err = capsys.readouterr().err
        assert "float range" in err and "rescale" in err

    def test_empty_corpus_dir_exits_four(self, tmp_path):
        corpus_dir = tmp_path / "empty"
        corpus_dir.mkdir()
        rc = main(["sweep", "--quantity", "c1p", "--corpus", str(corpus_dir),
                   "--out", str(tmp_path / "s")])
        assert rc == 4


# One malformed outside input per row, its command, its exit code and a
# part of its message.  '{d}' names a directory holding a field with a
# non-numeric cell (bad.csv, also alone under corpus/), a field and a config
# with a byte that is not UTF-8 (byte.csv, byte.cfg), and weights whose JSON
# sidecar is corrupt (w.csv), a list (v.csv) or holds a number as
# provenance (u.csv).
_GEN = ["gen", "--grid", "8", "--out", "{d}/w_out.csv"]
_OUTSIDE_INPUTS = [
    ("csv-cell-norm", ["norm", "--field", "{d}/bad.csv"], 3, "bad.csv"),
    ("csv-byte-norm", ["norm", "--field", "{d}/byte.csv"], 3, "byte.csv"),
    ("csv-cell-corpus", ["sweep", "--quantity", "psi", "--corpus",
                         "{d}/corpus", "--out", "{d}/s.csv"], 3, "bad.csv"),
    ("power-exponent", [*_GEN, "--gen", "power", "--param", "exponent=abc"],
     3, "exponent"),
    ("log-bound", [*_GEN, "--gen", "random-log-bounded", "--param",
                   "bound=abc"], 3, "bound"),
    ("contrast", [*_GEN, "--gen", "checkerboard", "--param", "contrast=x"],
     3, "contrast"),
    ("rubio-p", [*_GEN, "--gen", "rubio-a1", "--param", "p=abc"], 3, " p "),
    ("rubio-tol", [*_GEN, "--gen", "rubio-a1", "--param", "tol=abc"], 3,
     "tol"),
    ("rubio-g", [*_GEN, "--gen", "rubio-a1", "--param", "g=abc"], 3, " g "),
    ("rubio-mode", [*_GEN, "--gen", "rubio-a1", "--param", "mode=sideways"],
     3, "unknown maximal mode 'sideways'"),
    ("powers-token", ["sweep", "--quantity", "c1p", "--powers", "2,abc",
                      "--out", "{d}/s.csv"], 2, "abc"),
    ("missing-field", ["norm", "--field", "{d}/nope.csv"], 2, "nope.csv"),
    ("missing-weight", ["constant", "--kind", "doubling", "--weight",
                        "{d}/nope.csv"], 2, "nope.csv"),
    ("missing-config", ["--config", "{d}/nope.cfg", "info"], 2, "nope.cfg"),
    ("config-byte", ["--config", "{d}/byte.cfg", "info"], 3, "byte.cfg"),
    ("corrupt-sidecar", ["constant", "--kind", "doubling", "--weight",
                         "{d}/w.csv"], 3, "w.json"),
    ("list-sidecar", ["constant", "--kind", "doubling", "--weight",
                      "{d}/v.csv"], 3, "v.json"),
    ("number-provenance", ["gen", "--weight", "{d}/u.csv", "--out",
                           "{d}/u_out.csv"], 3, "u.json"),
    ("gen-out-parent", ["gen", "--gen", "power", "--grid", "8", "--out",
                        "{d}/new/dir/w.csv"], 0, ""),
]


@pytest.mark.parametrize("argv, code, message",
                         [row[1:] for row in _OUTSIDE_INPUTS],
                         ids=[row[0] for row in _OUTSIDE_INPUTS])
def test_outside_input_exit_codes(tmp_path, capsys, argv, code, message):
    bad = "1,4\n0.0,1.0\nabc,3.0\n"
    (tmp_path / "bad.csv").write_text(bad)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "bad.csv").write_text(bad)
    (tmp_path / "byte.csv").write_bytes(b"1,4\n0 1 2 \xff\n")
    (tmp_path / "byte.cfg").write_bytes(b"seed = \xff\n")
    for name, sidecar in (("w", "{not json"), ("v", "[]"),
                          ("u", '{"provenance": 5}')):
        write_field_csv(tmp_path / f"{name}.csv", GridDomain((8,)),
                        np.arange(1.0, 9.0))
        (tmp_path / f"{name}.json").write_text(sidecar)
    try:
        rc = main([a.format(d=tmp_path) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    assert message in err
    if code == 0:
        assert read_weight(tmp_path / "new" / "dir" / "w.csv").values.size == 8


class TestNormCommand:
    def test_writes_report(self, tmp_path):
        field = tmp_path / "f.csv"
        _write_ramp(field)
        out = tmp_path / "norm.json"
        rc = main(["norm", "--field", str(field), "--p", "2.0",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["norm"] > 0
        assert rep["p"] == 2.0
        assert rep["extremal_set"]

    def test_non_finite_cell_exits_three(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        values = np.arange(8.0)
        values[3] = math.nan
        write_field_csv(field, GridDomain((8,)), values)
        out = tmp_path / "norm.json"
        rc = main(["norm", "--field", str(field), "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "finite" in capsys.readouterr().err


    def test_underflowing_w_m_exits_three(self, tmp_path, capsys,
                                          monkeypatch):
        # The norm command takes the uniform measure; it is handed masses
        # [1e-300, 1e-300, 1, 1], under which w = [1e-50, 1e-30, 1, 1]
        # gives w m = 0 on two cells with mass.  It exited 3 with "no
        # weighted mass on 0:2" (ZeroMass); the w m check now names it.
        dom = GridDomain((4,))
        mea = Measure.general(dom, np.array([1e-300, 1e-300, 1.0, 1.0]))
        monkeypatch.setattr(cli, "Measure", SimpleNamespace(
            uniform=lambda domain: mea))
        write_field_csv(tmp_path / "f.csv", dom, np.array([0.0, 1.0, 5.0, 0.0]))
        write_field_csv(tmp_path / "w.csv", dom,
                        np.array([1e-50, 1e-30, 1.0, 1.0]))
        out = tmp_path / "norm.json"
        rc = main(["norm", "--field", str(tmp_path / "f.csv"), "--weight",
                   str(tmp_path / "w.csv"), "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "float range" in err and "rescale" in err
        assert "no weighted mass" not in err

    def test_intermediate_overflow_exits_three(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        write_field_csv(field, GridDomain((4,)),
                        np.array([1e308, -1e308, 1e308, -1e308]))
        out = tmp_path / "norm.json"
        rc = main(["norm", "--field", str(field), "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "overflow" in capsys.readouterr().err

    def test_infinite_norm_of_finite_field_exits_three(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        write_field_csv(field, GridDomain((4,)),
                        np.array([1e200, -1e200, 3e200, 1.0]))
        out = tmp_path / "norm.json"
        rc = main(["norm", "--field", str(field), "--p", "2",
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "representable" in capsys.readouterr().err


class TestConstantCommand:
    def test_generated_weight_constant(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["constant", "--kind", "ap", "--p", "2.0",
                   "--gen", "checkerboard", "--param", "contrast=2.0",
                   "--grid", "8", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["value"] >= 1.0
        assert rep["kind"] == "ap"

    def test_doubling_overflow_exits_three(self, tmp_path, capsys):
        weight = tmp_path / "w.csv"
        write_field_csv(weight, GridDomain((4,)),
                        np.array([1e300, 1e-300, 1.0, 1.0]))
        out = tmp_path / "c.json"
        rc = main(["constant", "--kind", "doubling", "--weight", str(weight),
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "representable" in capsys.readouterr().err

    def test_log_space_overflow_exits_three(self, tmp_path, capsys):
        # Log weights of up to 700 in magnitude take the log-space branch,
        # and the largest log A_p there is past exp's range.
        out = tmp_path / "c.json"
        rc = main(["constant", "--kind", "ap", "--p", "1.2",
                   "--gen", "random-log-bounded", "--param", "bound=700",
                   "--grid", "16", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "A_p constant left the representable range" \
            in capsys.readouterr().err

    def test_generated_weight_skips_an_unread_base(self, capsys):
        # The doubling constant reads no base, so dyadic cubes, which do not
        # fit a 4x8 grid, give what all-cubes give.
        values = []
        for base in ("dyadic-cubes", "all-cubes"):
            rc = main(["constant", "--kind", "doubling", "--base", base,
                       "--gen", "checkerboard", "--grid", "4x8"])
            assert rc == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values == [5.0, 5.0]

    @pytest.mark.parametrize("argv", [
        ["constant", "--kind", "ap", "--gen", "checkerboard"],
        ["gen", "--gen", "rubio-a1", "--out", "unused.csv"],
    ], ids=["ap", "rubio-a1"])
    def test_read_base_must_fit_the_grid(self, tmp_path, monkeypatch, capsys,
                                         argv):
        monkeypatch.chdir(tmp_path)
        rc = main([*argv, "--grid", "4x8"])
        assert rc == 3
        assert "square domain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["constant", "--kind", "doubling", "--gen", "power"],
        ["gen", "--gen", "power", "--out", "w.csv"],
        ["norm", "--field", "f.csv"],
    ], ids=["constant", "gen", "norm"])
    def test_unknown_base_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                         argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--base", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["a1", "doubling"])
    def test_exact_sum_overflow_exits_three(self, tmp_path, capsys, kind):
        weight = tmp_path / "w.csv"
        write_field_csv(weight, GridDomain((4,)),
                        np.array([1e308, 1e308, 1.0, 1.0]))
        out = tmp_path / "c.json"
        rc = main(["constant", "--kind", kind, "--weight", str(weight),
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "too large" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_suite_writes_reports(self, tmp_path):
        out = tmp_path / "v"
        rc = main(["verify", "--suite", "majorant-sufficiency", "--trials", "1",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        trial = json.loads((out / "majorant-sufficiency" / "trial_0000.json").read_text())
        assert trial["pass"] is True
        # the majorant route must document its growth-rate inputs
        assert "norm_bound" in trial["meta"]
        assert trial["meta"]["iterations"] >= 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert (out / "summary.csv").exists()

    def test_writes_run_suite_records_and_tally(self, tmp_path):
        out = tmp_path / "v"
        rc = main(["verify", "--suite", "log-convexity", "--trials", "6",
                   "--seed", "2", "--out", str(out)])
        run = run_suite("log-convexity", 6, seed=2)
        assert rc == (0 if run["failures"] == 0 else 1)
        slack = run["min_relative_slack"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["suites"] == [{
            "suite": "log-convexity", "trials": 6, "failures": run["failures"],
            "degenerate_skipped": run["degenerate_skipped"],
            "min_relative_slack": "" if slack is None else slack}]
        for i, record in enumerate(run["records"]):
            want = ({"degenerate": record} if isinstance(record, str)
                    else record.to_dict())
            want["trial"] = i
            trial = json.loads(
                (out / "log-convexity" / f"trial_{i:04d}.json").read_text())
            assert {key: trial[key] for key in want} == want

    def test_degenerate_trial_recorded_and_counted(self, tmp_path,
                                                   monkeypatch):
        sample = corpus.sample_inputs

        def constant_field(theorem, seed, trial):
            inputs = sample(theorem, seed, trial)
            return {**inputs, "f": np.zeros_like(inputs["f"])}

        monkeypatch.setattr(corpus, "sample_inputs", constant_field)
        out = tmp_path / "v"
        rc = main(["verify", "--suite", "majorant-sufficiency", "--trials",
                   "2", "--seed", "7", "--out", str(out)])
        assert rc == 0
        trial = json.loads(
            (out / "majorant-sufficiency" / "trial_0000.json").read_text())
        assert trial["degenerate"] == "a constant field majorizes trivially"
        assert trial["trial"] == 0 and "checks" not in trial
        row, = json.loads((out / "summary.json").read_text())["suites"]
        assert row["degenerate_skipped"] == 2
        assert row["failures"] == 0 and row["min_relative_slack"] == ""

    def test_short_tail_fit_is_strict_json(self, tmp_path, monkeypatch):
        # A tail fit of fewer than 2 points leaves NaN estimates; the report
        # writes null there and parses as strict JSON.
        fit = verify.jn_exp_moment

        def short_tail(*args, **kwargs):
            return dataclasses.replace(fit(*args, **kwargs), c1_hat=math.nan,
                                       c2_hat=math.nan)

        def refuse(token):
            raise AssertionError(f"non-strict JSON token {token}")

        monkeypatch.setattr(verify, "jn_exp_moment", short_tail)
        out = tmp_path / "v"
        assert main(["verify", "--suite", "rectangle-decay", "--trials", "2",
                     "--seed", "0", "--out", str(out)]) in (0, 1)
        metas = [json.loads(path.read_text(), parse_constant=refuse)["meta"]
                 for path in sorted((out / "rectangle-decay").iterdir())]
        assert metas and all(m["tail_c1"] is None and m["tail_c2"] is None
                             for m in metas)
        with pytest.raises(OverflowGuard):
            cli._dump({"value": math.nan})

    def test_all_suites_deterministic(self, tmp_path):
        # identical configuration means identical bytes, so the rerun goes
        # into the same directory; only the timestamp lines may differ
        out = tmp_path / "v"
        args = ["verify", "--suite", "all", "--trials", "2",
                "--seed", "11", "--out", str(out)]

        def snapshot():
            shots = {}
            for p in sorted(out.rglob("*")):
                if p.is_file():
                    shots[str(p.relative_to(out))] = [
                        ln for ln in p.read_text().splitlines()
                        if "generated_at" not in ln]
            return shots

        assert main(args) == 0
        first = snapshot()
        assert main(args) == 0
        second = snapshot()
        assert sorted(first) == sorted(second)
        for rel in first:
            assert first[rel] == second[rel], f"nondeterministic content in {rel}"


class TestGenCommand:
    def test_power_weight_needs_no_base(self, tmp_path, capsys):
        # Only rubio-a1 reads --base; dyadic cubes do not fit a 4x8 grid.
        out = tmp_path / "w.csv"
        rc = main(["gen", "--gen", "power", "--grid", "4x8", "--out",
                   str(out)])
        assert rc == 0
        w = read_weight(out)
        assert w.domain.sides == (4, 8)
        assert json.loads(capsys.readouterr().out)["weight_digest"] == w.digest


class TestSweepCommand:
    def test_c1p_table_is_monotone_with_upper_column(self, tmp_path):
        out = tmp_path / "c1p.csv"
        rc = main(["sweep", "--quantity", "c1p", "--size", "6",
                   "--powers", "2,4", "--out", str(out)])
        assert rc == 0
        rows = _read_sweep(out)
        cs = [float(r["c_hat"]) for r in rows]
        assert cs == sorted(cs)
        for r in rows:
            assert float(r["c_hat"]) <= float(r["upper"]) * (1 + 1e-9)
            assert len(r["corpus_digest"]) == 16

    def test_corpus_dir_estimates(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        rng = np.random.default_rng(5)
        dom = GridDomain((16,))
        for i in range(4):
            write_field_csv(corpus_dir / f"f{i}.csv", dom, rng.normal(size=16))
        out = tmp_path / "c1p.csv"
        rc = main(["sweep", "--quantity", "c1p", "--corpus", str(corpus_dir),
                   "--powers", "2", "--out", str(out)])
        assert rc == 0
        rows = _read_sweep(out)
        assert len(rows) == 1
        assert int(rows[0]["n_used"]) == 4

    @pytest.mark.parametrize("scale, rc_want", [(1.0, 3), (1e3, 0)])
    def test_underflowing_powers_exit_three(self, tmp_path, capsys, scale,
                                            rc_want):
        # At p = 16 the upper column reads the norm at the dual exponent 128,
        # where every mean of 128th powers of a 1e-3 field underflows.
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        field = 1e-3 * np.random.default_rng(0).standard_normal(32)
        write_field_csv(corpus_dir / "f.csv", GridDomain((32,)), scale * field)
        out = tmp_path / "c1p.csv"
        rc = main(["sweep", "--quantity", "c1p", "--powers", "2,16",
                   "--corpus", str(corpus_dir), "--out", str(out)])
        assert rc == rc_want
        if rc_want:
            assert not out.exists()
            assert "p-th powers underflow" in capsys.readouterr().err
        else:
            row = _read_sweep(out)[1]
            assert float(row["upper_realized"]) >= float(row["c_hat"]) > 1.0

    def test_psi_rows_match_estimate_constant(self, tmp_path):
        # The success path: each (p, t) row is estimate_constant over the
        # built-in corpus at config seed 0, or the all-skipped row.
        out = tmp_path / "psi.csv"
        assert main(["sweep", "--quantity", "psi", "--size", "4",
                     "--out", str(out)]) == 0
        rows = _read_sweep(out)
        items = corpus.make_standard_corpus(0, 4)
        used = 0
        for row, (p, t) in zip(rows, [(p, t) for p in (1.5, 2.0, 3.0)
                                      for t in (1.5, 3.0, 8.0)], strict=True):
            assert (row["p"], row["t"]) == (repr(p), repr(t))
            try:
                est = verify.estimate_constant("psi", items, {"p": p, "t": t})
            except AllDegenerate:
                assert row == {"p": repr(p), "t": repr(t), "psi_hat": "",
                               "corpus_digest": "", "n_used": "0",
                               "n_skipped": "4"}
                continue
            used += 1
            assert row == {"p": repr(p), "t": repr(t),
                           "psi_hat": repr(est.value),
                           "corpus_digest": est.corpus_digest,
                           "n_used": str(est.n_used),
                           "n_skipped": str(est.n_skipped)}
        assert used > 0

    def test_jn_decay_rows_respect_cap(self, tmp_path):
        out = tmp_path / "jn.csv"
        rc = main(["sweep", "--quantity", "jn-decay", "--size", "4",
                   "--out", str(out)])
        assert rc == 0
        rows = _read_sweep(out)
        assert rows
        for row in rows:
            assert float(row["exp_moment"]) <= float(row["cap"]) * (1 + 1e-12)
            assert float(row["cap"]) == pytest.approx(2.0 * math.e)

    def test_jn_decay_skips_an_overflowing_scale(self, tmp_path,
                                                  monkeypatch):
        # Trial 0 has doubling constant D = 1001, past the range of the
        # default eta = 2 e^(D^2).  Its bare OverflowError made the sweep
        # exit 3; its OverflowGuard now skips the trial, as any toolkit
        # error does.  (verify's rectangle-decay suite raises its own guard
        # on the same D before it reaches the moment.)
        dom = GridDomain((8,))
        mea = Measure.general(dom, np.array([1.0, 1e-3, 1, 1, 1, 1, 1, 1]))
        heavy = {"f": np.arange(8.0), "measure": mea,
                 "base": build_base(dom, mea, "dyadic-cubes"),
                 "w": Weight.unit(dom)}
        real = corpus.sample_inputs
        monkeypatch.setattr(corpus, "sample_inputs", lambda theorem, seed,
                            trial: heavy if trial == 0
                            else real(theorem, seed, trial))
        out = tmp_path / "jn.csv"
        rc = main(["sweep", "--quantity", "jn-decay", "--size", "2",
                   "--out", str(out)])
        assert rc == 0
        theorem = verify.TheoremId.RECTANGLE_DECAY
        assert [r["inputs_digest"] for r in _read_sweep(out)] == [
            verify.inputs_digest(theorem, real(theorem, 0, t)) for t in (1, 2)]

    def test_tl_ratio_rows_finite(self, tmp_path):
        out = tmp_path / "tl.csv"
        rc = main(["sweep", "--quantity", "tl-ratio", "--size", "5",
                   "--out", str(out)])
        assert rc == 0
        rows = _read_sweep(out)
        assert rows
        for row in rows:
            assert math.isfinite(float(row["ratio"]))
            assert float(row["ratio"]) > 0


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\ntrials = 1\nsuite = log-convexity\n"
                       f"out = {tmp_path / 'v'}\n")
        rc = main(["--config", str(cfg), "verify"])
        assert rc == 0
        assert (tmp_path / "v" / "log-convexity" / "trial_0000.json").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sede = 7\n")
        rc = main(["--config", str(cfg), "info"])
        assert rc in (2, 3)


class TestParserReuse:
    def test_usage_error_leaves_next_call_unchanged(self, capsys):
        # One parser serves every call of main in a process.
        argv = ["constant", "--kind", "ap", "--gen", "power", "--grid", "8"]

        def stdout_of_run():
            assert main(argv) == 0
            return [ln for ln in capsys.readouterr().out.splitlines()
                    if "generated_at" not in ln]

        first = stdout_of_run()
        with pytest.raises(SystemExit) as exc:
            main(["constant", "--kind", "zzz", "--p", "5", "--grid", "4"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert stdout_of_run() == first
        assert cli.build_parser() is cli.build_parser()


class TestInfo:
    def test_info_lists_suites(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "majorant-sufficiency" in out
        assert "sequence-spaces" in out


# ---------------------------------------------------------------------------
# Fuzzing the input boundary: any CSV of at most 16 cells and any flag values
# must end in a clean exit code, never in an escaped exception.

_GRIDS = ((1,), (2,), (4,), (8,), (16,), (1, 2), (2, 2), (2, 4), (4, 2),
          (4, 4), (2, 8), (1, 16))
_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308,
                     1.7976931348623157e308, 5e-324, 1e-300, 1e300,
                     math.nan, math.inf, -math.inf]))
# Weights must be positive, so half the files draw from positive cells.
_positive_cells = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True),
    st.sampled_from([1.0, 2.0, 0.5, 1e308, 1e-308, 5e-324, 1e300, 1e-300]))
_exponents = st.sampled_from(["0.5", "1", "2", "3.7", "40", "1.0000001", "0",
                              "-1", "nan", "inf", "1e-300", "1e308"])
_min_scales = st.sampled_from(["0", "1", "2", "5", "-1"])
# Generator parameters, by generator; values as the exponents, or -inf.
_gen_params = st.sampled_from([
    ("power", "exponent"), ("random-log-bounded", "bound"),
    ("checkerboard", "contrast"), ("rubio-a1", "p"), ("rubio-a1", "tol"),
    ("rubio-a1", "mode")])
_param_values = st.one_of(_exponents, st.just("-inf"))


@st.composite
def _csv_text(draw):
    """A field CSV of at most 16 cells; the cell count may miss the header."""
    sides = draw(st.sampled_from(_GRIDS))
    n = math.prod(sides)
    count = draw(st.one_of(st.just(n), st.integers(0, 16)))
    pool = draw(st.sampled_from([_cells, _positive_cells]))
    cells = draw(st.lists(pool, min_size=count, max_size=count))
    head = ",".join(map(str, (len(sides), *sides)))
    return "\n".join([head, *map(repr, cells)]) + "\n"


@st.composite
def _command(draw):
    """(argv template, files): '{f}', '{w}' and '{o}' name the field, the
    weight and the output file."""
    which = draw(st.sampled_from(["norm", "constant", "gen", "param"]))
    files = {"w": draw(_csv_text())}
    if which == "gen":
        return ["gen", "--weight", "{w}", "--out", "{o}.csv"], files
    if which == "param":
        gen, key = draw(_gen_params)
        return ["gen", "--gen", gen, "--grid", draw(st.sampled_from(
                    ["1", "4", "16", "2x2", "4x4"])),
                "--param", f"{key}={draw(_param_values)}",
                "--out", "{o}.csv"], {}
    common = ["--base", draw(st.sampled_from(BASE_KINDS)),
              "--min-scale", draw(_min_scales), "--out", "{o}.json"]
    if which == "constant":
        return ["constant", "--kind", draw(st.sampled_from(
                    ["ap", "rh", "a1", "doubling"])),
                "--weight", "{w}", "--p", draw(_exponents),
                "--delta", draw(_exponents),
                "--mode", draw(st.sampled_from(
                    ["auto", "dyadic", "centered", "uncentered"])),
                *common], files
    files["f"] = draw(_csv_text())
    weight = ["--weight", "{w}"] if draw(st.booleans()) else []
    return ["norm", "--field", "{f}", "--p", draw(_exponents),
            "--spec", draw(st.sampled_from(["centered", "reciprocal"])),
            *weight, *common], files


class TestFuzz:
    @given(_command())
    @settings(max_examples=400, deadline=None)
    def test_small_csvs_exit_cleanly(self, command):
        argv, files = command
        with tempfile.TemporaryDirectory() as tmp:
            names = {"o": str(Path(tmp, "out"))}
            for key, text in files.items():
                names[key] = str(Path(tmp, f"{key}.csv"))
                Path(names[key]).write_text(text)
            argv = [a.format(**names) for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            assert rc in (0, 2, 3, 4), (rc, err.getvalue())
            assert "Traceback" not in err.getvalue()
