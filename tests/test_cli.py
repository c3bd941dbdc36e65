"""Command-line behavior: exit codes, report files, determinism."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from oscillab import GridDomain, corpus, run_suite, write_field_csv
from oscillab.cli import main


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


class TestInfo:
    def test_info_lists_suites(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "majorant-sufficiency" in out
        assert "sequence-spaces" in out
