"""Run-file parsing and the command-line front end."""

import csv
import dataclasses
import math
import os
import subprocess
import sys

import pytest

import torusgibbs
from torusgibbs import cli, experiments, qgibbs
from torusgibbs.cli import cli_main
from torusgibbs.errors import InvalidConfigError, NumericalFailureError
from torusgibbs.experiments import ExperimentConfig, config_items, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class TestParseConfig:
    def test_every_field_round_trips(self, tmp_path):
        # threads defaults to the usable-core count, so any fixed value may equal it
        default = ExperimentConfig()
        cfg = ExperimentConfig(
            experiment="blowup", tau_values=[12.5, 30.0], eps_values=[0.25, 1.0],
            eta=0.05, K=0.7, k_max=2, k_max_values=[0, 4], n_samples=1234,
            seed=99, out_dir="elsewhere", threads=default.threads + 1, K_blowup=1.9,
            R_cap=3.5, R_offset=0.25, varsigma=0.125)
        assert len(dataclasses.fields(cfg)) == 15
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(cfg))
        text = "".join(f"{key} = {val}\n" for key, val in config_items(cfg))
        assert parse_config(write_config(tmp_path, text)) == cfg

    def test_unknown_key(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, "k_max = 1\nsamples = 10\n"))

    def test_bad_scalar(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="n_samples"):
            parse_config(write_config(tmp_path, "n_samples = 1e5\n"))

    @pytest.mark.parametrize("val", ["nan", "inf", "-inf"])
    def test_nonfinite_varsigma(self, val, tmp_path):
        # a non-finite varsigma would write a NaN threshold row
        with pytest.raises(InvalidConfigError, match="varsigma"):
            parse_config(write_config(tmp_path, f"varsigma = {val}\n"))

    @pytest.mark.parametrize("name,val", [("tau_values", [math.nan]),
                                          ("tau_values", [20.0, math.inf]),
                                          ("K", math.inf), ("eta", math.nan)],
                             ids=["tau-nan", "tau-inf", "K-inf", "eta-nan"])
    def test_nonfinite_sweep_values(self, name, val):
        # NaN compares false with 0, and the drivers' floor(K^2 tau) has no
        # value at an infinite tau or K
        with pytest.raises(InvalidConfigError, match=name):
            ExperimentConfig(**{name: val})

    def test_bad_list_item(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="k_max_values"):
            parse_config(write_config(tmp_path, "k_max_values = 1, two, 3\n"))


TINY_BLOWUP = "tau_values = 20\neps_values = 0.5\nn_samples = 3000\n"
# a small run file per experiment, and the config fields its driver reads;
# the command line itself reads experiment and out_dir
TINY = {
    "partition": "tau_values = 10\nn_samples = 3000\n",
    "density": "tau_values = 10\nn_samples = 3000\n",
    "tail": "tau_values = 10\n",
    "blowup": TINY_BLOWUP,
    "freerate": "tau_values = 10, 20\n",
    "threshold": "k_max_values = 0, 1\nn_samples = 2000\n",
}
SWEEP_READS = {"tau_values", "eps_values", "K", "eta", "k_max"}
MC_READS = {"n_samples", "seed", "threads"}
READS = {
    "partition": SWEEP_READS | MC_READS,
    "density": SWEEP_READS | MC_READS,
    "tail": SWEEP_READS | {"R_offset"},
    "blowup": {"tau_values", "eps_values", "K", "K_blowup", "k_max", "R_cap"} | MC_READS,
    "freerate": {"tau_values", "K", "eta", "k_max"},
    "threshold": {"K", "k_max_values", "varsigma"} | MC_READS,
}
FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_experiments_read_every_config_field():
    assert set().union(*READS.values(), {"experiment", "out_dir"}) == FIELDS


class TestCli:
    def test_import_loads_no_scipy_stats_signal_integrate_interpolate_or_optimize(self):
        # a fresh interpreter, so modules other tests imported do not count; the
        # free trace of freerate and partition is a product over modes, no filter,
        # and the cutoff's table and freerate's integral are numpy Gauss-Legendre panels
        src = os.path.dirname(os.path.dirname(torusgibbs.__file__))
        code = ("import sys; from torusgibbs import experiments as ex\n"
                "cfg = ex.ExperimentConfig(tau_values=[10.0], n_samples=3000)\n"
                "ex.exp_free_state_rate(cfg); ex.exp_partition_convergence(cfg)\n"
                "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats',"
                " 'scipy.signal', 'scipy.integrate', 'scipy.interpolate', 'scipy.optimize'))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("argv,config", [
        (["tail", "--threads", "0"], None),
        (["threshold", "--seed", "-1"], None),
        (["blowup"], "bogus = 1\n"),
        (["freerate"], "k_max = -1\n"),
        (["freerate"], "tau_values = -5\n"),
        (["partition", "--config", os.path.join("no-such-dir", "run.cfg")], None),
        (["partition"], "tau_values = nan\n"),
        (["partition"], "tau_values = inf\n"),
        (["partition"], "K = inf\n"),
        # finite, but K^2 overflows
        (["partition"], "K = 1e200\n"),
        (["blowup"], "K_blowup = 1e200\n"),
    ], ids=["threads-0", "seed-negative", "unknown-key", "k_max-negative",
            "tau-nonpositive", "missing-config", "tau-nan", "tau-inf", "K-inf",
            "K-1e200", "K_blowup-1e200"])
    def test_invalid_input_exits_1(self, argv, config, tmp_path, capsys):
        if config is not None:
            argv = argv + ["--config", write_config(tmp_path, config)]
        assert cli_main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not os.path.exists(os.path.join(tmp_path, f"{argv[0]}.csv"))

    @pytest.mark.parametrize("command", ["partition", "density", "tail"])
    def test_single_eps_drivers_reject_an_eps_list(self, command, tmp_path, capsys):
        # these drivers compare at one interaction range; only blowup sweeps eps
        cfg = write_config(tmp_path, "eps_values = 0.5, 0.2\nn_samples = 3000\n")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps_values" in err
        assert not os.path.exists(os.path.join(tmp_path, f"{command}.csv"))

    def test_blowup_writes_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, TINY_BLOWUP)
        out = os.path.join(tmp_path, "out")
        assert cli_main(["blowup", "--config", cfg, "--out", out, "--seed", "5"]) == 0
        with open(os.path.join(out, "blowup.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "regime,K,eps,value,value_stderr"
        assert len(lines) == 3
        with open(os.path.join(out, "blowup_manifest.txt"), encoding="utf-8") as fh:
            manifest = fh.read()
        assert "seed = 5\n" in manifest and "experiment = blowup\n" in manifest

    @pytest.mark.parametrize("command", sorted(TINY))
    def test_repeat_runs_are_byte_identical(self, command, tmp_path, monkeypatch):
        # the same runs record which config fields the driver reads
        read = set()
        runner = cli._RUNNERS[command]

        def spy(cfg, name):
            if name in FIELDS:
                read.add(name)
            return object.__getattribute__(cfg, name)

        def reading_runner(cfg):
            with monkeypatch.context() as patch:
                patch.setattr(ExperimentConfig, "__getattribute__", spy)
                return runner(cfg)

        monkeypatch.setitem(cli._RUNNERS, command, reading_runner)
        cfg = write_config(tmp_path, TINY[command])
        csvs = []
        for run in ("a", "b"):
            out = os.path.join(tmp_path, run)
            assert cli_main([command, "--config", cfg, "--out", out]) == 0
            with open(os.path.join(out, f"{command}.csv"), "rb") as fh:
                csvs.append(fh.read())
        assert csvs[0] == csvs[1]
        assert read == READS[command]

    def test_freerate_repeats_and_error_falls_like_one_over_tau(self, tmp_path):
        csvs = []
        for run in ("a", "b"):
            out = os.path.join(tmp_path, run)
            assert cli_main(["freerate", "--out", out]) == 0
            with open(os.path.join(out, "freerate.csv"), "rb") as fh:
                csvs.append(fh.read())
        assert csvs[0] == csvs[1]
        rows = list(csv.DictReader(csvs[0].decode().splitlines()))
        err = {float(r["tau"]): float(r["error"]) for r in rows}
        assert sorted(err) == [20.0, 40.0, 80.0]
        assert 3.0 <= err[20.0] / err[80.0] <= 5.0

    def test_density_stderr_finite_on_one_shard(self, tmp_path):
        # 3000 samples fill a single MC shard; the jackknife runs over its row groups
        cfg = write_config(tmp_path, "tau_values = 20\nn_samples = 3000\n")
        out = os.path.join(tmp_path, "out")
        assert cli_main(["density", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "density.csv"), encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        stderr = float(row["trace_dist_stderr"])
        assert math.isfinite(stderr) and stderr > 0.0

    @pytest.mark.parametrize("K", [0.6, 0.4], ids=["K0.6", "K0.4"])
    def test_threshold_writes_subcritical_rows(self, K, tmp_path):
        # the sharp-cutoff params take eta = 0.2 K^2, so a small K stays valid
        cfg = write_config(tmp_path, f"K = {K}\nk_max_values = 0, 1\nn_samples = 2000\n")
        assert cli_main(["threshold", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(os.path.join(tmp_path, "threshold.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["check"] for r in rows] == ["subcritical_moment_kmax0",
                                              "subcritical_moment_kmax1"]
        for r in rows:
            assert list(r) == ["check", "value", "value_stderr"]
            assert float(r["value"]) > 0.0 and float(r["value_stderr"]) > 0.0

    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        def failing_build(*args, **kwargs):
            raise NumericalFailureError("eigensolve residual too large")
        monkeypatch.setattr(qgibbs, "build_gibbs", failing_build)
        assert cli_main(["partition", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("NumericalFailureError: ")
        assert not os.path.exists(os.path.join(tmp_path, "partition.csv"))

    def test_sector_cap_exits_2_under_its_own_kind(self, tmp_path, capsys):
        # sector n = 28 at k_max = 6 has C(40, 12) states, past the default cap
        cfg = write_config(tmp_path, "k_max = 6\ntau_values = 80\nn_samples = 2000\n")
        assert cli_main(["partition", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "ResourceLimitError: sector (k_max=6, n=28) has dimension 5586853480 "
            "> cap 5000\n")
        assert not os.path.exists(os.path.join(tmp_path, "partition.csv"))

    def test_selftest_passes_its_checks(self, capsys):
        assert cli_main(["selftest"]) == 0
        names = ["ccr_commutators", "interaction_positive", "variational_identity",
                 "definetti_bound", "berezin_lieb", "hartree_to_local_pathwise",
                 "sharp_cutoff_continuity"]
        assert capsys.readouterr().out.splitlines() == (
            [f"[PASS] {name}" for name in names] + ["selftest: 7/7 checks passed"])

    def test_selftest_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "run_selftest",
                            lambda seed: [("ccr_commutators", True),
                                          ("interaction_positive", False)])
        assert cli_main(["selftest", "--out", str(tmp_path)]) == 3
        assert "interaction_positive" in capsys.readouterr().err
