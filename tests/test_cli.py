import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photon_correlator import (
    DECalibrationPoint,
    Histogram,
    HistogramConfig,
    Mode,
    decay_model,
    read_histogram_csv,
    read_tags,
    write_de_sweep,
    write_histogram_csv,
)
from photon_correlator.cli import SIMULATIONS, _load_run_config, build_parser, main
from photon_correlator.config import load_config

HBT_CFG = """
[run]
seed = 42
n_pulses = 100000

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
g2_target = 0.24
mean_n = 0.1

[splitter]
transmission = 0.5

[detector.APD]
efficiency = 0.38
dark_rate_hz = 100
jitter_fwhm_ps = 550

[detector.SSPD]
efficiency = 0.4
dark_rate_hz = 100
jitter_fwhm_ps = 170
dead_time_ps = 10000

[correlator]
bin_width_ps = 32
range_halfwidth_ps = 67073
mode = ALL_STOPS

[hbt]
start = APD
stop = SSPD

[g2]
n_side_peaks = 10
"""

TCSPC_CFG = """
[run]
seed = 9
n_pulses = 300000

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
p0 = 0
p1 = 1
p2 = 0

[detector.SSPD]
efficiency = 1.0
dark_rate_hz = 100
jitter_fwhm_ps = 170

[tcspc]
detector = SSPD
"""

# a lifetime-free dot: the TCSPC histogram is the detector's IRF
TCSPC_IRF_CFG = TCSPC_CFG.replace("[tcspc]\ndetector = SSPD",
                                  "[tcspc]\ndetector = SSPD\nanalysis = irf",
                                  ).replace("lifetime_ps = 370", "lifetime_ps = 0")

DE_CFG = """
[run]
seed = 5
n_pulses = 100000

[source]
type = laser
rep_rate_hz = 100e3
mu = 10

[detector.SSPD]
efficiency = 0.01
dark_rate_hz = 500
jitter_fwhm_ps = 170
dead_time_ps = 10000

[de_sweep]
detector = SSPD
mu = 0.01,0.1,1,10
pulses_per_point = 100000
"""


def dir_digest(path):
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSimulateHbt:
    def test_writes_artifacts_and_record(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HBT_CFG)
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "g2_zero=" in stdout
        for name in ("detections_APD.ttag", "detections_SSPD.ttag",
                     "histogram.csv", "g2.txt", "g2.json",
                     "effective_config.cfg"):
            assert (out / name).exists(), name
        hist = read_histogram_csv(out / "histogram.csv")
        assert hist.total_counts > 0
        tags = read_tags(out / "detections_SSPD.ttag")
        assert len(tags) > 0
        record = json.loads((out / "g2.json").read_text())
        assert 0.0 <= record["g2_zero"] < 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, HBT_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out2)]) == 0
        assert dir_digest(out1) == dir_digest(out2)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, HBT_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out2),
                     "--seed", "43"]) == 0
        assert dir_digest(out1) != dir_digest(out2)

    def test_perfect_source_has_small_g2(self, tmp_path, capsys):
        cfg_text = HBT_CFG.replace("g2_target = 0.24", "g2_target = 0.0")
        cfg = write_cfg(tmp_path, cfg_text)
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "g2.json").read_text())
        assert record["g2_zero"] < 0.02

    def test_missing_hbt_section_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, TCSPC_CFG)  # has no [hbt]
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()  # no partial outputs on validation failure

    def test_invalid_config_error_code(self, tmp_path):
        cfg = write_cfg(tmp_path, HBT_CFG.replace("start = APD", "start = TES"))
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_window_too_small_for_side_peaks_fails_early(self, tmp_path, capsys):
        # default +/-4-period window cannot hold 20 side-peak windows; the
        # command must reject the combination before simulating anything
        cfg_text = HBT_CFG.replace("range_halfwidth_ps = 67073",
                                   "range_halfwidth_ps = 48780")
        cfg = write_cfg(tmp_path, cfg_text.replace("n_side_peaks = 10",
                                                   "n_side_peaks = 20"))
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "side-peak windows" in capsys.readouterr().err

    def test_bad_halfwidth_fails_before_simulating(self, tmp_path, capsys):
        # 7000 ps is above half the 82 MHz period (6098 ps)
        cfg = write_cfg(tmp_path, HBT_CFG + "integration_halfwidth_ps = 7000\n")
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "integration_halfwidth_ps" in capsys.readouterr().err

    def test_effective_config_echoes_resolved_halfwidth(self, tmp_path):
        cfg = write_cfg(tmp_path, HBT_CFG)
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "effective_config.cfg").read_text()
        assert f"integration_halfwidth_ps = {1e12 / 82e6 / 2.0 - 32!r}" in text

    def test_hbt_start_and_stop_on_one_detector_is_config_error(self, tmp_path,
                                                                 capsys):
        # both arms would draw their dark counts from one detector stage
        text = HBT_CFG.replace("stop = SSPD", "stop = APD")
        out = tmp_path / "out"
        assert main(["simulate-hbt", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: hbt.stop: the start and stop detectors must differ, "
            "both are 'APD'\n")


class TestSimulateTcspc:
    def test_lifetime_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TCSPC_CFG)
        out = tmp_path / "out"
        assert main(["simulate-tcspc", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "lifetime.json").read_text())
        assert record["converged"] is True
        assert record["tau_ps"] == pytest.approx(370.0, rel=0.05)
        assert (out / "histogram.csv").exists()

    def test_correlator_range_outside_int64_is_config_error(self, tmp_path, capsys):
        text = TCSPC_CFG + ("\n[correlator]\nbin_width_ps = 10\n"
                            "range_min_ps = -9223372036854775818\n"
                            "range_max_ps = -9223372036854775808\n")
        out = tmp_path / "out"
        assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: correlator: range [-9223372036854775818, "
            "-9223372036854775808) ps leaves int64\n")

    def test_correlator_with_too_many_bins_is_config_error(self, tmp_path, capsys):
        text = TCSPC_CFG + ("\n[correlator]\nbin_width_ps = 1\n"
                            "range_min_ps = -1e18\nrange_max_ps = 1e18\n")
        out = tmp_path / "out"
        assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: correlator: range [-1000000000000000000, "
            "1000000000000000000) ps holds 2000000000000000000 bins, more than "
            "16777216\n")

    def test_period_shorter_than_a_bin_is_config_error(self, tmp_path, capsys):
        # the default window spans whole 32 ps bins of one pulse period
        text = TCSPC_CFG.replace("rep_rate_hz = 82e6", "rep_rate_hz = 1e11")
        out = tmp_path / "out"
        assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: source.rep_rate_hz: ")
        assert len(err.splitlines()) == 1

    def test_irf_run(self, tmp_path):
        cfg = write_cfg(tmp_path, TCSPC_IRF_CFG)
        out = tmp_path / "out"
        assert main(["simulate-tcspc", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "irf.json").read_text())
        assert record["irf_fwhm_ps"] == pytest.approx(170.0, rel=0.05)

    def test_reruns_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, TCSPC_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-tcspc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-tcspc", "--config", cfg, "--out", str(out2)]) == 0
        assert dir_digest(out1) == dir_digest(out2)

    def test_zero_jitter_fitted_sigma_within_two_bins(self, tmp_path):
        cfg_text = TCSPC_CFG.replace("jitter_fwhm_ps = 170", "jitter_fwhm_ps = 0")
        cfg = write_cfg(tmp_path, cfg_text)
        out = tmp_path / "out"
        assert main(["simulate-tcspc", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "lifetime.json").read_text())
        assert record["sigma_ps"] <= 2 * 32  # two bin widths

    def test_tau_stable_across_seeds(self, tmp_path):
        cfg = write_cfg(tmp_path, TCSPC_CFG)
        taus = []
        for i, seed in enumerate((101, 202, 303, 404, 505)):
            out = tmp_path / f"out{i}"
            assert main(["simulate-tcspc", "--config", cfg, "--out", str(out),
                         "--seed", str(seed)]) == 0
            taus.append(json.loads((out / "lifetime.json").read_text())["tau_ps"])
        assert (max(taus) - min(taus)) / np.mean(taus) < 0.02  # +/- 1% band


class TestSimulateDeSweep:
    def test_sweep_and_fit(self, tmp_path):
        cfg = write_cfg(tmp_path, DE_CFG)
        out = tmp_path / "out"
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "de_fit.json").read_text())
        assert record["eta"] == pytest.approx(0.01, rel=0.3)
        assert (out / "sweep.csv").exists()

    def test_mu_override(self, tmp_path):
        cfg = write_cfg(tmp_path, DE_CFG)
        out = tmp_path / "out"
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out),
                     "--mu", "0.05,0.5,5"]) == 0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 4  # header + 3 points

    def test_empty_mu_list_is_usage_error(self, tmp_path):
        cfg_text = DE_CFG.replace("mu = 0.01,0.1,1,10", "")
        cfg = write_cfg(tmp_path, cfg_text)
        out = tmp_path / "out"
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["", ",", " , "])
    def test_empty_mu_option_is_usage_error(self, tmp_path, capsys, mu):
        cfg = write_cfg(tmp_path, DE_CFG)
        out = tmp_path / "out"
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out),
                     "--mu", mu]) == 2
        assert not out.exists()
        assert "no mu values" in capsys.readouterr().err

    def test_non_numeric_mu_option_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DE_CFG)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate-de-sweep", "--config", cfg, "--out", str(out),
                  "--mu", "0.1,x"])
        assert exc.value.code == 2
        assert not out.exists()
        assert "--mu" in capsys.readouterr().err

    def test_mu_above_source_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, DE_CFG)
        out = tmp_path / "out"
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out),
                     "--mu", "100"]) == 2

    def test_doubled_mu_grid_recovers_same_eta(self, tmp_path):
        # a fresh sweep on a doubled mu grid measures the same efficiency
        cfg = write_cfg(tmp_path, DE_CFG)
        etas = []
        for run, mu in (("a", "0.01,0.1,1,5"), ("b", "0.02,0.2,2,10")):
            out = tmp_path / run
            assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out),
                         "--mu", mu]) == 0
            etas.append(json.loads((out / "de_fit.json").read_text())["eta"])
        assert etas[1] == pytest.approx(etas[0], rel=0.1)

    def test_reruns_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, DE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate-de-sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert dir_digest(out1) == dir_digest(out2)


class TestAnalyze:
    def comb_csv(self, tmp_path):
        cfg = HistogramConfig(10, -10_500, 10_500, Mode.ALL_STOPS)
        counts = np.zeros(cfg.n_bins, np.int64)
        counts[(0 - cfg.range_min_ps) // 10] = 240
        for k in range(1, 11):
            counts[(k * 1000 - cfg.range_min_ps) // 10] = 1000
            counts[(-k * 1000 - cfg.range_min_ps) // 10] = 1000
        path = tmp_path / "comb.csv"
        write_histogram_csv(Histogram(cfg, counts, 10**6), path)
        return str(path)

    def test_g2_hand_formula(self, tmp_path, capsys):
        path = self.comb_csv(tmp_path)
        assert main(["analyze", "g2", "--hist", path,
                     "--rep-period-ps", "1000", "--side-peaks", "20"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["g2_zero"]) == pytest.approx(0.24)
        assert float(values["g2_sigma"]) == pytest.approx(0.0155846, abs=1e-6)

    def test_lifetime_exact_on_model_csv(self, tmp_path, capsys):
        cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
        x = cfg.bin_centers()
        counts = np.rint(
            decay_model(x, 370.0, 72.2, 50_000.0, 2000.0, 5.0)
        ).astype(np.int64)
        path = tmp_path / "decay.csv"
        write_histogram_csv(Histogram(cfg, counts, int(counts.sum())), path)
        assert main(["analyze", "lifetime", "--hist", str(path)]) == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["tau_ps"]) == pytest.approx(370.0, rel=1e-3)
        assert values["converged"] == "true"

    def test_lifetime_with_fixed_sigma(self, tmp_path, capsys):
        cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
        x = cfg.bin_centers()
        counts = np.rint(
            decay_model(x, 370.0, 72.2, 50_000.0, 2000.0, 5.0)
        ).astype(np.int64)
        path = tmp_path / "decay.csv"
        write_histogram_csv(Histogram(cfg, counts, int(counts.sum())), path)
        assert main(["analyze", "lifetime", "--hist", str(path),
                     "--fix-sigma-ps", "72.2"]) == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["tau_ps"]) == pytest.approx(370.0, rel=1e-3)

    def test_de_insufficient_range(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_de_sweep([DECalibrationPoint(0.0, 500.0),
                        DECalibrationPoint(0.0, 501.0),
                        DECalibrationPoint(0.0, 502.0)], path)
        code = main(["analyze", "de", "--sweep", str(path), "--f-hz", "100000"])
        assert code == 4
        assert "insufficient sweep range" in capsys.readouterr().err

    def test_de_fit(self, tmp_path, capsys):
        from photon_correlator import de_model

        mu = [0.01, 0.1, 1.0, 10.0]
        pts = [DECalibrationPoint(m, float(de_model(m, 0.02, 100.0, 1e5)))
               for m in mu]
        path = tmp_path / "sweep.csv"
        write_de_sweep(pts, path)
        assert main(["analyze", "de", "--sweep", str(path), "--f-hz", "100000"]) == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["eta"]) == pytest.approx(0.02, rel=1e-5)
        assert float(values["dark_rate_hz"]) == pytest.approx(100.0, rel=1e-5)

    def test_irf(self, tmp_path, capsys):
        from photon_correlator.analysis import gaussian_model

        cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
        x = cfg.bin_centers()
        counts = np.rint(gaussian_model(x, 10_000.0, 6000.0, 72.2, 2.0)
                         ).astype(np.int64)
        path = tmp_path / "irf.csv"
        write_histogram_csv(Histogram(cfg, counts, int(counts.sum())), path)
        assert main(["analyze", "irf", "--hist", str(path)]) == 0
        values = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["irf_fwhm_ps"]) == pytest.approx(170.0, rel=0.01)

    def test_format_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "garbage.csv"
        path.write_text("not,a,histogram\n1,2,3\n")
        assert main(["analyze", "g2", "--hist", str(path),
                     "--rep-period-ps", "1000"]) == 3
        assert "format error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["g2", "--hist", "{path}", "--rep-period-ps", "1000"],
        ["lifetime", "--hist", "{path}"],
        ["de", "--sweep", "{path}", "--f-hz", "100000"],
        ["irf", "--hist", "{path}"],
    ])
    @pytest.mark.parametrize("unreadable", ["missing.csv", "."])
    def test_unreadable_input_is_format_error(self, tmp_path, capsys, argv, unreadable):
        path = str(tmp_path / unreadable)
        code = main(["analyze"] + [a.format(path=path) for a in argv])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("format error: cannot read ")
        assert len(err.strip().splitlines()) == 1

    def test_non_utf8_histogram_is_format_error(self, tmp_path, capsys):
        path = self.comb_csv(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"10510,\xff\n")
        assert main(["analyze", "g2", "--hist", path,
                     "--rep-period-ps", "1000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("format error: ")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row", ["nan,1", "1,inf"])
    def test_non_finite_sweep_is_format_error(self, tmp_path, capsys, row):
        path = tmp_path / "sweep.csv"
        path.write_text(f"mu,rate_hz\n0.01,510\n0.1,600\n{row}\n10,5000\n")
        assert main(["analyze", "de", "--sweep", str(path), "--f-hz", "100000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and ":4: " in err

    def test_bad_histogram_comment_exit_code(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("# n_starts=10 bin_width_ps=0\nbin_start_ps,count\n0,1\n")
        assert main(["analyze", "g2", "--hist", str(path),
                     "--rep-period-ps", "1000"]) == 3
        assert "bin_width_ps must be > 0" in capsys.readouterr().err

    def test_degenerate_fit_exit_code(self, tmp_path, capsys):
        cfg = HistogramConfig(10, 0, 1000, Mode.ALL_STOPS)
        path = tmp_path / "flat.csv"
        write_histogram_csv(Histogram(cfg, np.full(100, 9, np.int64), 900), path)
        assert main(["analyze", "lifetime", "--hist", str(path)]) == 4
        assert "analysis error" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, extra", [
    ("simulate-hbt", HBT_CFG, []),
    ("simulate-tcspc", TCSPC_CFG, []),
    ("simulate-tcspc", TCSPC_IRF_CFG, []),
    ("simulate-de-sweep", DE_CFG, ["--mu", "0.05,0.5,5"]),
], ids=["hbt", "tcspc", "tcspc-irf", "de-sweep"])
def test_effective_config_reloads_to_the_run_config(tmp_path, command, text, extra):
    argv = [command, "--config", write_cfg(tmp_path, text), "--out",
            str(tmp_path / "out"), *extra]
    assert main(argv) == 0
    effective = tmp_path / "out" / "effective_config.cfg"
    run, _ = SIMULATIONS[command]
    assert load_config(effective) == run(_load_run_config(build_parser().parse_args(argv))).config
    # rerunning from the echo, without the command-line overrides, gives the
    # same files, the echo included
    assert main([command, "--config", str(effective), "--out", str(tmp_path / "rerun")]) == 0
    assert dir_digest(tmp_path / "out") == dir_digest(tmp_path / "rerun")


@pytest.mark.parametrize("section, key", [("detector.SSPD", "dead_tme_ps"),
                                          ("tcspc", "clock_dealy_ps")])
def test_unknown_key_is_config_error(tmp_path, capsys, section, key):
    text = TCSPC_CFG.replace(f"[{section}]\n", f"[{section}]\n{key} = 10000\n")
    out = tmp_path / "out"
    assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"config error: {section}.{key}: unknown key\n"


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["simulate-hbt", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"[run]\nseed = 1\n\xff\xfe\n")
    out = tmp_path / "out"
    assert main(["simulate-hbt", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["a-file", "under-a-file"])
def test_unwritable_out_is_config_error(tmp_path, capsys, out):
    (tmp_path / "file").touch()
    path = tmp_path / out
    assert main(["simulate-de-sweep", "--config", write_cfg(tmp_path, DE_CFG),
                 "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {path}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


CONFIGS = {"simulate-hbt": HBT_CFG, "simulate-tcspc": TCSPC_CFG,
           "simulate-de-sweep": DE_CFG}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, section, line", [
    ("simulate-tcspc", "source", "rep_rate_hz = 82e6"),
    ("simulate-tcspc", "source", "lifetime_ps = 370"),
    ("simulate-tcspc", "detector.SSPD", "dark_rate_hz = 100"),
    ("simulate-tcspc", "detector.SSPD", "jitter_fwhm_ps = 170"),
    ("simulate-de-sweep", "source", "rep_rate_hz = 100e3"),
    ("simulate-de-sweep", "source", "mu = 10"),
    ("simulate-de-sweep", "de_sweep", "mu = 0.01,0.1,1,10"),
])
def test_non_finite_parameter_is_config_error(tmp_path, capsys, command, section,
                                              line, value):
    key, text = line.split(" = ")[0], CONFIGS[command]
    assert text.count(f"\n{line}\n") == 1
    text = text.replace(f"\n{line}\n", f"\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}") and key in err
    assert len(err.strip().splitlines()) == 1
    if section.startswith("detector."):  # the section is named once
        assert err == f"config error: {section}: {key} must be finite and >= 0\n"


@pytest.mark.parametrize("command, line, new, where", [
    ("simulate-tcspc", "rep_rate_hz = 82e6", "rep_rate_hz = 1e-300", "run.n_pulses"),
    ("simulate-tcspc", "n_pulses = 300000", "n_pulses = 1e15", "run.n_pulses"),
    ("simulate-de-sweep", "pulses_per_point = 100000", "pulses_per_point = 1e12",
     "de_sweep.pulses_per_point"),
    # an empty run, or a Poisson mean numpy cannot draw
    ("simulate-tcspc", "dark_rate_hz = 100", "dark_rate_hz = 1e300",
     "detector.SSPD.dark_rate_hz"),
    ("simulate-de-sweep", "mu = 10", "mu = 1e300", "source.mu"),
    # below 2^62 per pulse, but not over the run's 1e5 pulses
    ("simulate-de-sweep", "mu = 10", "mu = 1e14", "source.mu"),
    ("simulate-hbt", "n_pulses = 100000", "n_pulses = 0", "run.n_pulses"),
    ("simulate-tcspc", "n_pulses = 300000", "n_pulses = 0", "run.n_pulses"),
    ("simulate-tcspc", "rep_rate_hz = 82e6", "rep_rate_hz = 1e300", "run.n_pulses"),
])
def test_run_longer_than_int64_picoseconds_is_config_error(tmp_path, capsys, command,
                                                           line, new, where):
    out = tmp_path / "out"
    text = CONFIGS[command].replace(line, new)
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: {where}: ")


@pytest.mark.parametrize("value", ["9223372036854775808", "1e30"])
def test_dead_time_outside_int64_is_config_error(tmp_path, capsys, value):
    text = TCSPC_CFG.replace("dark_rate_hz = 100\n",
                             f"dark_rate_hz = 100\ndead_time_ps = {value}\n")
    out = tmp_path / "out"
    assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "config error: detector.SSPD: dead_time_ps must be in [0, 2^63)\n"


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_fixed_sigma_in_config_fails_before_simulating(tmp_path, capsys, value):
    text = TCSPC_CFG + f"\n[lifetime]\nfix_sigma_ps = {value}\n"
    out = tmp_path / "out"
    assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: lifetime.fix_sigma_ps: ")
    assert len(err.splitlines()) == 1


def write_decay_csv(path):
    cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
    counts = np.rint(decay_model(cfg.bin_centers(), 370.0, 72.2, 50_000.0, 2000.0, 5.0))
    write_histogram_csv(Histogram(cfg, counts.astype(np.int64), 10**6), path)


# the last three fit settings leave a fit's start point with a residual or
# normal equations that are not finite
@pytest.mark.parametrize("argv", [
    ["de", "--sweep", "{sweep}", "--f-hz", "nan"],
    ["de", "--sweep", "{sweep}", "--f-hz", "inf"],
    ["lifetime", "--hist", "{hist}", "--fix-sigma-ps", "nan"],
    ["lifetime", "--hist", "{hist}", "--fix-sigma-ps", "-1"],
    ["de", "--sweep", "{huge_sweep}", "--f-hz", "100000"],
    ["de", "--sweep", "{sweep}", "--f-hz", "1e300"],
    ["lifetime", "--hist", "{hist}", "--fix-sigma-ps", "1e-200"],
    # f_hz * mu overflows at the start point
    ["de", "--sweep", "{wide_sweep}", "--f-hz", "1e308"],
], ids=["f-hz-nan", "f-hz-inf", "fix-sigma-nan", "fix-sigma-negative",
        "rates-1e200", "f-hz-1e300", "fix-sigma-1e-200", "f-hz-1e308-mu-100"])
def test_bad_fit_setting_is_analysis_error(tmp_path, capsys, argv):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("mu,rate_hz\n0.01,510\n0.1,600\n1,1500\n10,5000\n")
    huge_sweep = tmp_path / "huge.csv"
    huge_sweep.write_text("mu,rate_hz\n0.01,1e200\n0.1,2e200\n1,5e200\n10,9e200\n")
    wide_sweep = tmp_path / "wide.csv"
    wide_sweep.write_text("mu,rate_hz\n0.01,510\n0.1,600\n1,1500\n100,5000\n")
    hist = tmp_path / "decay.csv"
    write_decay_csv(hist)
    paths = {"sweep": sweep, "huge_sweep": huge_sweep, "wide_sweep": wide_sweep,
             "hist": hist}
    assert main(["analyze"] + [a.format(**paths) for a in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("sigma", ["1e-100", "1e160", "1e300"])
def test_extreme_fixed_sigma_fits_quietly(tmp_path, capsys, sigma):
    # each of these once raised OverflowError or a RuntimeWarning
    hist = tmp_path / "decay.csv"
    write_decay_csv(hist)
    assert main(["analyze", "lifetime", "--hist", str(hist),
                 "--fix-sigma-ps", sigma]) in (0, 4)
    out, err = capsys.readouterr()
    assert err == "" and "\nconverged=" in out


def test_fit_without_finite_start_after_simulating_is_analysis_error(tmp_path, capsys):
    text = TCSPC_CFG + "\n[lifetime]\nfix_sigma_ps = 1e-200\n"
    out = tmp_path / "out"
    assert main(["simulate-tcspc", "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and len(err.splitlines()) == 1


SCIPY_GATE = """
import sys
d, mode = sys.argv[1], sys.argv[2]
if mode == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from photon_correlator.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv
    assert sys.modules.get("scipy") is None, argv

assert sys.modules.get("scipy") is None
out = d + "/" + mode
run("simulate-hbt", "--config", d + "/hbt.cfg", "--out", out + "/hbt")
run("simulate-de-sweep", "--config", d + "/de.cfg", "--out", out + "/de")
run("simulate-tcspc", "--config", d + "/tcspc.cfg", "--out", out + "/tcspc")
run("simulate-tcspc", "--config", d + "/irf.cfg", "--out", out + "/irf")
run("analyze", "g2", "--hist", out + "/hbt/histogram.csv", "--rep-period-ps", "12195",
    "--side-peaks", "10")
run("analyze", "de", "--sweep", out + "/de/sweep.csv", "--f-hz", "100000")
run("analyze", "irf", "--hist", out + "/irf/histogram.csv")
print("--- lifetime")
run("analyze", "lifetime", "--hist", d + "/decay.csv")
"""


@pytest.mark.parametrize("mode", ["unloaded", "blocked"])
def test_no_command_loads_scipy(tmp_path, capsys, mode):
    # numpy is the only run-time dependency; "blocked" makes a stray scipy
    # import fail instead of merely loading it
    write_cfg(tmp_path, HBT_CFG, "hbt.cfg")
    write_cfg(tmp_path, DE_CFG, "de.cfg")
    write_cfg(tmp_path, TCSPC_CFG, "tcspc.cfg")
    write_cfg(tmp_path, TCSPC_IRF_CFG, "irf.cfg")
    write_decay_csv(tmp_path / "decay.csv")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCIPY_GATE, str(tmp_path), mode],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lifetime = proc.stdout.split("--- lifetime\n")[1]
    assert main(["analyze", "lifetime", "--hist", str(tmp_path / "decay.csv")]) == 0
    assert capsys.readouterr().out == lifetime
