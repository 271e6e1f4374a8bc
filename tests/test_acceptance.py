"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Heavy simulations sit behind module-scoped fixtures
so reruns within one session are free.
"""

import hashlib
import importlib.util
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import photon_correlator as pc
from photon_correlator import (
    DetectorModel,
    HistogramConfig,
    Mode,
    PulsedSourceModel,
    SplitRatio,
    decay_model,
    peak_fwhm,
    pulse_period_ps,
    read_tags,
    solve_photon_stats,
    tac_histogram,
    write_tags,
)
from photon_correlator.analysis import de_model, de_model_jacobian, decay_model_jacobian
from photon_correlator.cli import main
from photon_correlator.pipelines import (beamsplit, detect, emit_dot_pulse_train,
                                         run_de_sweep, run_hbt, run_tcspc)
from photon_correlator.rng import derive_seed

from conftest import (chunked_histogram, finite_difference_jacobian, poisson_stream,
                      random_stream)
from oracle_histograms import expected_hbt_counts, expected_tcspc_counts, pearson_chi2
from reference_oneshot import (reference_clock_ticks, reference_record,
                               reference_sample_blocks)
from test_analysis import convolution_oracle, relative_jacobian_error

REP_HZ = 82e6
PERIOD = pulse_period_ps(REP_HZ)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {criterion}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. g2(0) reproduction with Table-1 detectors


PAPER_HBT_CFG = """
[run]
seed = 20240917
n_pulses = 10000000

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
dead_time_ps = 0

[detector.SSPD]
efficiency = 0.02
dark_rate_hz = 100
jitter_fwhm_ps = 170
dead_time_ps = 10000

[correlator]
bin_width_ps = 32
range_halfwidth_ps = 128064
mode = ALL_STOPS

[hbt]
start = APD
stop = SSPD

[g2]
n_side_peaks = 20
"""


def test_criterion_1_g2_reproduction():
    started = time.time()
    cfg = pc.parse_config_text(PAPER_HBT_CFG)
    assert cfg.source.photon_dist == solve_photon_stats(0.24, 0.1)
    result = run_hbt(cfg)
    elapsed = time.time() - started
    est = result.estimate
    tolerance = max(0.06, 3.0 * est.sigma)
    ok = abs(est.g2_zero - 0.24) <= tolerance and elapsed < 60.0
    report(
        "1 (g2 reproduction)",
        ok,
        f"g2(0) = {est.g2_zero:.3f} +/- {est.sigma:.3f}, target 0.24 +/- "
        f"{tolerance:.3f}, runtime {elapsed:.1f} s (< 60 s)",
    )


# ---------------------------------------------------------------------------
# 2. side-peak narrowing ratios from one set of simulated histograms


@pytest.fixture(scope="module")
def narrowing_histograms():
    # only tau = 370 ps and the jitter pairing are pinned by the claim; a
    # deterministic one-photon-per-pulse source and unit efficiency give
    # the side peaks the statistics the width estimator needs
    source = PulsedSourceModel(REP_HZ, 370.0, (0.0, 1.0, 0.0))
    corr = HistogramConfig.symmetric(10.5 * PERIOD, 32, Mode.ALL_STOPS)
    n_pulses = 2_000_000
    hists = {}
    for label, (j_start, j_stop), seed in [
        ("APD/APD", (550.0, 550.0), 9101),
        ("SSPD/APD", (550.0, 170.0), 9102),
        ("SSPD/SSPD", (170.0, 170.0), 9103),
    ]:
        photons = emit_dot_pulse_train(source, n_pulses, derive_seed(seed, "source"))
        arm_a, arm_b = beamsplit(photons, SplitRatio(0.5), derive_seed(seed, "splitter"))
        starts = detect(arm_a, DetectorModel("start", 1.0, 0.0, j_start, 0),
                        derive_seed(seed, "detector.start"), channel=1)
        stops = detect(arm_b, DetectorModel("stop", 1.0, 0.0, j_stop, 0),
                       derive_seed(seed, "detector.stop"), channel=2)
        hists[label] = tac_histogram(starts, stops, corr)
    return hists


def mean_side_peak_fwhm(hist):
    widths = [
        peak_fwhm(hist, sign * k * PERIOD, PERIOD / 2 - 32)
        for k in range(1, 11)
        for sign in (-1, 1)
    ]
    return float(np.mean(widths))


def test_criterion_2_peak_narrowing(narrowing_histograms):
    w = {label: mean_side_peak_fwhm(h) for label, h in narrowing_histograms.items()}
    r_sspd_apd = w["SSPD/APD"] / w["APD/APD"]
    r_sspd_sspd = w["SSPD/SSPD"] / w["APD/APD"]
    ok = abs(r_sspd_apd - 0.83) <= 0.03 and abs(r_sspd_sspd - 0.60) <= 0.04
    report(
        "2 (peak narrowing)",
        ok,
        f"FWHM {w['APD/APD']:.0f}/{w['SSPD/APD']:.0f}/{w['SSPD/SSPD']:.0f} ps; "
        f"SSPD/APD ratio = {r_sspd_apd:.3f} (0.83 +/- 0.03), "
        f"SSPD/SSPD ratio = {r_sspd_sspd:.3f} (0.60 +/- 0.04)",
    )


# ---------------------------------------------------------------------------
# 3. lifetime recovery through each IRF


TCSPC_CFG_TEMPLATE = """
[run]
seed = 31013
n_pulses = 2000000

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
p0 = 0
p1 = 1
p2 = 0

[detector.DET]
efficiency = 1.0
dark_rate_hz = 100
jitter_fwhm_ps = {jitter}
dead_time_ps = 0

[tcspc]
detector = DET
"""


def test_criterion_3_lifetime_recovery():
    lines = []
    ok = True
    for jitter, tau_tol in ((170.0, 0.02), (550.0, 0.05)):
        cfg = pc.parse_config_text(TCSPC_CFG_TEMPLATE.format(jitter=jitter))
        result = run_tcspc(cfg)
        fit = result.fit
        n_events = result.histogram.total_counts
        tau_ok = abs(fit.tau_ps - 370.0) / 370.0 <= tau_tol
        irf_ok = abs(fit.irf_fwhm_ps - jitter) / jitter <= 0.05
        ok = ok and fit.converged and tau_ok and irf_ok and n_events >= 1_000_000
        lines.append(
            f"IRF {jitter:.0f} ps: tau = {fit.tau_ps:.1f} ps "
            f"(+/-{tau_tol:.0%}), fitted IRF = {fit.irf_fwhm_ps:.1f} ps (+/-5%), "
            f"{n_events} events"
        )
    report("3 (lifetime recovery)", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. detection-efficiency calibration


DE_SWEEP_CFG = """
[run]
seed = 41041
n_pulses = 1000000

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
mu = 0.001,0.00316,0.01,0.0316,0.1,0.316,1,3.16,10
pulses_per_point = 1000000
"""


def test_criterion_4_de_calibration():
    cfg = pc.parse_config_text(DE_SWEEP_CFG)
    result = run_de_sweep(cfg)
    fit = result.fit
    eta_ok = abs(fit.eta - 0.01) / 0.01 <= 0.05
    dark_ok = abs(fit.dark_rate_hz - 500.0) / 500.0 <= 0.10
    ok = fit.converged and eta_ok and dark_ok
    report(
        "4 (DE calibration)",
        ok,
        f"eta = {fit.eta:.5f} (0.01 +/- 5%), "
        f"D = {fit.dark_rate_hz:.1f} Hz (500 +/- 10%), over 4 decades of mu",
    )


# ---------------------------------------------------------------------------
# 5. classical Poissonian baseline


LASER_HBT_CFG = PAPER_HBT_CFG.replace(
    """[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
g2_target = 0.24
mean_n = 0.1
""",
    """[source]
type = laser
rep_rate_hz = 82e6
mu = 0.5
""",
).replace("seed = 20240917", "seed = 50505")


def test_criterion_5_classical_baseline():
    cfg = pc.parse_config_text(LASER_HBT_CFG)
    result = run_hbt(cfg)
    est = result.estimate
    ok = abs(est.g2_zero - 1.0) <= 0.05
    report(
        "5 (classical baseline)",
        ok,
        f"Poissonian laser g2(0) = {est.g2_zero:.3f} +/- {est.sigma:.3f} "
        f"(1.00 +/- 0.05)",
    )


# ---------------------------------------------------------------------------
# 6. oracle equivalences


def test_criterion_6a_decay_model_vs_quadrature():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        tau = rng.uniform(100, 2000)
        sigma = rng.uniform(30, 600)
        t0 = rng.uniform(-500, 500)
        amplitude = rng.uniform(0.5, 1e4)
        background = rng.uniform(0, 10)
        for t in t0 + np.array([-3 * sigma, -sigma, 0.0, sigma, 2 * sigma,
                                2 * tau, 5 * tau]):
            have = decay_model(t, tau, sigma, amplitude, t0, background)
            want = convolution_oracle(t, tau, sigma, amplitude, t0, background)
            worst = max(worst, abs(have - want) / abs(want))
    ok = worst < 1e-6
    report("6a (decay model vs quadrature)", ok,
           f"worst relative deviation {worst:.2e} over 20 random parameter sets "
           f"(limit 1e-6)")


def test_criterion_6b_jacobians_vs_finite_differences():
    rng = np.random.default_rng(616)
    worst = 0.0
    for _ in range(20):
        p = np.array([
            rng.uniform(150, 800), rng.uniform(40, 300),
            rng.uniform(10, 5000), rng.uniform(-200, 800), rng.uniform(0, 50),
        ])
        t = p[3] + np.linspace(-3 * p[1], 4 * p[0], 41)
        J = decay_model_jacobian(t, *p)
        J_fd = finite_difference_jacobian(lambda q: decay_model(t, *q), p)
        worst = max(worst, relative_jacobian_error(J, J_fd))
    mu = np.logspace(-2, 1, 11)
    for _ in range(20):
        eta = rng.uniform(1e-3, 0.5)
        dark = rng.uniform(1.0, 1e4)
        J = de_model_jacobian(mu, eta, dark, 1e5)
        J_fd = finite_difference_jacobian(
            lambda q: de_model(mu, q[0], q[1], 1e5), np.array([eta, dark]))
        worst = max(worst, relative_jacobian_error(J, J_fd))
    ok = worst < 1e-5
    report("6b (fit Jacobians vs central differences)", ok,
           f"worst relative deviation {worst:.2e} (limit 1e-5)")


def test_criterion_6c_chunked_correlation():
    rng = np.random.default_rng(626)
    cfg = HistogramConfig(64, -12_800, 12_800, Mode.ALL_STOPS)
    ok = True
    for _ in range(5):
        starts = poisson_stream(rng, 5e7, 10**8)
        stops = poisson_stream(rng, 5e7, 10**8)
        single = tac_histogram(starts, stops, cfg)
        for n_chunks in (2, 7, 32):
            chunked = chunked_histogram(starts, stops, cfg, n_chunks)
            ok = ok and np.array_equal(chunked.counts, single.counts)
            ok = ok and chunked.n_starts == single.n_starts
    report("6c (chunked correlation equals single pass)", ok,
           "5 random stream pairs x chunk counts {2, 7, 32}, exact equality")


def test_criterion_6d_dead_time_invariant():
    rng = np.random.default_rng(636)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(0, 300))
        duration = int(rng.integers(5_000, 5_000_000))
        photons = random_stream(rng, n, duration)
        model = DetectorModel(
            "rnd",
            efficiency=float(rng.uniform(0.05, 1.0)),
            dark_rate_hz=float(rng.uniform(0.0, 2e6)),
            jitter_fwhm_ps=float(rng.uniform(0.0, 800.0)),
            dead_time_ps=int(rng.integers(1, 30_000)),
        )
        out = detect(photons, model, seed=int(rng.integers(2**63)))
        if len(out) > 1 and int(np.diff(out.times).min()) < model.dead_time_ps:
            violations += 1
    ok = violations == 0
    report("6d (dead-time gap invariant)", ok,
           f"{violations} violations in 1000 random detect runs")


def test_criterion_6e_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(646)
    failures = 0
    for i in range(1000):
        stream = random_stream(rng, int(rng.integers(0, 200)),
                               int(rng.integers(1, 10**9)))
        fmt = "csv" if i % 2 else "binary"
        path = tmp_path / f"round.{'csv' if i % 2 else 'ttag'}"
        write_tags(stream, path, format=fmt)
        if read_tags(path, format=fmt) != stream:
            failures += 1
    ok = failures == 0
    report("6e (serialization round trip)", ok,
           f"{failures} mismatches in 1000 random streams (binary and CSV)")


# ---------------------------------------------------------------------------
# 7. byte-identical reruns of every simulate command


SMALL_HBT = PAPER_HBT_CFG.replace("n_pulses = 10000000", "n_pulses = 200000")
SMALL_TCSPC = TCSPC_CFG_TEMPLATE.format(jitter=170.0).replace(
    "n_pulses = 2000000", "n_pulses = 100000")
SMALL_DE = DE_SWEEP_CFG.replace("pulses_per_point = 1000000",
                                "pulses_per_point = 50000")


def _dir_digest(path):
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


SMALL_RUNS = [
    ("simulate-hbt", SMALL_HBT, []),
    ("simulate-tcspc", SMALL_TCSPC, []),
    ("simulate-de-sweep", SMALL_DE, ["--mu", "0.01,0.1,1,10"]),
]


def test_criterion_7_determinism(tmp_path):
    ok = True
    details = []
    for name, cfg_text, extra in SMALL_RUNS:
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(cfg_text)
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            code = main([name, "--config", str(cfg_path), "--out", str(out), *extra])
            assert code == 0, f"{name} exited {code}"
            digests.append(_dir_digest(out))
        identical = digests[0] == digests[1]
        ok = ok and identical
        details.append(f"{name}: {'identical' if identical else 'DIFFER'}")
    report("7 (determinism)", ok, "; ".join(details))


# SHA-256 of the data files each SMALL_* run writes at its config's seed.  A
# change to any random draw or to the integer arithmetic changes them, and a
# deliberate one updates them.  The fit records are left out: their last
# digits follow the platform's libm and BLAS.
PINNED_DATA = {
    "simulate-hbt": {
        "detections_APD.ttag":
            "9dffac2706a23139e442c6bd9eaff31481cee6b7bd6564db41efd9b7e591ea49",
        "detections_SSPD.ttag":
            "f06e9b38a9825f66a43c8251a79ffc13218fdcbd69de63f5832b54dcb45a6786",
        "histogram.csv":
            "30fcc3720047203740005e04c0dc898e4beda955f925da51eb9b283240aaf184",
    },
    "simulate-tcspc": {"histogram.csv":
        "160765c6e1966a03fa556ae911dc5a3ebbc4c7b5bbd121b9d60403fbc4b9ad74"},
    "simulate-de-sweep": {"sweep.csv":
        "5e917d0648644496582f65b5d2702a3d12bd65da7b5563d011ef36862ee12c97"},
}


@pytest.mark.parametrize("name, cfg_text, extra", SMALL_RUNS,
                         ids=[run[0] for run in SMALL_RUNS])
def test_simulated_data_is_pinned(tmp_path, name, cfg_text, extra):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main([name, "--config", str(cfg_path), "--out", str(out), *extra]) == 0
    assert {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in PINNED_DATA[name]} == PINNED_DATA[name]


def test_tcspc_histograms_match_the_expected_histogram():
    """SMALL_TCSPC at five seeds, bin by bin, against the counts the model
    expects (`oracle_histograms`), by Pearson's chi-square: the shape check
    that the pinned digests cannot make.  Each seed is checked, and so is
    the sum of the five, which is one run of five times the pulses: at one
    seed a jitter sigma 5 % off or a lifetime 2 % off moves the statistic
    by about its own spread, while the sum fails them, and the remap one
    bin off fails every seed."""
    runs = [run_tcspc(pc.parse_config_text(
        SMALL_TCSPC.replace("seed = 31013", f"seed = {seed}"))) for seed in range(1, 6)]
    assert_five_seeds_match(runs, expected_tcspc_counts(runs[0].config))


def assert_five_seeds_match(runs, expected):
    """Pearson's chi-square of each run of seeds 1-5 against the `expected`
    counts of one run, and of the sum of the five against five times them."""
    checks = [(f"seed {seed}", run.histogram.counts, expected)
              for seed, run in enumerate(runs, 1)]
    checks.append(("the five seeds", sum(run.histogram.counts for run in runs),
                   len(runs) * expected))
    for label, counts, mean in checks:
        statistic, dof, p = pearson_chi2(counts, mean)
        assert p > 1e-3, f"{label}: chi2 = {statistic:.1f} on {dof} dof"


# SMALL_HBT in ALL_STOPS with no dead time, with more photons a pulse and
# darks enough to see.  Two photons of one pulse in one arm can put two
# pairs into one bin together, which spreads the counts past Poisson: by
# about 0.4 % for this dot, whose delays part them, and by 3 % for the
# laser at mu = 0.5, so the laser runs at mu = 0.1
SMALL_HBT_DOT = (SMALL_HBT.replace("n_pulses = 200000", "n_pulses = 2000000")
                 .replace("mean_n = 0.1", "mean_n = 0.5")
                 .replace("efficiency = 0.38", "efficiency = 0.8")
                 .replace("efficiency = 0.02", "efficiency = 0.9")
                 .replace("dark_rate_hz = 100", "dark_rate_hz = 100000")
                 .replace("dead_time_ps = 10000", "dead_time_ps = 0"))
SMALL_HBT_LASER = (SMALL_HBT_DOT
                   .replace("type = dot\nrep_rate_hz = 82e6\nlifetime_ps = 370\n"
                            "g2_target = 0.24\nmean_n = 0.5\n",
                            "type = laser\nrep_rate_hz = 82e6\nmu = 0.1\n"))


@pytest.mark.parametrize("text", [SMALL_HBT_DOT, SMALL_HBT_LASER], ids=["dot", "laser"])
def test_hbt_histograms_match_the_expected_histogram(text):
    """An HBT comb at five seeds, bin by bin, against the counts the model
    expects (`oracle_histograms.expected_hbt_counts`), by Pearson's
    chi-square, at each seed and for the sum of the five: a jitter sigma
    5 % off or the comb one bin off fails both sources, and the dot's
    centre-peak area 10 % off fails the dot's sum."""
    runs = [run_hbt(pc.parse_config_text(text.replace("seed = 20240917", f"seed = {seed}")))
            for seed in range(1, 6)]
    assert_five_seeds_match(runs, expected_hbt_counts(runs[0].config))


# 65535 bins of (2^64 - 1) / 65535 ps span the whole int64 range, so a
# delay's offset into the range, delay + 2^63, is past int64
WHOLE_INT64_RANGE = """
[correlator]
bin_width_ps = 281479271743489
range_min_ps = -9223372036854775808
range_max_ps = 9223372036854775807
"""


@pytest.mark.parametrize("analysis, code", [("irf", 0), ("lifetime", 4)])
def test_simulate_tcspc_bins_a_range_wider_than_2_63(tmp_path, capsys, analysis, code):
    """Every detection up to the last clock tick is counted, as the one-shot
    reference chain finds.  The IRF analysis takes the histogram; the
    lifetime fit rejects its one or two nonzero bins as an analysis error."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_TCSPC.replace("detector = DET",
                                            f"detector = DET\nanalysis = {analysis}")
                        + WHOLE_INT64_RANGE)
    out = tmp_path / "out"
    assert main(["simulate-tcspc", "--config", str(cfg_path), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("analysis error: ")
        return
    cfg = pc.parse_config_text(SMALL_TCSPC)
    duration, (signal,) = reference_sample_blocks(cfg.source, cfg.n_pulses, [1.0],
                                                  derive_seed(cfg.seed, "source"))
    tags = reference_record(signal, cfg.detectors["DET"], duration,
                            np.random.default_rng(derive_seed(cfg.seed, "detector.DET")))
    clock = reference_clock_ticks(REP_HZ, cfg.n_pulses, round(PERIOD / 2))
    hist = pc.read_histogram_csv(out / "histogram.csv")
    assert hist.total_counts == np.count_nonzero(tags <= clock[-1]) > 0.99 * cfg.n_pulses


# ---------------------------------------------------------------------------
# the benchmark's workloads pass the benchmark's own output checks


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  BENCH / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


@pytest.mark.parametrize("workload, command", [
    ("hbt_tac", "simulate-hbt"),
    ("tcspc_lifetime", "simulate-tcspc"),
    ("de_sweep", "simulate-de-sweep"),
])
def test_benchmark_workload_passes_its_oracle(tmp_path, bench_oracles, workload,
                                              command):
    """Each perfbench config at full scale, through the CLI, judged by
    perfbench/oracles.check_<workload> at the config's own seed."""
    cfg_path = BENCH / "configs" / f"{workload}.cfg"
    out = tmp_path / workload
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    check = getattr(bench_oracles, f"check_{workload}")
    problems = check(pc.load_config(cfg_path), out)
    report(f"benchmark {workload}", not problems, "; ".join(problems) or "oracle passed")


def test_tcspc_workload_matches_the_expected_histogram():
    """The tcspc_lifetime workload's config, read as it is and run at 2e5 of
    its 2e6 pulses, at five seeds against the counts the model expects
    (`oracle_histograms.expected_tcspc_counts`): its 170 ps jitter, 370 ps
    lifetime and dark floor, bin by bin.  The sum of the five fails a jitter
    sigma 5 % off, the remap one bin off and a lifetime 2 % off."""
    cfg = replace(pc.load_config(BENCH / "configs" / "tcspc_lifetime.cfg"),
                  n_pulses=200_000)
    runs = [run_tcspc(cfg.with_seed(seed)) for seed in range(1, 6)]
    assert_five_seeds_match(runs, expected_tcspc_counts(runs[0].config))
