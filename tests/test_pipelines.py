import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import photon_correlator as pc
from photon_correlator import DetectorModel, PoissonLaserModel, pulse_period_ps
from photon_correlator import pipelines, sources
from photon_correlator.pipelines import detect, emit_laser_pulse_train
from photon_correlator.rng import derive_seed, generator

from reference_oneshot import reference_record
from reference_sources import (reference_dot_times, reference_laser_times,
                               reference_route, reference_thin)

REP_HZ = 1e5
MU0 = 10.0
SSPD = DetectorModel("SSPD", 0.01, 500.0, 170.0, 10_000)

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
mu = 0.001,0.0316,0.316,1,3.16,10
pulses_per_point = 100000
"""


def reference_stream(model, n_pulses, seed):
    """(times, duration_ps) of the source from the reference emitters,
    which share no code with the program's sampler."""
    emit = (reference_laser_times if isinstance(model, PoissonLaserModel)
            else reference_dot_times)
    return emit(model, n_pulses, seed)


def reference_detect(times, duration_ps, model, seed):
    """The times `model` records from photons at `times`, by the reference
    path: each photon kept with the efficiency, then darks, jitter, sort
    and dead time, all from one generator."""
    rng = np.random.default_rng(seed)
    return reference_record(reference_thin(times, model.efficiency, rng), model,
                            duration_ps, rng)


def per_pulse_counts(times, n_pulses, rep_hz=REP_HZ):
    """Photons per pulse; laser photons sit exactly on their pulse time."""
    pulse_idx = np.rint(times / pulse_period_ps(rep_hz)).astype(np.int64)
    return np.bincount(pulse_idx, minlength=n_pulses)


def pooled_table(a, b, min_expected=5.0):
    """2 x K contingency table of two count histograms, the upper tail pooled
    until every expected cell is >= min_expected."""
    k = max(a.size, b.size)
    rows = np.zeros((2, k))
    rows[0, :a.size] = a
    rows[1, :b.size] = b
    while rows.shape[1] > 2:
        expected = np.outer(rows.sum(axis=1), rows.sum(axis=0)) / rows.sum()
        if expected[:, -1].min() >= min_expected:
            break
        rows[:, -2] += rows[:, -1]
        rows = rows[:, :-1]
    return rows


@pytest.mark.parametrize("transmission", [0.0316, 0.316, 1.0])
def test_direct_poisson_matches_thinned_laser(transmission):
    """The DE sweep samples Poisson(mu0 * T) directly; it must match the
    mu0 reference laser thinned by the attenuator, per pulse and after the
    detector."""
    n_pulses = 200_000
    times, duration = reference_stream(PoissonLaserModel(REP_HZ, MU0), n_pulses, seed=11)
    thinned = reference_thin(times, transmission, np.random.default_rng(12))
    direct = emit_laser_pulse_train(PoissonLaserModel(REP_HZ, MU0 * transmission),
                                    n_pulses, seed=13)
    table = pooled_table(np.bincount(per_pulse_counts(thinned, n_pulses)),
                         np.bincount(per_pulse_counts(direct.times, n_pulses)))
    assert chi2_contingency(table)[1] > 0.01

    n_old = len(reference_detect(thinned, duration, SSPD, seed=14))
    n_new = len(detect(direct, SSPD, seed=15))
    # detected counts are binomial (sub-Poisson with dead time): var <= mean
    assert abs(n_old - n_new) <= 4 * math.sqrt(n_old + n_new)


HBT_CFG = """
[run]
seed = 8
n_pulses = {n_pulses}

[source]
{source}

[splitter]
transmission = 0.5

[detector.APD]
efficiency = {eta_a}
dark_rate_hz = {dark}
jitter_fwhm_ps = {jitter}
dead_time_ps = {dead}

[detector.SSPD]
efficiency = {eta_b}
dark_rate_hz = {dark}
jitter_fwhm_ps = {jitter}
dead_time_ps = {dead}

[hbt]
start = APD
stop = SSPD

[g2]
n_side_peaks = 4
"""

LASER = "type = laser\nrep_rate_hz = 82e6\nmu = 0.5"
DOT = "type = dot\nrep_rate_hz = 82e6\nlifetime_ps = 0\np0 = 0.5\np1 = 0.3\np2 = 0.2"
IDEAL = dict(dark=0, jitter=0, dead=0)


def joint_counts(starts, stops, n_pulses, rep_hz):
    """How many pulses had (a, b) detections at the `starts` and `stops` times,
    for a, b in 0, 1, 2+, as a flat array of 9; tags sit on their pulse times."""
    a, b = (np.minimum(per_pulse_counts(s, n_pulses, rep_hz), 2) for s in (starts, stops))
    return np.bincount(3 * a + b, minlength=9)


@pytest.mark.parametrize("source, eta_a, eta_b", [(LASER, 0.6, 0.5), (DOT, 0.9, 0.9)],
                         ids=["laser", "dot"])
def test_detected_photons_match_the_photon_path(source, eta_a, eta_b):
    """run_hbt draws each arm's detections directly; the joint per-pulse
    (start, stop) counts must match the reference emitter, beamsplitter and
    detectors, including the (1, 1) coincidences of two-photon dot pulses that
    g2(0) measures."""
    n_pulses = 200_000
    cfg = pc.parse_config_text(HBT_CFG.format(n_pulses=n_pulses, source=source,
                                              eta_a=eta_a, eta_b=eta_b, **IDEAL))
    result = pipelines.run_hbt(cfg)
    new = joint_counts(result.start_detections.times, result.stop_detections.times,
                       n_pulses, cfg.source.rep_rate_hz)

    times, duration = reference_stream(cfg.source, n_pulses, seed=21)
    arm_a, arm_b = reference_route(times, cfg.splitter.transmission,
                                   np.random.default_rng(22))
    old = joint_counts(reference_detect(arm_a, duration, cfg.detectors["APD"], seed=23),
                       reference_detect(arm_b, duration, cfg.detectors["SSPD"], seed=24),
                       n_pulses, cfg.source.rep_rate_hz)

    assert new[4] > 1000 and old[4] > 1000  # the (1, 1) cell
    order = np.argsort(-(new + old), kind="stable")  # rare cells last, then pooled
    assert chi2_contingency(pooled_table(new[order], old[order]))[1] > 0.01


class CountingGenerator:
    """A numpy Generator that adds the number of variates of each draw to `tally`."""

    def __init__(self, rng, tally):
        self._rng, self._tally = rng, tally

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self._tally.append(np.size(out))
            return out
        return counted


def laser_hbt_tags(result):
    return len(result.start_detections) + len(result.stop_detections)


def de_sweep_tags(result):
    duration_s = result.config.de_sweep.pulses_per_point / result.config.source.rep_rate_hz
    return sum(round(p.rate_hz * duration_s) for p in result.points)


@pytest.mark.parametrize("recipe, text, tags, stages", [
    (pipelines.run_hbt,
     HBT_CFG.format(n_pulses=200_000, source=LASER, eta_a=0.38, eta_b=0.02,
                    dark=20_000, jitter=170, dead=10_000),
     laser_hbt_tags, ["detector.APD", "detector.SSPD", "source"]),
    (pipelines.run_de_sweep, DE_CFG, de_sweep_tags,
     sorted(f"de.point{i}.{stage}" for i in range(6) for stage in ("source", "detector"))),
], ids=["hbt", "de_sweep"])
def test_laser_recipes_draw_in_proportion_to_detections(monkeypatch, recipe, text,
                                                        tags, stages):
    """No variate per pulse or per lost photon: a laser recipe draws a few
    per recorded tag (signal or dark) plus one Poisson total per stage, and
    only from the source and detector stages."""
    tally, seen = [], []

    def counting_generator(seed):
        return CountingGenerator(generator(seed), tally)

    def recording_derive_seed(seed, stage):
        seen.append(stage)
        return derive_seed(seed, stage)

    for module in (pipelines, sources):
        monkeypatch.setattr(module, "generator", counting_generator)
    monkeypatch.setattr(pipelines, "derive_seed", recording_derive_seed)
    cfg = pc.parse_config_text(text)
    result = recipe(cfg)

    assert sorted(seen) == stages
    n_tags = tags(result)
    # per tag: its pulse index or dark time, and its jitter; dead time may
    # drop a few percent of the tags that were drawn
    assert 0 < sum(tally) <= 3 * n_tags + 2 * len(stages)


def test_de_sweep_rejects_mu_above_source():
    cfg = pc.parse_config_text(DE_CFG)
    cfg = replace(cfg, de_sweep=replace(cfg.de_sweep, mu_values=(1.0, 10.5)))
    with pytest.raises(pc.ConfigError, match="exceeds"):
        pipelines.run_de_sweep(cfg)
