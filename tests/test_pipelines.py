import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import photon_correlator as pc
from photon_correlator import (
    DetectorModel,
    PoissonLaserModel,
    attenuate,
    detect,
    emit_laser_pulse_train,
    pulse_period_ps,
)
from photon_correlator import pipelines
from photon_correlator.rng import derive_seed

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


def per_pulse_counts(stream, n_pulses):
    """Photons per pulse; laser photons sit exactly on their pulse time."""
    pulse_idx = np.rint(stream.times / pulse_period_ps(REP_HZ)).astype(np.int64)
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
    mu0 laser thinned by the attenuator, per pulse and after the detector."""
    n_pulses = 200_000
    thinned = attenuate(
        emit_laser_pulse_train(PoissonLaserModel(REP_HZ, MU0), n_pulses, seed=11),
        transmission, seed=12)
    direct = emit_laser_pulse_train(PoissonLaserModel(REP_HZ, MU0 * transmission),
                                    n_pulses, seed=13)
    table = pooled_table(np.bincount(per_pulse_counts(thinned, n_pulses)),
                         np.bincount(per_pulse_counts(direct, n_pulses)))
    assert chi2_contingency(table)[1] > 0.01

    n_old = len(detect(thinned, SSPD, seed=14))
    n_new = len(detect(direct, SSPD, seed=15))
    # detected counts are binomial (sub-Poisson with dead time): var <= mean
    assert abs(n_old - n_new) <= 4 * math.sqrt(n_old + n_new)


def test_de_sweep_emits_only_attenuated_photons(monkeypatch):
    cfg = pc.parse_config_text(DE_CFG)
    emitted, detected, stages = [], [], []

    def counting_emit(model, n_pulses, seed, **kwargs):
        stream = emit_laser_pulse_train(model, n_pulses, seed, **kwargs)
        emitted.append(len(stream))
        return stream

    def counting_detect(photons, model, seed, **kwargs):
        detected.append(len(photons))
        return detect(photons, model, seed, **kwargs)

    def recording_derive_seed(seed, stage):
        stages.append(stage)
        return derive_seed(seed, stage)

    monkeypatch.setattr(pipelines, "emit_laser_pulse_train", counting_emit)
    monkeypatch.setattr(pipelines, "detect", counting_detect)
    monkeypatch.setattr(pipelines, "derive_seed", recording_derive_seed)
    result = pipelines.run_de_sweep(cfg)

    mu_values = cfg.de_sweep.mu_values
    expected = sum(mu_values) * cfg.de_sweep.pulses_per_point
    bound = expected + 5 * math.sqrt(expected)
    assert len(emitted) == len(detected) == len(mu_values)
    assert sum(emitted) <= bound
    assert sum(detected) <= bound

    # the points draw from the source and detector stages only
    assert sorted(stages) == sorted(
        f"de.point{i}.{stage}"
        for i in range(len(mu_values)) for stage in ("source", "detector"))
    assert len(result.points) == len(mu_values)


def test_de_sweep_rejects_mu_above_source():
    cfg = pc.parse_config_text(DE_CFG)
    cfg = replace(cfg, de_sweep=replace(cfg.de_sweep, mu_values=(1.0, 10.5)))
    with pytest.raises(pc.ConfigError, match="exceeds"):
        pipelines.run_de_sweep(cfg)
