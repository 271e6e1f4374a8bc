"""Reproducible experiment recipes tying simulation to analysis.

Each recipe is a pure function of its RunConfig: all randomness flows
from the single top-level seed through stage-name-hashed sub-seeds, so
rerunning a command with the same seed reproduces every output file byte
for byte, and adding a stage never perturbs the draws of existing ones.
The stages are "source" and "detector.<NAME>" for each detector an HBT
or TCSPC run uses, and "de.point<i>.source" and "de.point<i>.detector"
for sweep point i.

A recipe never makes the source's photon stream: its source stage draws
only the photons each detector detects (`sources.sample_blocks`, with
the beamsplitter, attenuator and efficiency folded into one fate per
photon), and each detector stage draws that detector's darks and jitter
(`detectors._record`): in distribution, the photon-by-photon path below.

HBT, the DE sweep and TCSPC with detector dead time hold each detector's
recorded tags and one block, each arm drawn as it is recorded; a dot arm's
blocks are held until recorded, and a dot HBT draws both arms at once.
TCSPC with no detector dead time holds no array as long as the
run: it draws, records and bins one block of pulses at a time
(`sources.sample_blocks`, `detectors._recorded_blocks`,
`correlator.next_tick_histogram`), against the sync clock held as its
lattice (`sources.clock_lattice`).

Each recipe returns, as `result.config`, the config it ran with every
default it resolved filled in (correlator range, g2 integration
half-width); the effective_config.cfg written from it reruns to the same
data.  The g2 comb period, the sync-clock delay and the DE drive
frequency are not config keys: each follows from source.rep_rate_hz.

Detector output channels are assigned from the alphabetical order of the
configured detector names (1, 2, ...); channel 0 is the source and 255
the sync clock.
"""

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    DECalibrationPoint,
    fit_de,
    fit_lifetime,
    g2_zero,
    measure_irf,
    side_peak_windows,
    write_de_sweep,
)
from .config import DEFAULT_BIN_WIDTH_PS, RunConfig, format_config
from .correlator import (
    Histogram,
    HistogramConfig,
    Mode,
    next_tick_histogram,
    reverse_start_stop,  # noqa: F401  (perfbench/traced.py wraps it by this name)
    tac_histogram,
    write_histogram_csv,
)
from .detectors import _dark_counts, _record, _recorded_blocks
from .errors import AnalysisError, ConfigError
from .rng import _BLOCK, derive_seed, generator
from .sources import (PoissonLaserModel, _train_duration_ps, clock_lattice,
                      pulse_period_ps, sample_blocks)
from .timetags import TagStream, write_tags


def _acquire(cfg, source, n_pulses, source_stage, arms):
    """The tags each detector arm records over `n_pulses` pulses of `source`.

    `arms` holds one (detector name, probability that a source photon
    reaches that detector, detector stage) triple per arm.  The photons
    are drawn from `source_stage`, each detector's darks and jitter from
    its own stage.
    """
    models = [cfg.detectors[name] for name, _, _ in arms]
    duration, signals = sample_blocks(
        source, n_pulses, [reach * model.efficiency
                           for (_, reach, _), model in zip(arms, models)],
        derive_seed(cfg.seed, source_stage))
    # the arms are recorded in turn, each as its blocks are taken
    return [_record(count, blocks, model, duration,
                    generator(derive_seed(cfg.seed, stage)),
                    sorted(cfg.detectors).index(name) + 1)
            for (count, blocks), model, (name, _, stage) in zip(signals, models, arms)]


def _hbt_correlator_config(cfg):
    if cfg.correlator is not None:
        return cfg.correlator
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    return HistogramConfig.symmetric(4 * period, DEFAULT_BIN_WIDTH_PS,
                                     Mode.ALL_STOPS)


def _tcspc_correlator_config(cfg):
    if cfg.correlator is not None:
        return cfg.correlator
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    span = int(period // DEFAULT_BIN_WIDTH_PS) * DEFAULT_BIN_WIDTH_PS
    if span == 0:
        raise ConfigError(
            f"source.rep_rate_hz: the pulse period ({period:g} ps) is shorter than "
            f"one {DEFAULT_BIN_WIDTH_PS} ps bin, so the default TCSPC window is "
            f"empty; give the [correlator] range")
    return HistogramConfig(DEFAULT_BIN_WIDTH_PS, 0, span, Mode.FIRST_STOP)


# ---------------------------------------------------------------------------
# HBT coincidence measurement


@dataclass(frozen=True)
class HbtResult:
    config: RunConfig
    start_detections: object
    stop_detections: object
    histogram: Histogram
    estimate: object

    def record(self):
        return self.estimate.record()


def run_hbt(cfg):
    """Source -> beamsplitter -> two detectors -> TAC histogram -> g2(0).

    Arm A feeds the start detector, arm B (splitter.transmission) the stop
    detector.
    """
    if cfg.hbt is None:
        raise ConfigError("hbt: section required for simulate-hbt")
    corr_cfg = _hbt_correlator_config(cfg)
    rep_period = pulse_period_ps(cfg.source.rep_rate_hz)
    try:  # fail before simulating if the histogram cannot hold the windows
        halfwidth, _ = side_peak_windows(corr_cfg, rep_period,
                                         cfg.g2.integration_halfwidth_ps,
                                         cfg.g2.n_side_peaks)
    except AnalysisError as exc:
        raise ConfigError(f"g2: {exc}") from exc
    cfg = replace(cfg, correlator=corr_cfg,
                  g2=replace(cfg.g2, integration_halfwidth_ps=halfwidth))
    start, stop, to_b = cfg.hbt.start, cfg.hbt.stop, cfg.splitter.transmission
    starts, stops = _acquire(cfg, cfg.source, cfg.n_pulses, "source", [
        (start, 1.0 - to_b, f"detector.{start}"), (stop, to_b, f"detector.{stop}")])
    hist = tac_histogram(starts, stops, corr_cfg)
    estimate = g2_zero(hist, rep_period, integration_halfwidth_ps=halfwidth,
                       n_side_peaks=cfg.g2.n_side_peaks)
    return HbtResult(cfg, starts, stops, hist, estimate)


def write_hbt_artifacts(result, out_dir):
    cfg = result.config
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for label, stream in (
        (cfg.hbt.start, result.start_detections),
        (cfg.hbt.stop, result.stop_detections),
    ):
        path = os.path.join(out_dir, f"detections_{label}.ttag")
        write_tags(stream, path, format="binary")
        paths[f"timetags_{label}"] = path
    paths["histogram"] = os.path.join(out_dir, "histogram.csv")
    write_histogram_csv(result.histogram, paths["histogram"])
    paths["record"] = _write_record(result.record(), out_dir, "g2")
    paths["config"] = _write_effective_config(cfg, out_dir)
    return paths


# ---------------------------------------------------------------------------
# reverse start-stop lifetime / IRF measurement


@dataclass(frozen=True)
class TcspcResult:
    config: RunConfig
    histogram: Histogram
    fit: object  # LifetimeFit for analysis=lifetime, IrfFit for analysis=irf

    def record(self):
        return self.fit.record()


def run_tcspc(cfg):
    """Source -> detector -> reverse start-stop vs the sync clock -> fit.

    The clock photodiode ticks once per pump pulse, half a period late,
    which centers the decay in the remapped time-after-excitation
    histogram.
    """
    if cfg.tcspc is None:
        raise ConfigError("tcspc: section required for simulate-tcspc")
    cfg = replace(cfg, correlator=_tcspc_correlator_config(cfg))
    hist = _tcspc_histogram(cfg)
    if cfg.tcspc.analysis == "irf":
        fit = measure_irf(hist)
    else:
        fit = fit_lifetime(hist, fix_sigma=cfg.lifetime.fix_sigma_ps)
    return TcspcResult(cfg, hist, fit)


def _tcspc_histogram(cfg):
    """The TCSPC histogram, made without a run-long array when the detector
    has no dead time: each block of pulses is drawn, recorded and binned in
    turn, in no order (the histogram does not depend on it), against the
    clock held as its lattice.  A dead-time filter needs the whole sorted
    stream, which `_record` makes of the blocks."""
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    name = cfg.tcspc.detector
    model = cfg.detectors[name]
    duration, ((count, signal),) = sample_blocks(
        cfg.source, cfg.n_pulses, [model.efficiency], derive_seed(cfg.seed, "source"))
    rng = generator(derive_seed(cfg.seed, f"detector.{name}"))
    if model.dead_time_ps > 0:
        tags = [_record(count, signal, model, duration, rng, channel=1).times]
    else:
        tags = _recorded_blocks(signal, _dark_counts(model, duration, rng), model,
                                duration, rng)
    clock = clock_lattice(cfg.source.rep_rate_hz, cfg.n_pulses,
                          offset_ps=int(round(period / 2.0)))
    return next_tick_histogram(tags, clock, cfg.correlator,
                               remap_period_ps=int(round(period)))


def write_tcspc_artifacts(result, out_dir):
    cfg = result.config
    os.makedirs(out_dir, exist_ok=True)
    paths = {"histogram": os.path.join(out_dir, "histogram.csv")}
    write_histogram_csv(result.histogram, paths["histogram"])
    # the record is named after the analysis: lifetime.json or irf.json
    paths["record"] = _write_record(result.record(), out_dir, cfg.tcspc.analysis)
    paths["config"] = _write_effective_config(cfg, out_dir)
    return paths


# ---------------------------------------------------------------------------
# detection-efficiency sweep


@dataclass(frozen=True)
class DeSweepResult:
    config: RunConfig
    points: tuple
    fit: object

    def record(self):
        return self.fit.record()


def run_de_sweep(cfg):
    """Laser -> programmable attenuator -> detector -> counter, per mu point.

    Each sweep point is an independent acquisition of
    de_sweep.pulses_per_point pulses of the source.mu laser behind an
    attenuator of transmission mu / source.mu, so every requested mu must
    be <= source.mu.  The point draws its detections directly as
    Poisson(mu * efficiency) per pulse, which equals Bernoulli thinning of
    Poisson(source.mu) by the attenuator and then by the detector.
    """
    if cfg.de_sweep is None:
        raise ConfigError("de_sweep: section required for simulate-de-sweep")
    if not isinstance(cfg.source, PoissonLaserModel):
        raise ConfigError("source.type: de sweep requires the laser source")
    mu_values = cfg.de_sweep.mu_values
    if not mu_values:
        raise ConfigError("de_sweep.mu: no mu values given (config key or --mu)")
    mu0 = cfg.source.mu
    for mu in mu_values:
        if not mu >= 0:  # also NaN
            raise ConfigError(f"de_sweep.mu: {mu} is not a number >= 0")
        if mu > mu0 * (1 + 1e-12):
            raise ConfigError(
                f"de_sweep.mu: {mu} exceeds the unattenuated source mu {mu0}"
            )
    n_pulses = cfg.de_sweep.pulses_per_point
    points = []
    for i, mu in enumerate(mu_values):
        detections, = _acquire(cfg, replace(cfg.source, mu=mu), n_pulses,
                               f"de.point{i}.source",
                               [(cfg.de_sweep.detector, 1.0, f"de.point{i}.detector")])
        duration_s = detections.duration_ps * 1e-12
        points.append(DECalibrationPoint(mu, len(detections) / duration_s))
    fit = fit_de(points, cfg.source.rep_rate_hz)
    return DeSweepResult(cfg, tuple(points), fit)


def write_de_sweep_artifacts(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = {"sweep": os.path.join(out_dir, "sweep.csv")}
    write_de_sweep(result.points, paths["sweep"])
    paths["record"] = _write_record(result.record(), out_dir, "de_fit")
    paths["config"] = _write_effective_config(result.config, out_dir)
    return paths


# ---------------------------------------------------------------------------
# records and effective-config echo


def _write_record(record, out_dir, stem):
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w", newline="") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_effective_config(cfg, out_dir):
    path = os.path.join(out_dir, "effective_config.cfg")
    with open(path, "w", newline="") as fh:
        fh.write(format_config(cfg))
    return path


# ---------------------------------------------------------------------------
# the photon-by-photon path, each step on a whole stream; routing is classical,
# as intensity correlations need photon bookkeeping, not two-photon
# interference.  No recipe calls it, as the source stage folds its steps into
# one fate per photon: it stays while perfbench/traced.py wraps it by name here.


def emit_dot_pulse_train(model, n_pulses, seed):
    """The source stream of `n_pulses` pulses of `model`, a dot or a laser,
    sorted: `sample_blocks` with one arm that detects every photon."""
    duration, ((_, blocks),) = sample_blocks(model, n_pulses, [1.0], seed)
    times = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
    times.sort()
    return TagStream(times, duration, channel=0)


emit_laser_pulse_train = emit_dot_pulse_train


def emit_clock_ticks(rep_rate_hz, n_pulses, offset_ps=0):
    """Every tick of `sources.clock_lattice`, as a stream."""
    ticks = clock_lattice(rep_rate_hz, n_pulses, offset_ps)
    times = np.empty(ticks.size, dtype=np.int64)
    for start in range(0, ticks.size, _BLOCK):
        times[start:start + _BLOCK] = ticks[np.arange(start, min(start + _BLOCK, ticks.size))]
    return TagStream(times, _train_duration_ps(n_pulses, rep_rate_hz), channel=255)


def beamsplit(stream, ratio, seed):
    """(arm_a, arm_b): each tag goes to arm B with probability `ratio.transmission`
    (a `config.SplitRatio`), else to A; both keep the input's channel and window."""
    to_b = generator(seed).random(len(stream)) < ratio.transmission
    return tuple(TagStream(stream.times[arm], stream.duration_ps, stream.channel)
                 for arm in (~to_b, to_b))


def attenuate(stream, transmission, seed):
    """Independent Bernoulli thinning; Poisson(mu) input stays Poisson(mu*transmission).
    The collection optics and monochromator fold into this one transmission."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission {transmission} outside [0, 1]")
    keep = generator(seed).random(len(stream)) < transmission
    return TagStream(stream.times[keep], stream.duration_ps, stream.channel)


def detect(photons, model, seed, channel=1):
    """`photons` thinned by `model`'s efficiency, then `_record`ed, on one generator."""
    if photons.duration_ps <= 0:
        raise ValueError("detect requires a stream with duration_ps > 0")
    rng = generator(seed)
    kept = photons.times[rng.random(len(photons)) < model.efficiency]
    return _record(kept.size, [kept], model, photons.duration_ps, rng, channel)
