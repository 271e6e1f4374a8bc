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
recorded tags and one block, each arm drawn as it is recorded, and no arm
waits for another; a dot arm draws no count, so its blocks are held to count.
TCSPC with no detector dead time holds no array as long as the
run: it draws, records and bins one block of pulses at a time
(`sources.sample_blocks`, `detectors._recorded_blocks`,
`correlator.next_tick_histogram`), against the sync clock held as its
lattice (`correlator.clock_lattice`).

Each recipe returns a `RunResult` whose `config` is the config it ran
with, every default it resolved filled in (correlator range, g2 integration
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
from .config import DEFAULT_BIN_WIDTH_PS, RunConfig, SplitRatio, format_config
from .correlator import (
    Histogram,
    HistogramConfig,
    Mode,
    clock_lattice,
    next_tick_histogram,
    reverse_start_stop,  # noqa: F401  (perfbench/traced.py wraps it by this name)
    tac_histogram,
    write_histogram_csv,
)
from .detectors import _dark_counts, _record, _recorded_blocks
from .errors import AnalysisError, ConfigError
from .rng import derive_seed, generator
from .sources import PoissonLaserModel, _train_duration_ps, pulse_period_ps, sample_blocks
from .timetags import TagStream, write_tags


MAX_HELD_TAGS = 2**27  # tags a run may expect to hold per detector: 1 GiB of times


def _check_held_tags(cfg, source, n_pulses, arms):
    """ConfigError, before any draw, if a (detector, reach) arm expects more tags
    than MAX_HELD_TAGS: n <n> reach efficiency and its darks (alone at reach 0)."""
    p = getattr(source, "photon_dist", None)
    mean_n = source.mu if p is None else p[1] + 2 * p[2]
    for name, reach in arms:
        model = cfg.detectors[name]
        signal = n_pulses * mean_n * reach * model.efficiency
        darks = model.dark_rate_hz * n_pulses / source.rep_rate_hz
        if not signal + darks <= MAX_HELD_TAGS:
            key = "dark_rate_hz" if darks > signal else "efficiency"
            raise ConfigError(f"detector.{name}.{key}: {signal + darks:.3g} tags expected "
                              f"({darks:.3g} darks), over the 2^27 a run may hold")


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


def _correlator_config(cfg, default):
    """cfg's [correlator], else `default(pulse period)`, a window that follows
    from source.rep_rate_hz."""
    if cfg.correlator is not None:
        return cfg.correlator
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    try:
        return default(period)
    except ValueError as exc:
        raise ConfigError(f"source.rep_rate_hz: the default window for a {period:g} ps "
                          f"pulse period fails ({exc}); give the [correlator] range"
                          ) from exc


def _hbt_window(period):  # four periods each side of zero delay
    return HistogramConfig.symmetric(4 * period, DEFAULT_BIN_WIDTH_PS, Mode.ALL_STOPS)


def _tcspc_window(period):  # the whole bins of one period
    span = int(period // DEFAULT_BIN_WIDTH_PS) * DEFAULT_BIN_WIDTH_PS
    return HistogramConfig(DEFAULT_BIN_WIDTH_PS, 0, span, Mode.FIRST_STOP)


# ---------------------------------------------------------------------------
# a recipe's result and its output files


@dataclass(frozen=True)
class RunResult:
    """What a recipe ran and found: the config it ran with, its analysis (a
    G2Estimate, or the nlsq.Fit of the lifetime, IRF or DE fit) and the data
    analysed: an HBT run's histogram and two streams, a TCSPC run's
    histogram, a DE sweep's points."""

    config: RunConfig
    analysis: object
    histogram: Histogram | None = None
    start_detections: TagStream | None = None
    stop_detections: TagStream | None = None
    points: tuple = ()


def _write_outputs(result, out_dir, stem, files):
    """The paths written in `out_dir`: each file `name` of the `files` table, the
    record as <stem>.json and effective_config.cfg, as writer(data, path) for its
    (writer, data), each as .partial.<name> and renamed once all are written."""
    os.makedirs(out_dir, exist_ok=True)
    record = json.dumps(result.analysis.record(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    files = {**files, f"{stem}.json": (_write_text, record),  # strict JSON: no Infinity or NaN
             "effective_config.cfg": (_write_text, format_config(result.config))}
    paths = [os.path.join(out_dir, name) for name in files]
    temps = [os.path.join(out_dir, f".partial.{name}") for name in files]
    try:
        for path, temp, (write, data) in zip(paths, temps, files.values()):
            write(data, temp)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except OSError as exc:
        exc.filename = path  # the file that failed, not its temporary name
        raise
    finally:  # a failure leaves the directory as it was; the renames leave none
        for temp in filter(os.path.lexists, temps):
            os.remove(temp)
    return paths


def _write_text(text, path):
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# HBT coincidence measurement


def run_hbt(cfg):
    """Source -> beamsplitter -> two detectors -> TAC histogram -> g2(0).

    Arm A feeds the start detector, arm B (splitter.transmission) the stop
    detector.
    """
    if cfg.hbt is None:
        raise ConfigError("hbt: section required for simulate-hbt")
    corr_cfg = _correlator_config(cfg, _hbt_window)
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
    _check_held_tags(cfg, cfg.source, cfg.n_pulses, [(start, 1.0 - to_b), (stop, to_b)])
    starts, stops = _acquire(cfg, cfg.source, cfg.n_pulses, "source", [
        (start, 1.0 - to_b, f"detector.{start}"), (stop, to_b, f"detector.{stop}")])
    hist = tac_histogram(starts, stops, corr_cfg)
    estimate = g2_zero(hist, rep_period, integration_halfwidth_ps=halfwidth,
                       n_side_peaks=cfg.g2.n_side_peaks)
    return RunResult(cfg, estimate, hist, starts, stops)


def write_hbt_artifacts(result, out_dir):
    hbt = result.config.hbt  # each stream in TTAG1, from its .ttag suffix
    return _write_outputs(result, out_dir, "g2", {
        f"detections_{hbt.start}.ttag": (write_tags, result.start_detections),
        f"detections_{hbt.stop}.ttag": (write_tags, result.stop_detections),
        "histogram.csv": (write_histogram_csv, result.histogram)})


# ---------------------------------------------------------------------------
# reverse start-stop lifetime / IRF measurement


def run_tcspc(cfg):
    """Source -> detector -> reverse start-stop vs the sync clock -> fit.

    The clock photodiode ticks once per pump pulse, half a period late,
    which centers the decay in the remapped time-after-excitation
    histogram.
    """
    if cfg.tcspc is None:
        raise ConfigError("tcspc: section required for simulate-tcspc")
    cfg = replace(cfg, correlator=_correlator_config(cfg, _tcspc_window))
    hist = _tcspc_histogram(cfg)
    if cfg.tcspc.analysis == "irf":
        fit = measure_irf(hist)
    else:
        fit = fit_lifetime(hist, fix_sigma=cfg.lifetime.fix_sigma_ps)
    return RunResult(cfg, fit, hist)


def _tcspc_histogram(cfg):
    """The TCSPC histogram, made without a run-long array when the detector
    has no dead time: each block of pulses is drawn, recorded and binned in
    turn, in no order (the histogram does not depend on it), against the
    clock held as its lattice.  A dead-time filter needs the whole sorted
    stream, which `_record` makes of the blocks."""
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    name = cfg.tcspc.detector
    model = cfg.detectors[name]
    _check_held_tags(cfg, cfg.source, cfg.n_pulses, [(name, float(model.dead_time_ps > 0))])
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


def write_tcspc_artifacts(result, out_dir):  # the record: lifetime.json or irf.json
    return _write_outputs(result, out_dir, result.config.tcspc.analysis,
                          {"histogram.csv": (write_histogram_csv, result.histogram)})


# ---------------------------------------------------------------------------
# detection-efficiency sweep


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
    name, period = cfg.de_sweep.detector, pulse_period_ps(cfg.source.rep_rate_hz)
    least = max(1.0, 8 * cfg.detectors[name].jitter_sigma_ps)  # one pulse's clicks' spread
    if not least <= cfg.detectors[name].dead_time_ps < period:
        raise ConfigError(f"detector.{name}.dead_time_ps: {cfg.detectors[name].dead_time_ps} is "
                          f"outside [{least:g}, {period:g}) ps: the DE fit counts at most one "
                          f"click a pulse, so one pulse's clicks must merge, no two pulses' clicks")
    mu_values = cfg.de_sweep.mu_values
    if not mu_values:
        raise ConfigError("de_sweep.mu: no mu values given (config key or --mu)")
    mu0, n_pulses = cfg.source.mu, cfg.de_sweep.pulses_per_point
    for mu in mu_values:
        if not mu >= 0:  # also NaN
            raise ConfigError(f"de_sweep.mu: {mu} is not a number >= 0")
        if mu > mu0 * (1 + 1e-12):
            raise ConfigError(
                f"de_sweep.mu: {mu} exceeds the unattenuated source mu {mu0}"
            )
        _check_held_tags(cfg, replace(cfg.source, mu=mu), n_pulses,
                         [(cfg.de_sweep.detector, 1.0)])
    points = []
    for i, mu in enumerate(mu_values):
        detections, = _acquire(cfg, replace(cfg.source, mu=mu), n_pulses,
                               f"de.point{i}.source",
                               [(cfg.de_sweep.detector, 1.0, f"de.point{i}.detector")])
        duration_s = detections.duration_ps * 1e-12
        points.append(DECalibrationPoint(mu, len(detections) / duration_s))
    fit = fit_de(points, cfg.source.rep_rate_hz)
    return RunResult(cfg, fit, points=tuple(points))


def write_de_sweep_artifacts(result, out_dir):
    return _write_outputs(result, out_dir, "de_fit",
                          {"sweep.csv": (write_de_sweep, result.points)})


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
    """Every tick of `correlator.clock_lattice`, as a stream."""
    ticks = clock_lattice(rep_rate_hz, n_pulses, offset_ps)
    return TagStream(ticks[np.arange(ticks.size)], _train_duration_ps(n_pulses, rep_rate_hz),
                     channel=255)


def beamsplit(stream, ratio, seed):
    """(arm_a, arm_b): each tag goes to arm B with probability `ratio.transmission`
    (a `config.SplitRatio`), else to A; both keep the input's channel and window."""
    to_b = generator(seed).random(len(stream)) < ratio.transmission
    return tuple(TagStream(stream.times[arm], stream.duration_ps, stream.channel)
                 for arm in (~to_b, to_b))


def attenuate(stream, transmission, seed):
    """Independent Bernoulli thinning; Poisson(mu) input stays Poisson(mu*transmission).
    The collection optics and monochromator fold into this one transmission."""
    return beamsplit(stream, SplitRatio(transmission), seed)[1]


def detect(photons, model, seed, channel=1):
    """`photons` thinned by `model`'s efficiency, then `_record`ed, on one generator."""
    if photons.duration_ps <= 0:
        raise ValueError("detect requires a stream with duration_ps > 0")
    rng = generator(seed)
    kept = photons.times[rng.random(len(photons)) < model.efficiency]
    return _record(kept.size, [kept], model, photons.duration_ps, rng, channel)
