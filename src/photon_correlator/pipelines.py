"""Reproducible experiment recipes tying simulation to analysis.

Each recipe is a pure function of its RunConfig: all randomness flows
from the single top-level seed through stage-name-hashed sub-seeds
("source", "splitter", "detector.<NAME>", "de.point<i>.<stage>", ...), so
rerunning a command with the same seed reproduces every output file byte
for byte, and adding a stage never perturbs the draws of existing ones.

Detector output channels are assigned from the alphabetical order of the
configured detector names (1, 2, ...); channel 0 is the source and 255
the sync clock.
"""

import json
import os
from dataclasses import dataclass, replace

from .analysis import (
    DECalibrationPoint,
    fit_de,
    fit_lifetime,
    g2_zero,
    measure_irf,
    write_de_sweep,
)
from .config import RunConfig
from .correlator import (
    Histogram,
    HistogramConfig,
    Mode,
    reverse_start_stop,
    tac_histogram,
    write_histogram_csv,
)
from .detectors import detect
from .errors import ConfigError
# attenuate stays importable here: perfbench/traced.py wraps every layer by name
from .optics import attenuate, beamsplit  # noqa: F401
from .rng import derive_seed
from .sources import (
    PoissonLaserModel,
    PulsedSourceModel,
    emit_clock_ticks,
    emit_dot_pulse_train,
    emit_laser_pulse_train,
    pulse_period_ps,
)
from .timetags import write_tags

DEFAULT_BIN_WIDTH_PS = 32


def _emit_source(cfg, n_pulses, seed):
    if isinstance(cfg.source, PulsedSourceModel):
        return emit_dot_pulse_train(cfg.source, n_pulses, seed)
    return emit_laser_pulse_train(cfg.source, n_pulses, seed)


def _detector_channel(cfg, name):
    return sorted(cfg.detectors).index(name) + 1


def _hbt_correlator_config(cfg):
    if cfg.correlator is not None:
        return cfg.correlator
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    return HistogramConfig.symmetric(4 * period, DEFAULT_BIN_WIDTH_PS,
                                     Mode.ALL_STOPS)


def _check_g2_window(corr_cfg, rep_period_ps, g2_settings):
    """Fail before simulating if the histogram cannot hold the requested
    side-peak windows."""
    halfwidth = g2_settings.integration_halfwidth_ps
    if halfwidth is None:
        halfwidth = rep_period_ps / 2.0 - corr_cfg.bin_width_ps

    def fits(center):
        return (center - halfwidth >= corr_cfg.range_min_ps
                and center + halfwidth <= corr_cfg.range_max_ps)

    available = 0
    k = 1
    while available < g2_settings.n_side_peaks:
        found = [s for s in (-1, 1) if fits(s * k * rep_period_ps)]
        if not found:
            raise ConfigError(
                f"correlator range [{corr_cfg.range_min_ps}, "
                f"{corr_cfg.range_max_ps}) holds only {available} side-peak "
                f"windows but g2.n_side_peaks = {g2_settings.n_side_peaks}; "
                f"widen the range or lower n_side_peaks"
            )
        available += len(found)
        k += 1


def _tcspc_correlator_config(cfg):
    if cfg.correlator is not None:
        return cfg.correlator
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    span = int(period // DEFAULT_BIN_WIDTH_PS) * DEFAULT_BIN_WIDTH_PS
    return HistogramConfig(DEFAULT_BIN_WIDTH_PS, 0, span, Mode.FIRST_STOP)


# ---------------------------------------------------------------------------
# HBT coincidence measurement


@dataclass(frozen=True)
class HbtResult:
    config: RunConfig
    correlator_config: HistogramConfig
    rep_period_ps: float
    start_detections: object
    stop_detections: object
    histogram: Histogram
    estimate: object


def run_hbt(cfg):
    """Source -> beamsplitter -> two detectors -> TAC histogram -> g2(0).

    Arm A feeds the start detector, arm B the stop detector.
    """
    if cfg.hbt is None:
        raise ConfigError("hbt: section required for simulate-hbt")
    corr_cfg = _hbt_correlator_config(cfg)
    rep_period = cfg.g2.rep_period_ps or pulse_period_ps(cfg.source.rep_rate_hz)
    _check_g2_window(corr_cfg, rep_period, cfg.g2)
    source_stream = _emit_source(cfg, cfg.n_pulses, derive_seed(cfg.seed, "source"))
    arm_a, arm_b = beamsplit(source_stream, cfg.splitter,
                             derive_seed(cfg.seed, "splitter"))
    start_model = cfg.detector(cfg.hbt.start, "hbt.start")
    stop_model = cfg.detector(cfg.hbt.stop, "hbt.stop")
    starts = detect(arm_a, start_model,
                    derive_seed(cfg.seed, f"detector.{cfg.hbt.start}"),
                    channel=_detector_channel(cfg, cfg.hbt.start))
    stops = detect(arm_b, stop_model,
                   derive_seed(cfg.seed, f"detector.{cfg.hbt.stop}"),
                   channel=_detector_channel(cfg, cfg.hbt.stop))
    hist = tac_histogram(starts, stops, corr_cfg)
    estimate = g2_zero(hist, rep_period,
                       integration_halfwidth_ps=cfg.g2.integration_halfwidth_ps,
                       n_side_peaks=cfg.g2.n_side_peaks)
    return HbtResult(cfg, corr_cfg, rep_period, starts, stops, hist, estimate)


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
    paths.update(_write_record(result.estimate.record(), out_dir, "g2"))
    paths["config"] = _write_effective_config(cfg, out_dir, extra={
        "correlator": _correlator_lines(result.correlator_config),
        "g2": {
            "rep_period_ps": result.rep_period_ps,
            "n_side_peaks": cfg.g2.n_side_peaks,
            "integration_halfwidth_ps": cfg.g2.integration_halfwidth_ps
            if cfg.g2.integration_halfwidth_ps is not None
            else result.rep_period_ps / 2.0 - result.correlator_config.bin_width_ps,
        },
    })
    return paths


# ---------------------------------------------------------------------------
# reverse start-stop lifetime / IRF measurement


@dataclass(frozen=True)
class TcspcResult:
    config: RunConfig
    correlator_config: HistogramConfig
    clock_delay_ps: int
    histogram: Histogram
    fit: object          # LifetimeFit for analysis=lifetime, else None
    irf: tuple | None    # (fwhm_ps, center_ps) for analysis=irf


def run_tcspc(cfg):
    """Source -> detector -> reverse start-stop vs the sync clock -> fit.

    The clock photodiode ticks once per pump pulse, offset by
    clock_delay_ps (default: half a period, which centers the decay in
    the remapped time-after-excitation histogram).
    """
    if cfg.tcspc is None:
        raise ConfigError("tcspc: section required for simulate-tcspc")
    period = pulse_period_ps(cfg.source.rep_rate_hz)
    clock_delay = cfg.tcspc.clock_delay_ps
    if clock_delay is None:
        clock_delay = int(round(period / 2.0))
    detector_model = cfg.detector(cfg.tcspc.detector, "tcspc.detector")

    source_stream = _emit_source(cfg, cfg.n_pulses, derive_seed(cfg.seed, "source"))
    detections = detect(source_stream, detector_model,
                        derive_seed(cfg.seed, f"detector.{cfg.tcspc.detector}"),
                        channel=_detector_channel(cfg, cfg.tcspc.detector))
    clock = emit_clock_ticks(cfg.source.rep_rate_hz, cfg.n_pulses,
                             offset_ps=clock_delay)
    corr_cfg = _tcspc_correlator_config(cfg)
    hist = reverse_start_stop(detections, clock, corr_cfg,
                              remap_period_ps=int(round(period)))
    fit = None
    irf = None
    if cfg.tcspc.analysis == "irf":
        irf = measure_irf(hist)
    else:
        fit = fit_lifetime(hist, fix_sigma=cfg.lifetime.fix_sigma_ps,
                           weighted=cfg.lifetime.weighted)
    return TcspcResult(cfg, corr_cfg, clock_delay, hist, fit, irf)


def write_tcspc_artifacts(result, out_dir):
    cfg = result.config
    os.makedirs(out_dir, exist_ok=True)
    paths = {"histogram": os.path.join(out_dir, "histogram.csv")}
    write_histogram_csv(result.histogram, paths["histogram"])
    if result.irf is not None:
        record = {"irf_fwhm_ps": result.irf[0], "irf_center_ps": result.irf[1]}
        paths.update(_write_record(record, out_dir, "irf"))
    else:
        paths.update(_write_record(result.fit.record(), out_dir, "lifetime"))
    paths["config"] = _write_effective_config(cfg, out_dir, extra={
        "correlator": _correlator_lines(result.correlator_config),
        "tcspc": {
            "detector": cfg.tcspc.detector,
            "clock_delay_ps": result.clock_delay_ps,
            "analysis": cfg.tcspc.analysis,
        },
    })
    return paths


# ---------------------------------------------------------------------------
# detection-efficiency sweep


@dataclass(frozen=True)
class DeSweepResult:
    config: RunConfig
    f_hz: float
    points: tuple
    fit: object


def run_de_sweep(cfg, mu_values=None):
    """Laser -> programmable attenuator -> detector -> counter, per mu point.

    Each sweep point is an independent acquisition of
    de_sweep.pulses_per_point pulses of the source.mu laser behind an
    attenuator of transmission mu / source.mu, so every requested mu must
    be <= source.mu.  The attenuated laser is sampled directly as
    Poisson(mu) per pulse, which equals Bernoulli thinning of
    Poisson(source.mu) by mu / source.mu.
    """
    if cfg.de_sweep is None:
        raise ConfigError("de_sweep: section required for simulate-de-sweep")
    if not isinstance(cfg.source, PoissonLaserModel):
        raise ConfigError("source.type: de sweep requires the laser source")
    mu_values = tuple(mu_values if mu_values is not None else cfg.de_sweep.mu_values)
    if not mu_values:
        raise ConfigError("de_sweep.mu: no mu values given (config key or --mu)")
    mu0 = cfg.source.mu
    for mu in mu_values:
        if mu < 0:
            raise ConfigError(f"de_sweep.mu: negative value {mu}")
        if mu > mu0 * (1 + 1e-12):
            raise ConfigError(
                f"de_sweep.mu: {mu} exceeds the unattenuated source mu {mu0}"
            )
    detector_model = cfg.detector(cfg.de_sweep.detector, "de_sweep.detector")
    channel = _detector_channel(cfg, cfg.de_sweep.detector)
    n_pulses = cfg.de_sweep.pulses_per_point
    points = []
    for i, mu in enumerate(mu_values):
        attenuated = emit_laser_pulse_train(replace(cfg.source, mu=mu), n_pulses,
                                            derive_seed(cfg.seed, f"de.point{i}.source"))
        detections = detect(attenuated, detector_model,
                            derive_seed(cfg.seed, f"de.point{i}.detector"),
                            channel=channel)
        duration_s = detections.duration_ps * 1e-12
        points.append(DECalibrationPoint(mu, len(detections) / duration_s))
    f_hz = cfg.de.f_hz or cfg.source.rep_rate_hz
    fit = fit_de(points, f_hz, weighted=cfg.de.weighted)
    return DeSweepResult(cfg, f_hz, tuple(points), fit)


def write_de_sweep_artifacts(result, out_dir):
    cfg = result.config
    os.makedirs(out_dir, exist_ok=True)
    paths = {"sweep": os.path.join(out_dir, "sweep.csv")}
    write_de_sweep(result.points, paths["sweep"])
    paths.update(_write_record(result.fit.record(), out_dir, "de_fit"))
    paths["config"] = _write_effective_config(cfg, out_dir, extra={
        "de_sweep": {
            "detector": cfg.de_sweep.detector,
            "mu": ",".join(repr(p.mu) for p in result.points),
            "pulses_per_point": cfg.de_sweep.pulses_per_point,
        },
        "de": {"f_hz": result.f_hz, "weighted": cfg.de.weighted},
    })
    return paths


# ---------------------------------------------------------------------------
# records and effective-config echo


def format_record(record):
    """Flat key=value text, one line per documented key."""
    return "\n".join(f"{key}={_fmt_value(v)}" for key, v in record.items()) + "\n"


def _write_record(record, out_dir, stem):
    txt = os.path.join(out_dir, f"{stem}.txt")
    with open(txt, "w", newline="") as fh:
        fh.write(format_record(record))
    js = os.path.join(out_dir, f"{stem}.json")
    with open(js, "w", newline="") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {f"{stem}_txt": txt, f"{stem}_json": js}


def _correlator_lines(corr_cfg):
    return {
        "bin_width_ps": corr_cfg.bin_width_ps,
        "range_min_ps": corr_cfg.range_min_ps,
        "range_max_ps": corr_cfg.range_max_ps,
        "mode": corr_cfg.mode.name,
    }


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_config_text(cfg, extra=None):
    """Render the resolved configuration (defaults applied) as INI text."""
    sections = {"run": {"seed": cfg.seed, "n_pulses": cfg.n_pulses}}
    src = cfg.source
    if isinstance(src, PulsedSourceModel):
        p0, p1, p2 = src.photon_dist
        sections["source"] = {
            "type": "dot",
            "rep_rate_hz": src.rep_rate_hz,
            "lifetime_ps": src.lifetime_ps,
            "p0": p0, "p1": p1, "p2": p2,
            "wavelength_nm": src.wavelength_nm,
        }
    else:
        sections["source"] = {
            "type": "laser",
            "rep_rate_hz": src.rep_rate_hz,
            "mu": src.mu,
            "wavelength_nm": src.wavelength_nm,
        }
    sections["splitter"] = {"transmission": cfg.splitter.transmission}
    for name in sorted(cfg.detectors):
        det = cfg.detectors[name]
        sections[f"detector.{name}"] = {
            "efficiency": det.efficiency,
            "dark_rate_hz": det.dark_rate_hz,
            "jitter_fwhm_ps": det.jitter_fwhm_ps,
            "dead_time_ps": det.dead_time_ps,
        }
    if cfg.hbt is not None:
        sections["hbt"] = {"start": cfg.hbt.start, "stop": cfg.hbt.stop}
    if cfg.lifetime.fix_sigma_ps is not None or cfg.lifetime.weighted:
        sections["lifetime"] = {}
        if cfg.lifetime.fix_sigma_ps is not None:
            sections["lifetime"]["fix_sigma_ps"] = cfg.lifetime.fix_sigma_ps
        sections["lifetime"]["weighted"] = cfg.lifetime.weighted
    for name, values in (extra or {}).items():
        sections.setdefault(name, {}).update(values)
    out = []
    for name, values in sections.items():
        out.append(f"[{name}]")
        for key, value in values.items():
            out.append(f"{key} = {_fmt_value(value)}")
        out.append("")
    return "\n".join(out)


def _write_effective_config(cfg, out_dir, extra=None):
    path = os.path.join(out_dir, "effective_config.cfg")
    with open(path, "w", newline="") as fh:
        fh.write(effective_config_text(cfg, extra))
    return path
