"""Run configuration: a flat INI-style key=value file with section headers.

Example::

    [run]
    seed = 42
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

    [hbt]
    start = APD
    stop = SSPD

Sections beyond [run] and [source] are required only by the commands that
use them.  Each section is read into the dataclass it configures: a key
names a field, its value is parsed by the field's type, a field without
default is a required key, and a key or section that names nothing is an
error.  Every error reports the full path of the offending key.
`format_config` writes a config back in the same layout.
"""

import configparser
import enum
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_args

from .correlator import HistogramConfig, Mode, _as_ints
from .detectors import DetectorModel, sigma_to_fwhm
from .errors import ConfigError
from .sources import (PoissonLaserModel, PulsedSourceModel, pulse_period_ps,
                      solve_photon_stats)

DEFAULT_BIN_WIDTH_PS = 32


@dataclass(frozen=True)
class SplitRatio:
    """Probability that a photon exits arm B (arm A gets the rest)."""

    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission {self.transmission} outside [0, 1]")


@dataclass(frozen=True)
class HbtSettings:
    start: str
    stop: str

    def __post_init__(self):
        # one detector's stage would draw both arms' darks at the same times
        if self.start == self.stop:
            raise ConfigError(f"hbt.stop: the start and stop detectors must differ, "
                              f"both are {self.start!r}")


@dataclass(frozen=True)
class TcspcSettings:
    detector: str
    analysis: str = "lifetime"  # "lifetime" or "irf"

    def __post_init__(self):
        if self.analysis not in ("lifetime", "irf"):
            raise ConfigError(
                f"tcspc.analysis: expected 'lifetime' or 'irf', got {self.analysis!r}"
            )


@dataclass(frozen=True)
class DeSweepSettings:
    detector: str
    mu_values: tuple = field(default=(), metadata={"key": "mu"})
    pulses_per_point: int = 1_000_000

    def __post_init__(self):
        _as_ints(self, "pulses_per_point", error=ConfigError, where="de_sweep.")
        if self.pulses_per_point <= 0:
            raise ConfigError("de_sweep.pulses_per_point: must be > 0")


@dataclass(frozen=True)
class G2Settings:
    n_side_peaks: int = 20
    integration_halfwidth_ps: float | None = None

    def __post_init__(self):
        _as_ints(self, "n_side_peaks", error=ConfigError, where="g2.")
        if self.n_side_peaks < 2:
            raise ConfigError("g2.n_side_peaks: must be >= 2")


@dataclass(frozen=True)
class LifetimeSettings:
    fix_sigma_ps: float | None = None

    def __post_init__(self):
        if (self.fix_sigma_ps is not None
                and not 0 <= sigma_to_fwhm(self.fix_sigma_ps) < math.inf):
            raise ConfigError("lifetime.fix_sigma_ps: must be >= 0 with a finite FWHM, "
                              f"got {self.fix_sigma_ps}")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    n_pulses: int
    source: object  # PulsedSourceModel | PoissonLaserModel
    detectors: dict = field(default_factory=dict)
    splitter: SplitRatio = SplitRatio(0.5)
    correlator: HistogramConfig | None = None
    hbt: HbtSettings | None = None
    tcspc: TcspcSettings | None = None
    de_sweep: DeSweepSettings | None = None
    g2: G2Settings = G2Settings()
    lifetime: LifetimeSettings = LifetimeSettings()

    def __post_init__(self):
        _as_ints(self, "seed", "n_pulses", error=ConfigError, where="run.")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"run.seed: must be in [0, 2^64), got {self.seed}")
        if self.n_pulses <= 0:
            raise ConfigError("run.n_pulses: must be > 0")
        period = pulse_period_ps(self.source.rep_rate_hz)
        runs = {"run.n_pulses": self.n_pulses}
        if self.de_sweep is not None:
            runs["de_sweep.pulses_per_point"] = self.de_sweep.pulses_per_point
        for key, n in runs.items():
            # int64 ps timestamps, a run of one or more, int64 sums of the dot's gaps
            if not (1 <= n * period < 2**63 and n < 2**62):
                raise ConfigError(f"{key}: {n} pulses of {period} ps last outside "
                                  "[1, 2^63) ps, or number 2^62 or more")
        # numpy's Poisson sampler rejects means above ~9.2e18; 2^62 leaves
        # margin for the photons of a run (pipelines.MAX_HELD_TAGS bounds darks)
        longest = max(runs.values())
        if not getattr(self.source, "mu", 0) * longest < 2**62:
            raise ConfigError(f"source.mu: {self.source.mu} photons per pulse over "
                              f"{longest} pulses reach 2^62 photons")
        for section, key in [("hbt", "start"), ("hbt", "stop"), ("tcspc", "detector"),
                             ("de_sweep", "detector")]:  # the keys naming a detector
            settings = getattr(self, section)
            name = getattr(settings, key, None)
            if settings is not None and name not in self.detectors:
                raise ConfigError(f"{section}.{key}: unknown detector {name!r} (defined: "
                                  f"{', '.join(sorted(self.detectors)) or 'none'})")

    def with_seed(self, seed):
        return replace(self, seed=seed)


# [section] -> the settings class it configures, kept in the RunConfig field
# of the same name
_SETTINGS = {
    "splitter": SplitRatio,
    "hbt": HbtSettings,
    "tcspc": TcspcSettings,
    "de_sweep": DeSweepSettings,
    "g2": G2Settings,
    "lifetime": LifetimeSettings,
}


def parse_float_list(text):
    """'0.01, 0.1,1' -> (0.01, 0.1, 1.0); empty items are skipped."""
    return tuple(float(x) for x in text.replace(" ", "").split(",") if x)


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        value = float(text)  # also accepts 1e6
        if not value.is_integer():
            raise
        return int(value)


# field type -> (parser of the value text, what the text must be)
_PARSERS = {
    int: (_parse_int, "an integer"),
    float: (float, "a number"),
    str: (str, "a string"),
    tuple: (parse_float_list, "a comma-separated list"),
    Mode: (lambda text: Mode[text.strip().upper()], "FIRST_STOP or ALL_STOPS"),
}


def _checked(where, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a ConfigError at `where`."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


class _Section:
    """The keys of one config section, each taken once and parsed by type."""

    def __init__(self, name, raw):
        self.name = name
        self.raw = dict(raw)

    def take(self, key, kind, default=MISSING):
        if key not in self.raw:
            if default is MISSING:
                raise ConfigError(f"{self.name}.{key}: required key missing")
            return default
        text = self.raw.pop(key)
        parse, what = _PARSERS[kind]
        try:
            return parse(text)
        except (ValueError, KeyError):  # a Mode's name is looked up
            raise ConfigError(
                f"{self.name}.{key}: expected {what}, got {text!r}"
            ) from None

    def build(self, cls, **given):
        """A `cls` whose fields not in `given` come from the keys of the same
        name (or of the field's metadata "key"); keys left over are errors."""
        for f in fields(cls):
            if f.name not in given:
                kind = next(t for t in get_args(f.type) or (f.type,)
                            if t is not type(None))
                given[f.name] = self.take(f.metadata.get("key", f.name), kind,
                                          f.default)
        self.done()
        return _checked(self.name, cls, **given)

    def done(self):
        if self.raw:
            raise ConfigError(f"{self.name}.{next(iter(self.raw))}: unknown key")


def parse_config_text(text, origin="<config>"):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:  # on one line, as every config error is
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"{origin}: {message}") from exc
    sections = {name: _Section(name, parser[name]) for name in parser.sections()}

    run = sections.pop("run", None)
    if run is None:
        raise ConfigError("run: section missing")
    seed = run.take("seed", int)
    n_pulses = run.take("n_pulses", int)
    run.done()
    if "source" not in sections:
        raise ConfigError("source: section missing (exactly one source block required)")
    source = _parse_source(sections.pop("source"))

    detectors = {}
    for section in [s for s in sections if s.startswith("detector.")]:
        name = section.split(".", 1)[1]
        # names become output file names (detections_<NAME>.ttag)
        if not name or not all(c.isalnum() or c in "_-" for c in name):
            raise ConfigError(
                f"{section}: detector name must be nonempty [A-Za-z0-9_-]"
            )
        detectors[name] = sections.pop(section).build(DetectorModel)
    correlator = (_parse_correlator(sections.pop("correlator"))
                  if "correlator" in sections else None)
    settings = {name: sections.pop(name).build(cls)
                for name, cls in _SETTINGS.items() if name in sections}
    if sections:
        raise ConfigError(f"{next(iter(sections))}: unknown section")
    return RunConfig(seed, n_pulses, source, detectors, correlator=correlator,
                     **settings)


def load_config(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def _parse_source(sec):
    """[source] is the laser's fields, or the dot's with its photon statistics
    given as p0/p1/p2 or as g2_target + mean_n."""
    kind = sec.take("type", str)
    if kind == "laser":
        return sec.build(PoissonLaserModel)
    if kind != "dot":
        raise ConfigError(f"source.type: expected 'dot' or 'laser', got {kind!r}")
    explicit = {"p0", "p1", "p2"} & sec.raw.keys()
    derived = {"g2_target", "mean_n"} & sec.raw.keys()
    if explicit and derived:
        raise ConfigError("source: give either p0/p1/p2 or g2_target+mean_n, not both")
    if explicit:
        dist = tuple(sec.take(key, float) for key in ("p0", "p1", "p2"))
    elif derived:
        g2_target, mean_n = sec.take("g2_target", float), sec.take("mean_n", float)
        dist = _checked("source", solve_photon_stats, g2_target, mean_n)
    else:
        raise ConfigError("source: photon statistics missing "
                          "(p0/p1/p2 or g2_target+mean_n)")
    return sec.build(PulsedSourceModel, photon_dist=dist)


def _parse_correlator(sec):
    """[correlator] gives its range as range_min_ps/range_max_ps, or as
    range_halfwidth_ps for a symmetric window."""
    bin_width = sec.take("bin_width_ps", int, DEFAULT_BIN_WIDTH_PS)
    halfwidth = sec.take("range_halfwidth_ps", int, None)
    if halfwidth is None:
        return sec.build(HistogramConfig, bin_width_ps=bin_width)
    if {"range_min_ps", "range_max_ps"} & sec.raw.keys():
        raise ConfigError("correlator: give range_halfwidth_ps or range_min_ps/"
                          "range_max_ps, not both")
    mode = sec.take("mode", Mode, Mode.ALL_STOPS)
    sec.done()
    return _checked("correlator", HistogramConfig.symmetric, halfwidth, bin_width, mode)


def format_value(value):
    """Config and record value text; floats by repr, so they read back exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    if isinstance(value, enum.Enum):
        return value.name
    return str(value)


def _section_text(name, settings, skip=(), **first):
    """`[name]`, the `first` keys, then a key for each field of `settings`
    not in `skip`; a None field is unset and left out."""
    lines = [f"[{name}]"] + [f"{key} = {format_value(v)}" for key, v in first.items()]
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.name not in skip and value is not None:
            lines.append(f"{f.metadata.get('key', f.name)} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def format_config(cfg):
    """INI text of every section of `cfg`; parse_config_text reads it back
    to an equal config."""
    source = cfg.source
    kind = {PulsedSourceModel: "dot", PoissonLaserModel: "laser"}[type(source)]
    stats = dict(zip(("p0", "p1", "p2"), getattr(source, "photon_dist", ())))
    parts = [f"[run]\nseed = {cfg.seed}\nn_pulses = {cfg.n_pulses}\n",
             _section_text("source", source, ("photon_dist",), type=kind, **stats)]
    parts += [_section_text(f"detector.{name}", model)
              for name, model in sorted(cfg.detectors.items())]
    for name in ("correlator", *_SETTINGS):
        if getattr(cfg, name) is not None:
            parts.append(_section_text(name, getattr(cfg, name)))
    return "\n".join(parts)
