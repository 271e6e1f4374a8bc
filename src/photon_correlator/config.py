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
use them; validation reports the full field path of any offending key.
"""

import configparser
from dataclasses import dataclass, field, replace

from .correlator import HistogramConfig, Mode
from .detectors import DetectorModel
from .errors import ConfigError
from .optics import SplitRatio
from .sources import PoissonLaserModel, PulsedSourceModel, solve_photon_stats


@dataclass(frozen=True)
class HbtSettings:
    start: str
    stop: str


@dataclass(frozen=True)
class TcspcSettings:
    detector: str
    clock_delay_ps: int | None = None
    analysis: str = "lifetime"  # "lifetime" or "irf"


@dataclass(frozen=True)
class DeSweepSettings:
    detector: str
    mu_values: tuple = ()
    pulses_per_point: int = 1_000_000


@dataclass(frozen=True)
class G2Settings:
    n_side_peaks: int = 20
    integration_halfwidth_ps: float | None = None
    rep_period_ps: float | None = None


@dataclass(frozen=True)
class LifetimeSettings:
    fix_sigma_ps: float | None = None
    weighted: bool = False


@dataclass(frozen=True)
class DeSettings:
    f_hz: float | None = None
    weighted: bool = False


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
    de: DeSettings = DeSettings()

    def with_seed(self, seed):
        return replace(self, seed=int(seed))

    def detector(self, name, where):
        try:
            return self.detectors[name]
        except KeyError:
            raise ConfigError(
                f"{where}: unknown detector {name!r} "
                f"(defined: {', '.join(sorted(self.detectors)) or 'none'})"
            ) from None


class _Section:
    """A config section with typed, path-reporting accessors."""

    def __init__(self, parser, name):
        self.name = name
        self._data = dict(parser[name]) if parser.has_section(name) else None

    @property
    def present(self):
        return self._data is not None

    def keys(self):
        return set(self._data or {})

    def raw(self, key, default=None):
        if self._data is None:
            return default
        return self._data.get(key, default)

    def _convert(self, key, conv, default, required, kind):
        value = self.raw(key)
        if value is None:
            if required:
                raise ConfigError(f"{self.name}.{key}: required key missing")
            return default
        try:
            return conv(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self.name}.{key}: expected {kind}, got {value!r}"
            ) from None

    def get_float(self, key, default=None, required=False):
        return self._convert(key, float, default, required, "a number")

    def get_int(self, key, default=None, required=False):
        def conv(v):
            f = float(v)
            if f != int(f):
                raise ValueError
            return int(f)
        return self._convert(key, conv, default, required, "an integer")

    def get_str(self, key, default=None, required=False):
        return self._convert(key, str, default, required, "a string")

    def get_bool(self, key, default=False):
        def conv(v):
            s = v.strip().lower()
            if s in ("true", "1", "yes", "on"):
                return True
            if s in ("false", "0", "no", "off"):
                return False
            raise ValueError
        return self._convert(key, conv, default, False, "a boolean")

    def get_float_list(self, key, default=None):
        return self._convert(key, parse_float_list, default, False,
                             "a comma-separated list")


def parse_float_list(text):
    """'0.01, 0.1,1' -> (0.01, 0.1, 1.0); empty items are skipped."""
    return tuple(float(x) for x in text.replace(" ", "").split(",") if x)


def parse_config_text(text, origin="<config>"):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    run = _Section(parser, "run")
    if not run.present:
        raise ConfigError("run: section missing")
    seed = run.get_int("seed", required=True)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed: must be in [0, 2^64), got {seed}")
    n_pulses = run.get_int("n_pulses", required=True)
    if n_pulses < 0:
        raise ConfigError("run.n_pulses: must be >= 0")

    source = _parse_source(_Section(parser, "source"))

    detectors = {}
    for section in parser.sections():
        if not section.startswith("detector."):
            continue
        name = section.split(".", 1)[1]
        # names become output file names (detections_<NAME>.ttag)
        if not name or not all(c.isalnum() or c in "_-" for c in name):
            raise ConfigError(
                f"{section}: detector name must be nonempty [A-Za-z0-9_-]"
            )
        sec = _Section(parser, section)
        try:
            detectors[name] = DetectorModel(
                name=name,
                efficiency=sec.get_float("efficiency", required=True),
                dark_rate_hz=sec.get_float("dark_rate_hz", 0.0),
                jitter_fwhm_ps=sec.get_float("jitter_fwhm_ps", 0.0),
                dead_time_ps=sec.get_int("dead_time_ps", 0),
            )
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    splitter = SplitRatio(0.5)
    split_sec = _Section(parser, "splitter")
    if split_sec.present:
        try:
            splitter = SplitRatio(split_sec.get_float("transmission", required=True))
        except ValueError as exc:
            raise ConfigError(f"splitter.transmission: {exc}") from exc

    correlator = _parse_correlator(_Section(parser, "correlator"))

    hbt = None
    hbt_sec = _Section(parser, "hbt")
    if hbt_sec.present:
        hbt = HbtSettings(
            start=hbt_sec.get_str("start", required=True),
            stop=hbt_sec.get_str("stop", required=True),
        )

    tcspc = None
    tcspc_sec = _Section(parser, "tcspc")
    if tcspc_sec.present:
        analysis = tcspc_sec.get_str("analysis", "lifetime")
        if analysis not in ("lifetime", "irf"):
            raise ConfigError(
                f"tcspc.analysis: expected 'lifetime' or 'irf', got {analysis!r}"
            )
        tcspc = TcspcSettings(
            detector=tcspc_sec.get_str("detector", required=True),
            clock_delay_ps=tcspc_sec.get_int("clock_delay_ps", None),
            analysis=analysis,
        )

    de_sweep = None
    sweep_sec = _Section(parser, "de_sweep")
    if sweep_sec.present:
        pulses = sweep_sec.get_int("pulses_per_point", 1_000_000)
        if pulses <= 0:
            raise ConfigError("de_sweep.pulses_per_point: must be > 0")
        de_sweep = DeSweepSettings(
            detector=sweep_sec.get_str("detector", required=True),
            mu_values=sweep_sec.get_float_list("mu", ()),
            pulses_per_point=pulses,
        )

    g2_sec = _Section(parser, "g2")
    g2 = G2Settings(
        n_side_peaks=g2_sec.get_int("n_side_peaks", 20),
        integration_halfwidth_ps=g2_sec.get_float("integration_halfwidth_ps", None),
        rep_period_ps=g2_sec.get_float("rep_period_ps", None),
    )
    if g2.n_side_peaks < 2:
        raise ConfigError("g2.n_side_peaks: must be >= 2")

    life_sec = _Section(parser, "lifetime")
    lifetime = LifetimeSettings(
        fix_sigma_ps=life_sec.get_float("fix_sigma_ps", None),
        weighted=life_sec.get_bool("weighted", False),
    )

    de_sec = _Section(parser, "de")
    de = DeSettings(
        f_hz=de_sec.get_float("f_hz", None),
        weighted=de_sec.get_bool("weighted", False),
    )

    cfg = RunConfig(
        seed=seed, n_pulses=n_pulses, source=source, detectors=detectors,
        splitter=splitter, correlator=correlator, hbt=hbt, tcspc=tcspc,
        de_sweep=de_sweep, g2=g2, lifetime=lifetime, de=de,
    )
    _check_references(cfg)
    return cfg


def load_config(path):
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def _parse_source(sec):
    if not sec.present:
        raise ConfigError("source: section missing (exactly one source block required)")
    kind = sec.get_str("type", required=True)
    if kind == "dot":
        rep = sec.get_float("rep_rate_hz", required=True)
        lifetime = sec.get_float("lifetime_ps", required=True)
        wavelength = sec.get_float("wavelength_nm", 902.0)
        explicit = {"p0", "p1", "p2"} & sec.keys()
        derived = {"g2_target", "mean_n"} & sec.keys()
        if explicit and derived:
            raise ConfigError(
                "source: give either p0/p1/p2 or g2_target+mean_n, not both"
            )
        if explicit:
            dist = (
                sec.get_float("p0", required=True),
                sec.get_float("p1", required=True),
                sec.get_float("p2", required=True),
            )
        elif derived:
            try:
                dist = solve_photon_stats(
                    sec.get_float("g2_target", required=True),
                    sec.get_float("mean_n", required=True),
                )
            except ValueError as exc:
                raise ConfigError(f"source: {exc}") from exc
        else:
            raise ConfigError("source: photon statistics missing "
                              "(p0/p1/p2 or g2_target+mean_n)")
        try:
            return PulsedSourceModel(rep, lifetime, dist, wavelength)
        except ValueError as exc:
            raise ConfigError(f"source: {exc}") from exc
    if kind == "laser":
        try:
            return PoissonLaserModel(
                rep_rate_hz=sec.get_float("rep_rate_hz", required=True),
                mu=sec.get_float("mu", required=True),
                wavelength_nm=sec.get_float("wavelength_nm", 1550.0),
            )
        except ValueError as exc:
            raise ConfigError(f"source: {exc}") from exc
    raise ConfigError(f"source.type: expected 'dot' or 'laser', got {kind!r}")


def _parse_correlator(sec):
    if not sec.present:
        return None
    bin_width = sec.get_int("bin_width_ps", 32)
    try:
        mode = Mode.parse(sec.get_str("mode", "ALL_STOPS"))
    except ValueError as exc:
        raise ConfigError(f"correlator.mode: {exc}") from exc
    halfwidth = sec.get_int("range_halfwidth_ps", None)
    rmin = sec.get_int("range_min_ps", None)
    rmax = sec.get_int("range_max_ps", None)
    try:
        if halfwidth is not None:
            if rmin is not None or rmax is not None:
                raise ConfigError(
                    "correlator: give range_halfwidth_ps or range_min_ps/"
                    "range_max_ps, not both"
                )
            return HistogramConfig.symmetric(halfwidth, bin_width, mode)
        if rmin is None or rmax is None:
            raise ConfigError(
                "correlator: need range_halfwidth_ps or both range_min_ps "
                "and range_max_ps"
            )
        return HistogramConfig(bin_width, rmin, rmax, mode)
    except ValueError as exc:
        raise ConfigError(f"correlator: {exc}") from exc


def _check_references(cfg):
    if cfg.hbt is not None:
        cfg.detector(cfg.hbt.start, "hbt.start")
        cfg.detector(cfg.hbt.stop, "hbt.stop")
    if cfg.tcspc is not None:
        cfg.detector(cfg.tcspc.detector, "tcspc.detector")
    if cfg.de_sweep is not None:
        cfg.detector(cfg.de_sweep.detector, "de_sweep.detector")
