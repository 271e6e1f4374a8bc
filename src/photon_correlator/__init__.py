"""Monte Carlo simulation and analysis of pulsed single-photon counting.

A pulsed single-photon source, beamsplitter, and jitter/dark-count/
dead-time-limited detectors produce picosecond timetag streams; the
analysis side reconstructs g2(0) from coincidence histograms, fits
spontaneous-emission lifetimes through a Gaussian instrument response,
and calibrates detection efficiency from Poissonian attenuation sweeps.
"""

from .analysis import (
    DECalibrationPoint,
    DEFit,
    G2Estimate,
    IrfFit,
    LifetimeFit,
    de_model,
    decay_model,
    fit_de,
    fit_lifetime,
    g2_zero,
    measure_irf,
    peak_fwhm,
    read_de_sweep,
    write_de_sweep,
)
from .config import RunConfig, SplitRatio, load_config, parse_config_text
from .correlator import (
    Histogram,
    HistogramConfig,
    Mode,
    read_histogram_csv,
    reverse_start_stop,
    tac_histogram,
    write_histogram_csv,
)
from .detectors import (
    BiasCurvePoint,
    DetectorModel,
    bias_lookup,
    fwhm_to_sigma,
    read_bias_curve,
    sigma_to_fwhm,
    write_bias_curve,
)
from .errors import AnalysisError, ConfigError, FormatError
from .sources import (
    PoissonLaserModel,
    PulsedSourceModel,
    pulse_period_ps,
    solve_photon_stats,
)
from .timetags import TagStream, read_tags, write_tags

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BiasCurvePoint",
    "ConfigError",
    "DECalibrationPoint",
    "DEFit",
    "DetectorModel",
    "FormatError",
    "G2Estimate",
    "Histogram",
    "HistogramConfig",
    "IrfFit",
    "LifetimeFit",
    "Mode",
    "PoissonLaserModel",
    "PulsedSourceModel",
    "RunConfig",
    "SplitRatio",
    "TagStream",
    "bias_lookup",
    "de_model",
    "decay_model",
    "fit_de",
    "fit_lifetime",
    "fwhm_to_sigma",
    "g2_zero",
    "load_config",
    "measure_irf",
    "parse_config_text",
    "peak_fwhm",
    "pulse_period_ps",
    "read_bias_curve",
    "read_de_sweep",
    "read_histogram_csv",
    "read_tags",
    "reverse_start_stop",
    "sigma_to_fwhm",
    "solve_photon_stats",
    "tac_histogram",
    "write_bias_curve",
    "write_de_sweep",
    "write_histogram_csv",
    "write_tags",
]
