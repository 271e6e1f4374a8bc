"""Monte Carlo simulation and analysis of pulsed single-photon counting.

A pulsed single-photon source, beamsplitter, and jitter/dark-count/
dead-time-limited detectors produce picosecond timetag streams; the
analysis side reconstructs g2(0) from coincidence histograms, fits
spontaneous-emission lifetimes through a Gaussian instrument response,
and calibrates detection efficiency from Poissonian attenuation sweeps.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    DECalibrationPoint,
    G2Estimate,
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
# the public names: those bound above, less the submodules they bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
