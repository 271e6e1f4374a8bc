"""Physics oracles for each workload's output directory.

Each oracle reads what a `simulate-*` run wrote and returns a list of
problems (empty when the output passes).  Targets come from the run
config; tolerances are those of the acceptance suite.  Oracles run
outside every timed region.
"""

import dataclasses
import json

import numpy as np

from photon_correlator import (
    AnalysisError,
    Mode,
    g2_zero,
    pulse_period_ps,
    read_histogram_csv,
    read_tags,
    tac_histogram,
)


# What reading or analysing a broken output directory can raise.
OUTPUT_ERRORS = (OSError, KeyError, ValueError, AnalysisError)


def _record(out_dir, stem):
    with open(out_dir / f"{stem}.json") as fh:
        return json.load(fh)


def _within(label, value, target, tolerance):
    if abs(value - target) <= tolerance:
        return []
    return [f"{label} = {value!r}, expected {target!r} +/- {tolerance!r}"]


def check_hbt_tac(cfg, out_dir):
    """FIRST_STOP g2(0) is biased by pile-up, so re-correlate the written
    TTAG1 streams in ALL_STOPS mode: Poissonian light gives g2(0) = 1 +/- 0.05,
    and no FIRST_STOP bin may exceed its ALL_STOPS bin."""
    starts = read_tags(out_dir / f"detections_{cfg.hbt.start}.ttag")
    stops = read_tags(out_dir / f"detections_{cfg.hbt.stop}.ttag")
    all_stops = tac_histogram(starts, stops,
                              dataclasses.replace(cfg.correlator, mode=Mode.ALL_STOPS))
    est = g2_zero(all_stops, pulse_period_ps(cfg.source.rep_rate_hz),
                  integration_halfwidth_ps=cfg.g2.integration_halfwidth_ps,
                  n_side_peaks=cfg.g2.n_side_peaks)
    problems = _within("ALL_STOPS g2(0)", est.g2_zero, 1.0, 0.05)
    first_stop = read_histogram_csv(out_dir / "histogram.csv")
    if not np.array_equal(first_stop.bin_starts(), all_stops.bin_starts()):
        problems.append("FIRST_STOP histogram bins differ from the correlator config")
    elif np.any(first_stop.counts > all_stops.counts):
        n = int(np.count_nonzero(first_stop.counts > all_stops.counts))
        problems.append(f"{n} FIRST_STOP bins exceed their ALL_STOPS counts")
    return problems


def check_tcspc_lifetime(cfg, out_dir):
    """Fitted tau within 2 % and IRF FWHM within 5 % of the model, converged."""
    rec = _record(out_dir, "lifetime")
    tau = cfg.source.lifetime_ps
    jitter = cfg.detectors[cfg.tcspc.detector].jitter_fwhm_ps
    problems = [] if rec["converged"] else ["lifetime fit did not converge"]
    problems += _within("tau_ps", rec["tau_ps"], tau, 0.02 * tau)
    problems += _within("irf_fwhm_ps", rec["irf_fwhm_ps"], jitter, 0.05 * jitter)
    return problems


def check_de_sweep(cfg, out_dir):
    """Fitted efficiency within 5 % and dark rate within 10 %, converged."""
    rec = _record(out_dir, "de_fit")
    det = cfg.detectors[cfg.de_sweep.detector]
    problems = [] if rec["converged"] else ["DE fit did not converge"]
    problems += _within("eta", rec["eta"], det.efficiency, 0.05 * det.efficiency)
    problems += _within("dark_rate_hz", rec["dark_rate_hz"], det.dark_rate_hz,
                        0.10 * det.dark_rate_hz)
    return problems
