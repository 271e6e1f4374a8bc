"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 input format error,
4 analysis failure (fit non-convergence or data the requested analysis
cannot use).
"""

import argparse
import os
import sys
from dataclasses import replace

from .analysis import fit_de, fit_lifetime, g2_zero, measure_irf, read_de_sweep
from .config import format_value, load_config, parse_float_list
from .correlator import read_histogram_csv
from .errors import AnalysisError, ConfigError, FormatError
from .pipelines import (
    run_de_sweep,
    run_hbt,
    run_tcspc,
    write_de_sweep_artifacts,
    write_hbt_artifacts,
    write_tcspc_artifacts,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_FIT = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="photon-correlator",
        description="Simulate and analyze pulsed single-photon counting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config file (INI key=value)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        return p

    add_sim("simulate-hbt",
            "beamsplitter + two detectors; writes timetags, histogram, g2 record")
    add_sim("simulate-tcspc",
            "reverse start-stop lifetime run; writes histogram and fit record")
    p = add_sim("simulate-de-sweep",
                "attenuation sweep of the calibration laser; writes sweep CSV and fit")
    p.add_argument("--mu", default=None, type=parse_float_list,
                   help="comma-separated mean photon numbers, overriding the config")

    pa = sub.add_parser("analyze", help="offline analysis of recorded files")
    asub = pa.add_subparsers(dest="analysis", required=True)

    g2p = asub.add_parser("g2", help="zero-delay correlation from a histogram CSV")
    g2p.add_argument("--hist", required=True)
    g2p.add_argument("--rep-period-ps", type=float, required=True)
    g2p.add_argument("--side-peaks", type=int, default=20)
    g2p.add_argument("--halfwidth-ps", type=float, default=None,
                     help="integration half-width (default: period/2 minus one bin)")

    lp = asub.add_parser("lifetime", help="decay fit of a histogram CSV")
    lp.add_argument("--hist", required=True)
    lp.add_argument("--fix-sigma-ps", type=float, default=None)

    dp = asub.add_parser("de", help="efficiency/dark fit of a sweep CSV")
    dp.add_argument("--sweep", required=True)
    dp.add_argument("--f-hz", type=float, required=True)

    ip = asub.add_parser("irf", help="Gaussian IRF fit of a histogram CSV")
    ip.add_argument("--hist", required=True)

    return parser


def _load_run_config(args):
    """The --config file with the --seed and --mu overrides applied."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if getattr(args, "mu", None) is not None and cfg.de_sweep is not None:
        cfg = replace(cfg, de_sweep=replace(cfg.de_sweep, mu_values=args.mu))
    return cfg


def _report(record):
    """Print `record` as key=value lines; exit code 4 if its fit did not converge."""
    for key, value in record.items():
        print(f"{key}={format_value(value)}")
    return EXIT_OK if record.get("converged", True) else EXIT_FIT


SIMULATIONS = {
    "simulate-hbt": (run_hbt, write_hbt_artifacts),
    "simulate-tcspc": (run_tcspc, write_tcspc_artifacts),
    "simulate-de-sweep": (run_de_sweep, write_de_sweep_artifacts),
}


def _cmd_simulate(args):
    run, write = SIMULATIONS[args.command]
    # an --out that cannot become a directory fails before the run, creating
    # nothing; a write that fails later, on a full disk say, is caught below
    if not args.out:  # abspath would make "" the working directory
        raise ConfigError("--out must name a directory, got ''")
    path = os.path.abspath(args.out)
    while not os.path.lexists(path):  # up to its nearest existing ancestor
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write {args.out}: {path} is not a directory")
    result = run(_load_run_config(args))
    try:
        paths = write(result, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or args.out}: "
                          f"{exc.strerror or exc}") from exc
    code = _report(result.record())
    print(f"wrote {len(paths)} files to {args.out}")
    return code


def _read_input(reader, path):
    try:
        return reader(path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _cmd_analyze(args):
    if args.analysis == "de":
        return _report(fit_de(_read_input(read_de_sweep, args.sweep), args.f_hz).record())
    hist = _read_input(read_histogram_csv, args.hist)
    if args.analysis == "g2":
        return _report(g2_zero(hist, args.rep_period_ps,
                               integration_halfwidth_ps=args.halfwidth_ps,
                               n_side_peaks=args.side_peaks).record())
    if args.analysis == "lifetime":
        return _report(fit_lifetime(hist, fix_sigma=args.fix_sigma_ps).record())
    return _report(measure_irf(hist).record())


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _cmd_analyze if args.command == "analyze" else _cmd_simulate
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
