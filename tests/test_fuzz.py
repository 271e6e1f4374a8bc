"""The standing fuzz gate: every config key and every `analyze` flag, set to
extreme or malformed values, ends in a documented exit with valid records.

Keys are drawn from the classes each config section is read into, so a new
key is fuzzed without editing this file.  The runs are the perfbench configs
with their pulse counts pinned small; the tokens are chosen so that a run
the config accepts stays small (a 1e-3 Hz rep rate, say, is legal and draws
1e8 dark counts, so no token is that low).
"""

import argparse
import configparser
import contextlib
import io
import json
import math
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from photon_correlator import (AnalysisError, BiasCurvePoint, DetectorModel, Histogram,
                               HistogramConfig, PoissonLaserModel, PulsedSourceModel,
                               bias_lookup, g2_zero, read_histogram_csv,
                               solve_photon_stats)
from photon_correlator.cli import build_parser, main
from photon_correlator.config import _SETTINGS

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

TOKENS = ["0", "-1", "5e-324", "0.5", "3", "1e9", "1e300", "1.7e308",
          "9223372036854775808", "inf", "nan", "abc"]

# the pulse counts each run is pinned to
PINNED = {("run", "n_pulses"): "100", ("de_sweep", "pulses_per_point"): "1"}

COMMANDS = {"hbt_tac": "simulate-hbt", "tcspc_lifetime": "simulate-tcspc",
            "de_sweep": "simulate-de-sweep"}


def _keys(cls, skip=()):
    return [f.metadata.get("key", f.name) for f in fields(cls) if f.name not in skip]


# section -> the keys its classes read; a dot source also takes its photon
# statistics as p0/p1/p2 or g2_target + mean_n
SECTION_KEYS = {
    "run": ["seed", "n_pulses"],
    "source": ["type", "p0", "p1", "p2", "g2_target", "mean_n",
               *_keys(PulsedSourceModel, ("photon_dist",)), *_keys(PoissonLaserModel)],
    "detector": _keys(DetectorModel),
    "correlator": ["range_halfwidth_ps", *_keys(HistogramConfig)],
    **{name: _keys(cls) for name, cls in _SETTINGS.items()},
}
SECTION_KEYS = {section: sorted(set(keys) - {key for s, key in PINNED if s == section})
                for section, keys in SECTION_KEYS.items()}


def _base(name):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(BENCH_CONFIGS / f"{name}.cfg")
    for section, key in PINNED:
        if parser.has_section(section):
            parser[section][key] = PINNED[section, key]
    return parser


# settings sections whose keys all have defaults, so any config may hold them
OPTIONAL = sorted(name for name, cls in _SETTINGS.items()
                  if all(f.default is not MISSING for f in fields(cls)))


@st.composite
def edits(draw, parser):
    """One or two (section, key, token) settings for `parser`'s config, each
    in one of its sections or in an optional one."""
    sections = sorted(set(parser.sections()) | set(OPTIONAL))
    out = []
    for _ in range(draw(st.integers(1, 2))):
        section = draw(st.sampled_from(sections))
        keys = SECTION_KEYS[section.split(".")[0]]  # detector.<NAME> -> detector
        out.append((section, draw(st.sampled_from(keys)), draw(st.sampled_from(TOKENS))))
    return out


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def check_exit(code, stderr):
    """A documented exit: 2 and 3 say why in one line, and 4 does unless a
    fit's record says converged=false."""
    assert code in (0, 2, 3, 4)
    n_lines = len(stderr.splitlines())
    assert n_lines == (code in (2, 3)) or code == 4 and n_lines <= 1


def check_record(record, hist=None):
    """A converged record holds finite values, and an IRF centre lies inside
    the histogram it was fitted to."""
    if record.get("converged") is not True:
        return
    assert all(math.isfinite(v) for v in record.values()
               if isinstance(v, (int, float)) and not isinstance(v, bool))
    if "irf_center_ps" in record:
        cfg = hist.config
        assert cfg.range_min_ps <= record["irf_center_ps"] < cfg.range_max_ps


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_config_key_ends_in_a_documented_exit(name, data):
    parser = _base(name)
    for section, key, token in data.draw(edits(parser)):
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = token
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        with open(cfg_path, "w") as fh:
            parser.write(fh)
        code, _, err = run_main([COMMANDS[name], "--config", str(cfg_path),
                                 "--out", str(out)])
        check_exit(code, err)
        assert out.exists() == (code in (0, 4) and not err)
        hist = (read_histogram_csv(out / "histogram.csv")
                if (out / "histogram.csv").exists() else None)
        for path in out.glob("*.json") if out.exists() else ():
            check_record(json.loads(path.read_text(), parse_constant=_no_constant), hist)


@pytest.fixture(scope="session")
def analyze_inputs(tmp_path_factory):
    """A histogram of each kind and a sweep, made by small simulate runs."""
    base = tmp_path_factory.mktemp("fuzz_inputs")
    inputs = {}
    for name, command in COMMANDS.items():
        parser = _base(name)
        if name == "de_sweep":
            parser["de_sweep"]["pulses_per_point"] = "10000"
        else:
            parser["run"]["n_pulses"] = "100000"
        cfg_path, out = base / f"{name}.cfg", base / name
        with open(cfg_path, "w") as fh:
            parser.write(fh)
        assert run_main([command, "--config", str(cfg_path), "--out", str(out)])[0] == 0
        inputs[name] = out / ("sweep.csv" if name == "de_sweep" else "histogram.csv")
    inputs["missing"] = base / "missing.csv"
    return inputs


def _choices(parser):
    """The subcommand parsers of `parser`."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _accepts(action, token):
    try:
        (action.type or str)(token)
    except ValueError:
        return False
    return True


# analyze subcommand -> its options: --hist/--sweep take an input file, every
# other option a token its type accepts (argparse rejects the rest itself)
SUBCOMMANDS = {
    name: [(action.option_strings[0], action.required,
            [t for t in TOKENS if _accepts(action, t)])
           for action in sub._actions if action.option_strings and action.dest != "help"]
    for name, sub in _choices(_choices(build_parser())["analyze"]).items()
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=75, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_analyze_flag_ends_in_a_documented_exit(analyze_inputs, command, data):
    argv, path = ["analyze", command], None
    for flag, required, tokens in SUBCOMMANDS[command]:
        if flag in ("--hist", "--sweep"):
            # a file of the kind the flag reads, or none
            names = ["de_sweep"] if flag == "--sweep" else ["hbt_tac", "tcspc_lifetime"]
            name = data.draw(st.sampled_from([*names, "missing"]))
            path = analyze_inputs[name]
            argv += [flag, str(path)]
        elif required or data.draw(st.booleans()):
            argv += [flag, data.draw(st.sampled_from(tokens))]
    code, stdout, err = run_main(argv)
    check_exit(code, err)
    assert bool(stdout) == (code == 0 or code == 4 and not err)
    record = {key: _stdout_value(value)
              for key, value in (line.split("=", 1) for line in stdout.splitlines())}
    check_record(record, read_histogram_csv(path) if "irf_center_ps" in record else None)


def _stdout_value(text):
    """A key=value value: true, false, an int or a float (inf and nan included)."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


# ---------------------------------------------------------------------------
# library entry points that take floats


CURVE = (BiasCurvePoint(0.5, 0.1, 10.0), BiasCurvePoint(0.9, 0.8, 1000.0))
FLAT = Histogram(HistogramConfig.symmetric(128064, 32), np.ones(8004, dtype=np.int64), 1)

# name -> (call of two floats, test of its result, its documented exception)
ENTRY_POINTS = {
    "solve_photon_stats": (
        solve_photon_stats,
        lambda p: all(0 <= v <= 1 for v in p) and abs(sum(p) - 1) <= 1e-9, ValueError),
    "bias_lookup": (
        lambda a, b: bias_lookup(CURVE, a),
        lambda r: 0.1 <= r[0] <= 0.8 and 10 <= r[1] <= 1000, ValueError),
    "HistogramConfig.symmetric": (
        HistogramConfig.symmetric,
        lambda c: 0 < c.range_max_ps == -c.range_min_ps and c.bin_width_ps > 0, ValueError),
    "g2_zero": (
        lambda a, b: g2_zero(FLAT, a, n_side_peaks=b),
        lambda e: 0 <= e.g2_zero < math.inf and 0 <= e.sigma < math.inf, AnalysisError),
}
ODD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0, 2.5, 3.0,
                     0.1, 0.7, 12195.0, 1e308, -1e308, 2, 20]),
    st.floats())


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), ODD_FLOATS, ODD_FLOATS)
@example("solve_photon_stats", math.nan, 0.1)
@example("solve_photon_stats", 0.1, math.nan)
@example("solve_photon_stats", 0.0, math.inf)
@example("bias_lookup", math.nan, 0.0)
@example("HistogramConfig.symmetric", math.inf, 32)
@example("g2_zero", 12195.0, 3.0)
@example("g2_zero", 12195.0, 2.5)
@example("g2_zero", 12195.0, 3)
def test_entry_points_take_any_float(name, a, b):
    """NaN, infinities, subnormals, -0.0 and non-integers give a valid result
    or the entry point's documented exception, nothing else."""
    call, valid, error = ENTRY_POINTS[name]
    try:
        result = call(a, b)
    except error:
        return
    assert valid(result)
