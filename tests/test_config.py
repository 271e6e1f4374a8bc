import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from photon_correlator import (
    ConfigError,
    DetectorModel,
    Mode,
    PoissonLaserModel,
    PulsedSourceModel,
    parse_config_text,
)
from photon_correlator.config import format_config, load_config

import test_acceptance
import test_cli
import test_pipelines

GOOD = """
[run]
seed = 42
n_pulses = 1000

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

[detector.SSPD]
efficiency = 0.02
dark_rate_hz = 100
jitter_fwhm_ps = 170
dead_time_ps = 10000

[correlator]
bin_width_ps = 32
range_halfwidth_ps = 48780
mode = ALL_STOPS

[hbt]
start = APD
stop = SSPD
"""


# every section kind, GOOD's dot source included
FULL = GOOD + """
[tcspc]
detector = SSPD

[de_sweep]
detector = SSPD
mu = 0.01, 0.1

[g2]
n_side_peaks = 20

[lifetime]
fix_sigma_ps = 72.2
"""

LASER = """
[run]
seed = 1
n_pulses = 10

[source]
type = laser
rep_rate_hz = 100e3
mu = 10
"""

MIN_MAX = GOOD.replace("range_halfwidth_ps = 48780",
                       "range_min_ps = -320\nrange_max_ps = 320")


def test_parses_full_config():
    cfg = parse_config_text(GOOD)
    assert cfg.seed == 42
    assert cfg.n_pulses == 1000
    assert isinstance(cfg.source, PulsedSourceModel)
    assert cfg.source.photon_dist[2] == pytest.approx(0.0012)
    assert set(cfg.detectors) == {"APD", "SSPD"}
    assert cfg.detectors["SSPD"].dead_time_ps == 10000
    assert cfg.splitter.transmission == 0.5
    assert cfg.correlator.mode is Mode.ALL_STOPS
    assert cfg.correlator.range_max_ps % 32 == 0
    assert cfg.hbt.start == "APD"


def test_laser_source():
    cfg = parse_config_text("""
[run]
seed = 1
n_pulses = 10

[source]
type = laser
rep_rate_hz = 100e3
mu = 10
""")
    assert isinstance(cfg.source, PoissonLaserModel)
    assert cfg.source.mu == 10.0


def test_missing_run_section():
    with pytest.raises(ConfigError, match="run: section missing"):
        parse_config_text("[source]\ntype = laser\nrep_rate_hz = 1\nmu = 1\n")


def test_missing_seed_field_path():
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config_text("[run]\nn_pulses = 5\n[source]\ntype = laser\n"
                          "rep_rate_hz = 1\nmu = 1\n")


def test_bad_number_reports_path():
    bad = GOOD.replace("efficiency = 0.38", "efficiency = lots")
    with pytest.raises(ConfigError, match="detector.APD.efficiency"):
        parse_config_text(bad)


def test_out_of_range_efficiency():
    bad = GOOD.replace("efficiency = 0.38", "efficiency = 1.38")
    with pytest.raises(ConfigError, match="detector.APD"):
        parse_config_text(bad)


@pytest.mark.parametrize(("n_pulses", "refused"), [(2**62 - 1, False), (2**62, True)])
def test_pulse_count_is_below_2_62(n_pulses, refused):
    """At 1e13 Hz, 2^62 pulses last 4.6e17 ps, inside int64, but the dot's
    sums of gaps between pulse indices need fewer pulses than 2^62."""
    text = GOOD.replace("n_pulses = 1000", f"n_pulses = {n_pulses}").replace(
        "rep_rate_hz = 82e6", "rep_rate_hz = 1e13")
    if refused:
        with pytest.raises(ConfigError, match="run.n_pulses: "):
            parse_config_text(text)
    else:
        assert parse_config_text(text).n_pulses == n_pulses


def test_missing_source():
    with pytest.raises(ConfigError, match="source: section missing"):
        parse_config_text("[run]\nseed = 1\nn_pulses = 5\n")


def test_unknown_source_type():
    with pytest.raises(ConfigError, match="source.type"):
        parse_config_text("[run]\nseed = 1\nn_pulses = 5\n"
                          "[source]\ntype = led\n")


def test_ambiguous_photon_stats():
    bad = GOOD.replace("g2_target = 0.24", "g2_target = 0.24\np0 = 0.9")
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(bad)


def test_infeasible_photon_stats():
    bad = GOOD.replace("mean_n = 0.1", "mean_n = 3")
    with pytest.raises(ConfigError, match="infeasible"):
        parse_config_text(bad)


def test_photon_stats_whose_square_overflows_are_infeasible():
    # mean_n**2 is past the float range, which Python floats raise on
    bad = GOOD.replace("g2_target = 0.24", "g2_target = 0.1").replace(
        "mean_n = 0.1", "mean_n = 1e200")
    with pytest.raises(ConfigError, match=r"^source: infeasible .*mean_n=1e\+200"):
        parse_config_text(bad)


# the line of FULL that names a detector, for each key that names one, in
# the order RunConfig checks them
DETECTOR_LINES = {"hbt.start": "start = APD", "hbt.stop": "stop = SSPD",
                  "tcspc.detector": "[tcspc]\ndetector = SSPD",
                  "de_sweep.detector": "[de_sweep]\ndetector = SSPD"}


@pytest.mark.parametrize("first", range(len(DETECTOR_LINES)), ids=list(DETECTOR_LINES))
def test_unresolved_detector_reference(first):
    """With a key and every key checked after it naming no detector, the
    error names that key."""
    bad = FULL
    for i, line in enumerate(list(DETECTOR_LINES.values())[first:], first):
        assert bad.count(line) == 1
        bad = bad.replace(line, f"{line.rsplit(' = ', 1)[0]} = TES{i}")
    key = list(DETECTOR_LINES)[first]
    with pytest.raises(ConfigError, match=re.escape(
            f"{key}: unknown detector 'TES{first}' (defined: APD, SSPD)") + "$"):
        parse_config_text(bad)
    with pytest.raises(ConfigError, match=re.escape("(defined: none)") + "$"):
        parse_config_text(re.sub(r"\[detector\.\w+\]\n(\w+ = .*\n)*", "", bad))


def test_a_detector_is_named_by_its_key_alone():
    cfg = parse_config_text(GOOD)
    cfg = replace(cfg, detectors={"DET": cfg.detectors["APD"], "SSPD": cfg.detectors["SSPD"]},
                  hbt=replace(cfg.hbt, start="DET"))
    assert "[detector.DET]\n" in format_config(cfg)
    assert parse_config_text(format_config(cfg)) == cfg


@pytest.mark.parametrize("text, mode", [("first_stop", Mode.FIRST_STOP),
                                        ("FIRST_STOP", Mode.FIRST_STOP),
                                        ("All_Stops", Mode.ALL_STOPS)])
def test_mode_parse(text, mode):
    cfg = parse_config_text(GOOD.replace("mode = ALL_STOPS", f"mode = {text}"))
    assert cfg.correlator.mode is mode
    with pytest.raises(ConfigError, match="^correlator.mode: expected FIRST_STOP or "
                                          "ALL_STOPS, got 'bogus'$"):
        parse_config_text(GOOD.replace("mode = ALL_STOPS", "mode = bogus"))


def test_correlator_requires_range():
    bad = GOOD.replace("range_halfwidth_ps = 48780", "")
    with pytest.raises(ConfigError, match="correlator"):
        parse_config_text(bad)


def test_correlator_indivisible_range():
    cfg_text = GOOD.replace(
        "range_halfwidth_ps = 48780",
        "range_min_ps = -100\nrange_max_ps = 110",
    )
    with pytest.raises(ConfigError, match="divisible"):
        parse_config_text(cfg_text)


def test_seed_override():
    cfg = parse_config_text(GOOD)
    assert cfg.with_seed(7).seed == 7
    assert cfg.with_seed(7).n_pulses == cfg.n_pulses
    with pytest.raises(ConfigError, match="run.seed must be an integer, got 7.5"):
        cfg.with_seed(7.5)  # not truncated to seed 7


def test_tcspc_analysis_choice():
    text = GOOD + "\n[tcspc]\ndetector = SSPD\nanalysis = irf\n"
    cfg = parse_config_text(text)
    assert cfg.tcspc.analysis == "irf"
    with pytest.raises(ConfigError, match="tcspc.analysis"):
        parse_config_text(GOOD + "\n[tcspc]\ndetector = SSPD\nanalysis = magic\n")


def test_de_sweep_parsing():
    text = GOOD + "\n[de_sweep]\ndetector = SSPD\nmu = 0.01, 0.1,1\n"
    cfg = parse_config_text(text)
    assert cfg.de_sweep.mu_values == (0.01, 0.1, 1.0)
    assert cfg.de_sweep.pulses_per_point == 1_000_000


def test_detector_name_restricted_to_filename_safe():
    bad = GOOD.replace("[detector.APD]", "[detector.A/PD]")
    with pytest.raises(ConfigError, match="detector name"):
        parse_config_text(bad)


def test_readme_hbt_example_loads():
    # the README's INI blocks, inline comments included, are meant to be
    # copied as-is: the full HBT block, then the TCSPC, DE-sweep and laser
    # blocks added to it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"A full HBT example:\s*```ini\n(.*?)```", readme, re.S).group(1)
    tcspc, de, laser = re.findall(r"```ini\n(.*?)```", readme, re.S)[1:4]
    cfg = parse_config_text(block)
    assert cfg.n_pulses == 10_000_000
    assert isinstance(cfg.source, PulsedSourceModel)
    assert cfg.splitter.transmission == 0.5
    assert cfg.correlator.range_max_ps == 128_064
    assert cfg.correlator.mode is Mode.ALL_STOPS
    assert (cfg.hbt.start, cfg.hbt.stop) == ("APD", "SSPD")
    assert cfg.g2.n_side_peaks == 20

    cfg = parse_config_text(block + tcspc)
    assert (cfg.tcspc.detector, cfg.tcspc.analysis) == ("SSPD", "lifetime")
    assert cfg.lifetime.fix_sigma_ps is None

    assert laser.startswith("[source]\n")
    laser_hbt = re.sub(r"\[source\]\n.*?\n\n", laser + "\n", block, flags=re.S)
    cfg = parse_config_text(laser_hbt + de)
    assert cfg.source == PoissonLaserModel(100e3, 10.0, 1550.0)
    assert cfg.de_sweep.detector == "SSPD"
    assert cfg.de_sweep.mu_values == (0.001, 0.01, 0.1, 1.0, 10.0)
    assert cfg.de_sweep.pulses_per_point == 1_000_000

    checked = [key for base, text in (("", block), (block, tcspc), (laser_hbt, de))
               for key in commented_keys_load(base, text)]
    assert "lifetime.fix_sigma_ps" in checked


def commented_keys_load(base, block):
    """Each `# key = value` line of `block`, uncommented and appended to
    `base`, names a key its section accepts: the config loads, or fails on
    that key's value.  Returns the `section.key` of each line checked."""
    lines = block.splitlines(keepends=True)
    section, checked = None, []
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip()[1:-1]
        key = re.match(r"#\s*(\w+)\s*=", line)
        if key:
            where = f"{section}.{key.group(1)}"
            text = base + "".join(lines[:i] + [line.lstrip("# ")] + lines[i + 1:])
            try:
                parse_config_text(text)
            except ConfigError as exc:
                assert str(exc).startswith(f"{where}: expected "), str(exc)
            checked.append(where)
    return checked


@pytest.mark.parametrize("text, section, key", [
    (FULL, "run", "n_pulse"),
    (FULL, "source", "lifetime"),
    (LASER, "source", "lifetime_ps"),
    (FULL, "splitter", "transmision"),
    (FULL, "detector.APD", "dead_tme_ps"),
    (FULL, "correlator", "range_halfwidth"),
    (MIN_MAX, "correlator", "range_maximum_ps"),
    (FULL, "hbt", "strat"),
    (FULL, "tcspc", "clock_dealy_ps"),
    (FULL, "de_sweep", "pulses"),
    (FULL, "g2", "n_side_peak"),
    (FULL, "lifetime", "fix_sigma"),
    # values that follow from source.rep_rate_hz are not keys
    (FULL, "g2", "rep_period_ps"),
    (FULL, "tcspc", "clock_delay_ps"),
])
def test_unknown_key_is_rejected(text, section, key):
    bad = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 10000\n")
    assert bad != text
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: unknown key"):
        parse_config_text(bad)


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match=r"^tcpsc: unknown section"):
        parse_config_text(FULL + "\n[tcpsc]\ndetector = SSPD\n")


def test_integer_keys_are_exact():
    big = 2**64 - 1  # above 2^53, where a float would round it
    assert parse_config_text(LASER.replace("seed = 1", f"seed = {big}")).seed == big
    assert parse_config_text(LASER.replace("n_pulses = 10", "n_pulses = 1e3")).n_pulses == 1000
    for bad in ("inf", "nan", "1.5"):
        with pytest.raises(ConfigError, match="run.seed: expected an integer"):
            parse_config_text(LASER.replace("seed = 1", f"seed = {bad}"))


@pytest.mark.parametrize("section, key", [(None, "seed"), (None, "n_pulses"),
                                          ("de_sweep", "pulses_per_point"),
                                          ("g2", "n_side_peaks")])
def test_integer_fields_must_be_integers(section, key):
    """A float or a string is refused, not truncated, when a config is built
    in code; a numpy int is stored as an int, so the echo reruns."""
    cfg = parse_config_text(test_cli.DE_CFG)
    owner = cfg if section is None else getattr(cfg, section)
    where = f"{section or 'run'}.{key}"
    with pytest.raises(ConfigError, match=f"{where} must be an integer, got 1000.5"):
        replace(owner, **{key: 1000.5})
    with pytest.raises(ConfigError, match=f"{where} must be an integer, got '1000'"):
        replace(owner, **{key: "1000"})
    with pytest.raises(ConfigError, match=where):
        replace(owner, **{key: float("inf")})
    owner = replace(owner, **{key: np.int64(1000)})
    assert type(getattr(owner, key)) is int
    cfg = owner if section is None else replace(cfg, **{section: owner})
    assert parse_config_text(format_config(cfg)) == cfg


def test_fractional_dead_time_is_stored_and_echoed_rounded_up():
    """A library model's dead time is stored as the whole picoseconds the
    filter applies, so the effective config echoes a key that reloads."""
    assert DetectorModel(1.0, 0.0, 0.0, 2.5).dead_time_ps == 3
    cfg = parse_config_text(GOOD)
    cfg = replace(cfg, detectors={**cfg.detectors,
                                  "SSPD": replace(cfg.detectors["SSPD"], dead_time_ps=2.5)})
    assert "dead_time_ps = 3\n" in format_config(cfg)
    assert parse_config_text(format_config(cfg)) == cfg


def test_correlator_zero_bin_width():
    bad = GOOD.replace("bin_width_ps = 32", "bin_width_ps = 0")
    with pytest.raises(ConfigError, match="correlator: bin_width_ps must be > 0"):
        parse_config_text(bad)


PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
ROUND_TRIP = {
    "GOOD": GOOD,
    "FULL": FULL,
    "LASER": LASER,
    "MIN_MAX": MIN_MAX,
    "cli.HBT_CFG": test_cli.HBT_CFG,
    "cli.TCSPC_CFG": test_cli.TCSPC_CFG,
    "cli.DE_CFG": test_cli.DE_CFG,
    "pipelines.DE_CFG": test_pipelines.DE_CFG,
    "acceptance.PAPER_HBT_CFG": test_acceptance.PAPER_HBT_CFG,
    "acceptance.SMALL_TCSPC": test_acceptance.SMALL_TCSPC,
    "acceptance.DE_SWEEP_CFG": test_acceptance.DE_SWEEP_CFG,
    **{f"perfbench.{p.stem}": p.read_text() for p in PERFBENCH_CONFIGS.glob("*.cfg")},
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_format_config_round_trips(name):
    cfg = parse_config_text(ROUND_TRIP[name])
    text = format_config(cfg)
    assert parse_config_text(text) == cfg
    for section in ("run", "source", "splitter", "g2", "lifetime",
                    *(f"detector.{d}" for d in cfg.detectors)):
        assert f"[{section}]\n" in text


def test_byte_order_mark_is_skipped(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(GOOD, encoding="utf-8")
    marked.write_text(GOOD, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(marked) == load_config(plain)
