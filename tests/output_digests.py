"""SHA-256 of every file and of the stdout that each `simulate-*` run writes,
and of the stdout of each `analyze` of its histogram or sweep.

    python tests/output_digests.py > digests.txt

Runs the command each config names, in process, on the benchmark configs
(`perfbench/configs/*.cfg`) and on the SMALL_* configs of `run_configs.py`,
at seeds 1, 7 and 12345, with the code in the `src/` beside this directory.
Prints `<config> <seed> <file> <sha256>` for every output file, then one
such line for the stdout, with the output path masked.  Then, on each
histogram.csv, `analyze g2` at the run's pulse period, `analyze lifetime`
with no sigma and at `--fix-sigma-ps 0` and `analyze irf`, and on each
sweep.csv `analyze de` at the run's rep rate, each printing
`<config> <seed> <file> analyze <arguments> <exit code> <sha256>` of its
stdout and stderr, the output path masked: an analysis that fails (exit 3
or 4, a g2 of a TCSPC histogram say) is digested too.  A change that must
keep every output byte prints the same lines as its parent: copy this file
and `run_configs.py` into the `tests/` of both checkouts, run it in each and
`diff` the two listings.  It imports nothing else from `tests/`, so a change
to the test modules cannot stop it.  pytest does not collect this file, and
a `simulate-*` run that exits nonzero stops it.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

from photon_correlator.cli import main  # noqa: E402
from photon_correlator.config import parse_config_text  # noqa: E402
from photon_correlator.sources import pulse_period_ps  # noqa: E402
from run_configs import SMALL_RUNS  # noqa: E402

SEEDS = (1, 7, 12345)
# the RunConfig field whose section a command needs -> that command
COMMANDS = {"hbt": "simulate-hbt", "tcspc": "simulate-tcspc",
            "de_sweep": "simulate-de-sweep"}


def runs():
    """(config label, command, config text, extra arguments) of each run."""
    for path in sorted((ROOT / "perfbench" / "configs").glob("*.cfg")):
        text = path.read_text()
        cfg = parse_config_text(text, origin=str(path))
        command, = (c for name, c in COMMANDS.items() if getattr(cfg, name) is not None)
        yield path.stem, command, text, []
    for command, text, extra in SMALL_RUNS:
        yield f"SMALL:{command}", command, text, extra


def run_main(argv, out):
    """main(argv)'s exit code and the SHA-256 of its stdout then stderr, with
    `out` masked."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    masked = (stdout.getvalue() + stderr.getvalue()).replace(str(out), "<out>")
    return code, hashlib.sha256(masked.encode()).hexdigest()


def analyses(cfg):
    """(input file, `analyze` arguments naming it) of each analysis of a run of `cfg`."""
    hist, rate = ["--hist", "histogram.csv"], cfg.source.rep_rate_hz
    return [("histogram.csv", ["g2", *hist, "--rep-period-ps", repr(pulse_period_ps(rate))]),
            ("histogram.csv", ["lifetime", *hist]),
            ("histogram.csv", ["lifetime", *hist, "--fix-sigma-ps", "0"]),
            ("histogram.csv", ["irf", *hist]),
            ("sweep.csv", ["de", "--sweep", "sweep.csv", "--f-hz", repr(rate)])]


def digest_lines(label, command, text, extra, seed, work):
    cfg_path = work / "run.cfg"
    cfg_path.write_text(text)
    out = work / f"out-{seed}"
    code, digest = run_main([command, "--config", str(cfg_path), "--seed", str(seed),
                             "--out", str(out), *extra], out)
    if code != 0:
        raise SystemExit(f"{label} at seed {seed}: {command} exited {code}")
    for path in sorted(out.iterdir()):
        yield f"{label} {seed} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
    yield f"{label} {seed} stdout {digest}"  # stderr is empty at exit 0
    for name, args in analyses(parse_config_text(text)):
        if (out / name).exists():
            argv = ["analyze", *(str(out / a) if a == name else a for a in args)]
            code, digest = run_main(argv, out)
            yield f"{label} {seed} {name} analyze {' '.join(args)} {code} {digest}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, command, text, extra) in enumerate(runs()):
            work = Path(tmp) / str(i)
            work.mkdir()
            for seed in SEEDS:
                for line in digest_lines(label, command, text, extra, seed, work):
                    print(line)
