"""SHA-256 of every file and of the stdout that each `simulate-*` run writes.

    python tests/output_digests.py > digests.txt

Runs the command each config names, in process, on the benchmark configs
(`perfbench/configs/*.cfg`) and on the acceptance suite's SMALL_* configs,
at seeds 1, 7 and 12345, with the code in the `src/` beside this directory.
Prints `<config> <seed> <file> <sha256>` for every output file, then one
such line for the stdout, with the output path masked.  A change that must
keep every output byte prints the same lines as its parent: run this in
both checkouts and `diff` the two listings.  pytest does not collect this
file, and a run that exits nonzero stops it.
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
from test_acceptance import SMALL_RUNS  # noqa: E402

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


def digest_lines(label, command, text, extra, seed, work):
    cfg_path = work / "run.cfg"
    cfg_path.write_text(text)
    out = work / f"out-{seed}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(out), *extra])
    if code != 0:
        raise SystemExit(f"{label} at seed {seed}: {command} exited {code}")
    for path in sorted(out.iterdir()):
        yield f"{label} {seed} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
    masked = stdout.getvalue().replace(str(out), "<out>").encode()
    yield f"{label} {seed} stdout {hashlib.sha256(masked).hexdigest()}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, command, text, extra) in enumerate(runs()):
            work = Path(tmp) / str(i)
            work.mkdir()
            for seed in SEEDS:
                for line in digest_lines(label, command, text, extra, seed, work):
                    print(line)
