import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from photon_correlator.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library.*?```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_flags_are_accepted(capsys):
    """Each --flag of the "Command-line usage" block is an option of the
    subcommand its line names, as that subcommand's --help lists it."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command-line usage\s*```sh\n(.*?)```", readme, re.S).group(1)
    checked = 0
    for line in filter(None, block.splitlines()):
        words = line.split()
        command = words[1:3] if words[1] == "analyze" else words[1:2]
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--help"])
        help_text = capsys.readouterr().out
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", help_text), (line, flag)
            checked += 1
    assert checked > 10


def test_readme_record_keys_are_the_records_keys():
    """The key lists of README "Result records" are, in order, the keys of
    the g2, lifetime, IRF and DE records."""
    import numpy as np

    import photon_correlator as pc
    from photon_correlator.analysis import gaussian_model

    readme = (ROOT / "README.md").read_text()
    section = re.search(r"\*\*Result records\*\*(.*?)\n\n", readme, re.S).group(1)
    listed = {name: [key.strip() for key in keys.split(",")]
              for keys, name in re.findall(r"`([^`]+)` \((g2|lifetime|irf|DE)\)",
                                           section)}
    cfg = pc.HistogramConfig(32, 0, 12_192, pc.Mode.FIRST_STOP)
    x = cfg.bin_centers()

    def hist(counts):
        counts = np.rint(counts).astype(np.int64)
        return pc.Histogram(cfg, counts, int(counts.sum()))

    mu = np.array([0.01, 0.1, 1.0, 10.0])
    records = {
        "g2": pc.G2Estimate(1.0, 0.1, 10, (10, 10), 2).record(),
        "lifetime": pc.fit_lifetime(hist(pc.decay_model(x, 370.0, 72.2, 5e4, 2000.0, 5.0))
                                    ).record(),
        "irf": pc.measure_irf(hist(gaussian_model(x, 2e4, 6000.0, 72.2, 3.0))).record(),
        "DE": pc.fit_de([pc.DECalibrationPoint(m, r) for m, r in
                         zip(mu, pc.de_model(mu, 0.02, 100.0, 1e5))], 1e5).record(),
    }
    assert listed == {name: list(record) for name, record in records.items()}
