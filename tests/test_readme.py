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
