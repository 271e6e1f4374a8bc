"""The benchmark's trace mode still runs against the program.

`perfbench/traced.py --trace` looks up the layer functions it wraps by
name in `photon_correlator.pipelines`; a change that drops or renames one
of them makes every traced benchmark run fail.  This runs the traced
recipe on a small config of each command, as the benchmark does, and
checks that it ends cleanly with its per-layer metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import SMALL_DE, SMALL_HBT, SMALL_TCSPC

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.mark.parametrize("command, cfg_text, io_probe", [
    ("simulate-hbt", SMALL_HBT, True),
    ("simulate-tcspc", SMALL_TCSPC, False),
    ("simulate-de-sweep", SMALL_DE, False),
], ids=["hbt", "tcspc", "de-sweep"])
def test_traced_run_ends_with_layer_metrics(tmp_path, command, cfg_text, io_probe):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    result = tmp_path / "result.json"
    argv = [sys.executable, str(TRACED), "--command", command, "--config", str(cfg),
            "--seed", "5", "--out", str(tmp_path / "out"), "--result", str(result),
            "--trace"]
    if io_probe:
        argv += ["--io-probe", str(tmp_path / "io")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(result.read_text())["metrics"]
    assert isinstance(metrics, dict) and metrics
    if io_probe:
        assert metrics["timetags.ttag1.read_tags_per_s"] > 0
