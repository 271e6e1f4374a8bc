"""Closed-loop benchmark of the `photon-correlator simulate-*` commands.

    python3 perfbench/run.py --workload hbt_tac --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is taken from the `src/` beside this directory; without it
the benchmark exits nonzero and prints no result.  One client runs one
CLI invocation at a time and each waits for the one before it to exit (a
closed loop with one client).  The program receives only the workload's
config file (`configs/`) and `--seed`.

--trace 0 (end to end, tracing off).  One discarded warm-up invocation
fills the `.pyc` and page caches, then invocations repeat for --seconds,
each preceded by one `setup_s` sample in a fresh interpreter, so that
both medians span the same stretch of the host's speed drift.  Each
invocation is timed from spawn to exit, and its peak RSS is that child's
own rusage from `os.wait4`.  Outside the timed region every output directory is
digested; the first one is checked by the workload's physics oracle and
every later one must have the same digest (all invocations share the
seed).  An invocation fails on a nonzero exit, a failed oracle or a
differing digest.  Metrics: `wall_s` (median), `wall_s_tail` (see
`tail`), `pulses_per_s` (pump pulses / `wall_s`), `peak_rss_mb` (median),
`setup_s` (median of fresh interpreters that import the CLI and load the
config), and `failed_frac`, printed beside `attempted` and `failed`.

--trace 1 (per layer).  `traced.py` runs the same recipe in process, in a
fresh interpreter each time, alternately with and without layer spans,
for --seconds.  Per-layer metrics are medians over the traced runs;
`trace.overhead_s` is the median traced minus the median untraced recipe
wall time.  Their outputs go through the same oracle and digest checks.

Human-readable lines come first, then a `context` line (Python, numpy and
scipy versions, nproc, `src/` line count); the last line of stdout is the
JSON result, whose metric names and units are those of BENCHMARK.json.
Work files go to `.perfbench/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_SAMPLES = 5
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


@dataclass(frozen=True)
class Workload:
    """A CLI command and its config, configs/<name>.cfg; oracles.check_<name>
    judges its output."""

    command: str
    io_probe: bool = False


WORKLOADS = {
    "hbt_tac": Workload("simulate-hbt", io_probe=True),
    "tcspc_lifetime": Workload("simulate-tcspc"),
    "de_sweep": Workload("simulate-de-sweep"),
}

SETUP_CODE = ("import sys; import photon_correlator.cli; "
              "from photon_correlator.config import load_config; "
              "load_config(sys.argv[1])")


class Runner:
    """Spawns children from the checkout's src/ and reaps each with wait4."""

    def __init__(self, work, deadline):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = work / "child.log"
        self.deadline = deadline

    def spawn(self, argv):
        """Run argv to exit; return (wall_s, exit_code, peak_rss_mib)."""
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            sys.stderr.write(f"perfbench: {argv[1:4]} exited {proc.returncode}:\n"
                             + self.log.read_text(errors="replace")[-2000:])
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def dir_digest(path):
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


class OutputCheck:
    """Oracle on the first output, digest equality on every later one."""

    def __init__(self, oracles, name, cfg):
        self.oracle = getattr(oracles, f"check_{name}")
        self.errors = oracles.OUTPUT_ERRORS
        self.cfg = cfg
        self.reference = None
        self.problems = []

    def __call__(self, out_dir):
        digest = dir_digest(out_dir)
        if self.reference is None:
            self.reference = digest
            try:
                self.problems = self.oracle(self.cfg, out_dir)
            except self.errors as exc:
                self.problems = [f"unreadable output: {exc!r}"]
            for problem in self.problems:
                sys.stderr.write(f"perfbench: oracle: {problem}\n")
            return not self.problems
        if digest != self.reference:
            sys.stderr.write("perfbench: output differs from another run at the same seed\n")
            return False
        return not self.problems


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it; a run too short
    for that keeps a quarter of its samples above it instead (the upper
    quartile).  Returns (value, percentile, samples beyond)."""
    ordered = sorted(values)
    beyond = min(TAIL_BEYOND, len(ordered) // 4)
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def closed_loop(wl, cfg_path, cli_seed, seconds, runner, work, check):
    """Warm-up, then set-up samples and CLI invocations in turn for `seconds`."""
    out = work / "out"
    cli = [sys.executable, "-m", "photon_correlator.cli", wl.command,
           "--config", str(cfg_path), "--out", str(out), "--seed", str(cli_seed)]

    def invoke():
        shutil.rmtree(out, ignore_errors=True)
        return runner.spawn(cli)

    invoke()  # warm-up, discarded
    walls, rss, setup, attempted, failed = [], [], [], 0, 0
    start = time.monotonic()
    while attempted < MIN_SAMPLES or time.monotonic() - start < seconds:
        if time.monotonic() + 2 * max(walls, default=0.0) > runner.deadline:
            break
        wall, code, _ = runner.spawn([sys.executable, "-c", SETUP_CODE, str(cfg_path)])
        if code:
            sys.exit("perfbench: set-up (import and load_config) failed")
        setup.append(wall)
        wall, code, peak = invoke()
        attempted += 1
        if code == 0:
            walls.append(wall)
            rss.append(peak)
        failed += not (code == 0 and check(out))
    return walls, rss, setup, attempted, failed


def traced_loop(wl, cfg_path, cli_seed, seconds, runner, work, check):
    """Alternate traced and untraced in-process runs for `seconds`."""
    out = work / "out"
    result = work / "result.json"

    def run_child(traced):
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, str(BENCH / "traced.py"), "--command", wl.command,
                "--config", str(cfg_path), "--seed", str(cli_seed),
                "--out", str(out), "--result", str(result)]
        if traced:
            argv.append("--trace")
            if wl.io_probe:
                argv += ["--io-probe", str(work / "io_probe")]
        wall, code, _ = runner.spawn(argv)
        walls.append(wall)
        if code:
            return None
        with open(result) as fh:
            return json.load(fh)

    walls = []
    run_child(False)  # warm-up, discarded
    runs = {True: [], False: []}
    attempted, failed = 0, 0
    start = time.monotonic()
    while attempted < 2 or time.monotonic() - start < seconds:
        if time.monotonic() + 3 * max(walls) > runner.deadline:
            break
        # alternate which of the pair runs first
        for traced in (attempted % 4 == 0, attempted % 4 != 0):
            report = run_child(traced)
            attempted += 1
            if report is None:
                failed += 1
                continue
            runs[traced].append(report)
            failed += not check(out)
    return runs, attempted, failed


def declared_metrics(kind, values):
    """The BENCHMARK.json metrics of `kind`, with their units, from `values`."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def report_end_to_end(workload, cfg, walls, rss, setup, attempted, failed):
    if not walls:
        return None
    pulses = (cfg.de_sweep.pulses_per_point * len(cfg.de_sweep.mu_values)
              if cfg.de_sweep is not None else cfg.n_pulses)
    wall = statistics.median(walls)
    tail_value, tail_pct, beyond = tail(walls)
    n = len(walls)
    values = {"wall_s": wall, "wall_s_tail": tail_value, "pulses_per_s": pulses / wall,
              "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setup)}
    notes = {"wall_s": f"median of {n} invocations",
             "wall_s_tail": f"p{tail_pct:.0f}, {beyond} of {n} invocations beyond it",
             "pulses_per_s": f"{pulses} pulses / median wall_s of {n}",
             "peak_rss_mb": f"median of {n} invocations (own rusage)",
             "setup_s": f"median of {len(setup)} fresh interpreters"}
    metrics = declared_metrics("end_to_end", values)
    print(f"workload {workload}: closed loop, 1 client, {attempted} invocations")
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:<12.6g} {m['unit']:<4} {notes[name]}")
    return metrics


def report_trace(workload, runs):
    if not runs[True] or not runs[False]:
        return None
    values = {name: statistics.median(r["metrics"][name] for r in runs[True])
              for name in runs[True][0]["metrics"]}
    values["trace.overhead_s"] = (
        statistics.median(r["run_wall_s"] for r in runs[True])
        - statistics.median(r["run_wall_s"] for r in runs[False]))
    metrics = declared_metrics("per_layer", values)
    print(f"workload {workload}: {len(runs[True])} traced, {len(runs[False])} "
          f"untraced in-process runs; per-layer medians")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:<12.6g} {m['unit']}")
    spans = runs[True][-1]["spans"]
    for i, span in enumerate(spans):
        if span["name"].startswith("pipelines.run_"):
            children = {}
            for c in spans:
                if c["parent"] == i:
                    children[c["name"]] = children.get(c["name"], 0.0) + c["s"]
            parts = " + ".join(f"{name} {s:.4f}" for name, s in children.items())
            self_s = span["s"] - sum(children.values())
            print(f"  {span['name']} {span['s']:.4f} s = self {self_s:.4f} + {parts}")
    return metrics


def context():
    import numpy
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "src_lines": src_lines}


def load_program():
    """Import the package from the checkout's src/, or exit without a result."""
    if not (SRC / "photon_correlator" / "cli.py").is_file():
        sys.exit(f"perfbench: no photon_correlator package under {SRC}")
    sys.path.insert(0, str(SRC))
    import oracles
    from photon_correlator.config import load_config

    return oracles, load_config


def run_workload(name, args, oracles, load_config):
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[name]
    cfg_path = BENCH / "configs" / f"{name}.cfg"
    cli_seed = args.seed % 2**64
    cfg = load_config(cfg_path).with_seed(cli_seed)
    check = OutputCheck(oracles, name, cfg)
    work = WORK / f"{name}.{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, deadline)
    try:
        if args.trace:
            runs, attempted, failed = traced_loop(wl, cfg_path, cli_seed, args.seconds,
                                                  runner, work, check)
            metrics = report_trace(name, runs)
            if metrics:
                (WORK / f"{name}.spans.json").write_text(json.dumps(runs[True][-1]["spans"]))
        else:
            walls, rss, setup, attempted, failed = closed_loop(
                wl, cfg_path, cli_seed, args.seconds, runner, work, check)
            metrics = report_end_to_end(name, cfg, walls, rss, setup, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        sys.exit(f"perfbench: {name}: no run succeeded")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print("context " + json.dumps(context(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    oracles, load_config = load_program()
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(name, args, oracles, load_config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
