"""One in-process run of a simulate recipe, with or without layer spans.

    python3 perfbench/traced.py --command simulate-hbt --config C --seed N \
        --out DIR --result FILE [--trace] [--io-probe DIR]

The program is not edited.  With --trace, every layer function that
`photon_correlator.pipelines` imports is replaced, in that module's
namespace, by a wrapper that records a span (name, start, end, parent,
growth of ru_maxrss) and the work it was handed.  The recipe then runs
through the public `run_*` and `write_*_artifacts` functions, exactly as
the CLI does.  Spans stay in memory and go to FILE at the end, with the
per-layer metrics derived from them and `run_wall_s`, the wall time of
the recipe with probe time taken out.

Probes run outside every span and their time is subtracted from the
spans open around them:

* dead time: each `detect` call with dead_time_ps > 0 is repeated on the
  same photons and seed with dead_time_ps = 0; the time difference and
  the tag loss are the cost and effect of the dead-time filter;
* timetag I/O (--io-probe): the start stream is written and read back in
  TTAG1 and CSV, with an equality check.
"""

import argparse
import contextlib
import dataclasses
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

RECIPES = {
    "simulate-hbt": ("run_hbt", "write_hbt_artifacts"),
    "simulate-tcspc": ("run_tcspc", "write_tcspc_artifacts"),
    "simulate-de-sweep": ("run_de_sweep", "write_de_sweep_artifacts"),
}


def _maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans; `excluded` is probe time kept out of open spans."""

    def __init__(self):
        self.spans = []
        self.excluded = 0.0
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        span = {"name": name, "parent": self._open[-1] if self._open else None,
                "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(span)
        rss0 = _maxrss_mib()
        excluded0 = self.excluded
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["s"] = span["end"] - span["start"] - (self.excluded - excluded0)
            span["maxrss_growth_mb"] = _maxrss_mib() - rss0
            self._open.pop()

    @contextlib.contextmanager
    def probe(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0


def _untraced_span(name):
    return contextlib.nullcontext({"counts": {}})


# Layer functions that pipelines imports -> (span name, work counted from the
# bound arguments and the result).
LAYERS = {
    "emit_dot_pulse_train": ("sources.emit_dot_pulse_train",
                             lambda a, r: {"pulses": a["n_pulses"], "photons": len(r)}),
    "emit_laser_pulse_train": ("sources.emit_laser_pulse_train",
                               lambda a, r: {"pulses": a["n_pulses"], "photons": len(r)}),
    "emit_clock_ticks": ("sources.emit_clock_ticks", lambda a, r: {"ticks": len(r)}),
    "beamsplit": ("optics.beamsplit", lambda a, r: {"photons": len(a["stream"])}),
    "attenuate": ("optics.attenuate",
                  lambda a, r: {"photons_in": len(a["stream"]), "photons_out": len(r)}),
    "detect": ("detectors.detect",
               lambda a, r: {"photons_in": len(a["photons"]), "tags_out": len(r)}),
    "tac_histogram": ("correlator.tac_histogram",
                      lambda a, r: {"starts": len(a["starts"]), "pairs": r.total_counts}),
    "reverse_start_stop": ("correlator.reverse_start_stop",
                           lambda a, r: {"tags": len(a["detector"])}),
    "write_histogram_csv": ("correlator.write_histogram_csv", lambda a, r: {}),
    "g2_zero": ("analysis.g2_zero", lambda a, r: {}),
    "fit_lifetime": ("analysis.fit_lifetime",
                     lambda a, r: {"iterations": r.iterations, "converged": int(r.converged)}),
    "fit_de": ("analysis.fit_de",
               lambda a, r: {"iterations": r.iterations, "converged": int(r.converged)}),
    "write_tags": ("timetags.write_tags",
                   lambda a, r: {"mb": os.path.getsize(a["path"]) / 2**20}),
}


def install_wrappers(pipelines, tracer, dead_time_probes):
    """Replace each LAYERS function in the pipelines namespace by a traced one."""
    for attr, (name, count) in LAYERS.items():
        fn = getattr(pipelines, attr)
        sig = inspect.signature(fn)

        def traced(*args, _fn=fn, _sig=sig, _name=name, _count=count,
                   _probe=attr == "detect", **kwargs):
            with tracer.span(_name) as span:
                result = _fn(*args, **kwargs)
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span["counts"] = _count(bound.arguments, result)
            if _probe and bound.arguments["model"].dead_time_ps > 0:
                with tracer.probe():
                    dead_time_probes.append(_probe_dead_time(_fn, bound.arguments,
                                                             span, result))
            return result

        setattr(pipelines, attr, traced)


def _probe_dead_time(detect, arguments, span, result):
    model = dataclasses.replace(arguments["model"], dead_time_ps=0)
    t0 = time.perf_counter()
    free = detect(arguments["photons"], model, arguments["seed"],
                  channel=arguments["channel"])
    return {"s": span["s"] - (time.perf_counter() - t0),
            "tags_with": len(result), "tags_without": len(free)}


def _timetag_io_probe(stream, probe_dir):
    """Round-trip `stream` through TTAG1 and CSV; tags/s for each direction."""
    from photon_correlator.timetags import read_tags, write_tags

    probe_dir.mkdir(parents=True, exist_ok=True)
    rates = {}
    for fmt, label, suffix in (("binary", "ttag1", ".ttag"), ("csv", "csv", ".csv")):
        path = probe_dir / f"start{suffix}"
        t0 = time.perf_counter()
        write_tags(stream, path, format=fmt)
        t1 = time.perf_counter()
        back = read_tags(path, format=fmt)
        t2 = time.perf_counter()
        if back != stream:
            raise SystemExit(f"traced: {label} round trip changed the start stream")
        rates[f"timetags.{label}.write_tags_per_s"] = len(stream) / (t1 - t0)
        rates[f"timetags.{label}.read_tags_per_s"] = len(stream) / (t2 - t1)
        path.unlink()
    return rates


# Derived metric -> (span name, numerator count, denominator count or "s").
RATIOS = {
    "sources.emit_dot_pulse_train.pulses_per_s": ("sources.emit_dot_pulse_train",
                                                  "pulses", "s"),
    "sources.emit_laser_pulse_train.pulses_per_s": ("sources.emit_laser_pulse_train",
                                                    "pulses", "s"),
    "optics.beamsplit.photons_per_s": ("optics.beamsplit", "photons", "s"),
    "optics.attenuate.photons_in_per_s": ("optics.attenuate", "photons_in", "s"),
    "optics.attenuate.keep_ratio": ("optics.attenuate", "photons_out", "photons_in"),
    "detectors.detect.photons_in_per_s": ("detectors.detect", "photons_in", "s"),
    "detectors.detect.yield": ("detectors.detect", "tags_out", "photons_in"),
    "correlator.tac_histogram.starts_per_s": ("correlator.tac_histogram", "starts", "s"),
    "correlator.reverse_start_stop.tags_per_s": ("correlator.reverse_start_stop",
                                                 "tags", "s"),
    "timetags.write_tags.mb_per_s": ("timetags.write_tags", "mb", "s"),
}
COUNTS = ("sources.emit_dot_pulse_train.photons", "sources.emit_laser_pulse_train.photons",
          "correlator.tac_histogram.pairs")
PIPELINE_SPANS = [f"pipelines.{fn}" for pair in RECIPES.values() for fn in pair]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, dead_time_probes):
    """Per-layer metrics of one traced run, named <module>.<function>.<quantity>.

    Times and counts are summed over calls; self time is a span's time
    minus that of its children.  Layers the run never called read 0."""
    totals = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                             "maxrss_growth_mb": 0.0})
        t["calls"] += 1
        t["s"] += span["s"]
        t["self_s"] += span["s"] - sum(c["s"] for c in spans if c["parent"] == i)
        t["maxrss_growth_mb"] += span["maxrss_growth_mb"]
        for key, value in span["counts"].items():
            t[key] = t.get(key, 0) + value

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m = {}
    for name in [span for span, _ in LAYERS.values()] + ["config.load_config", "cli.import"]:
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.maxrss_growth_mb"] = get(name, "maxrss_growth_mb")
    for name in PIPELINE_SPANS:
        for key in ("s", "self_s", "maxrss_growth_mb"):
            m[f"{name}.{key}"] = get(name, key)
    for metric, (name, num, den) in RATIOS.items():
        m[metric] = _ratio(get(name, num), get(name, den))
    for metric in COUNTS:
        name, key = metric.rsplit(".", 1)
        m[metric] = get(name, key)
    m["detectors.dead_time.s"] = sum(p["s"] for p in dead_time_probes)
    m["detectors.dead_time.drop_ratio"] = 1.0 - _ratio(
        sum(p["tags_with"] for p in dead_time_probes),
        sum(p["tags_without"] for p in dead_time_probes)) if dead_time_probes else 0.0
    fits = [t for name, t in totals.items() if name.startswith("analysis.fit_")]
    calls = sum(t["calls"] for t in fits)
    m["nlsq.iterations"] = sum(t["iterations"] for t in fits)
    m["nlsq.converged"] = int(calls > 0 and sum(t["converged"] for t in fits) == calls)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True, choices=sorted(RECIPES))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--io-probe", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    tracer = Tracer()
    span = tracer.span if args.trace else _untraced_span
    with span("cli.import"):
        import photon_correlator.cli  # noqa: F401  (the import the CLI pays)
        from photon_correlator import pipelines
        from photon_correlator.config import load_config
    with span("config.load_config"):
        cfg = load_config(args.config).with_seed(args.seed)
    dead_time_probes = []
    if args.trace:
        install_wrappers(pipelines, tracer, dead_time_probes)

    run_name, write_name = RECIPES[args.command]
    t0 = time.perf_counter()
    with span(f"pipelines.{run_name}"):
        result = getattr(pipelines, run_name)(cfg)
    with span(f"pipelines.{write_name}"):
        getattr(pipelines, write_name)(result, args.out)
    run_wall_s = time.perf_counter() - t0 - tracer.excluded

    report = {"run_wall_s": run_wall_s}
    if args.trace:
        report["metrics"] = layer_metrics(tracer.spans, dead_time_probes)
        rates = (_timetag_io_probe(result.start_detections, Path(args.io_probe))
                 if args.io_probe else {})
        for fmt in ("ttag1", "csv"):
            for way in ("write", "read"):
                key = f"timetags.{fmt}.{way}_tags_per_s"
                report["metrics"][key] = rates.get(key, 0.0)
        report["spans"] = tracer.spans
    with open(args.result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
