"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cell-sparse --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload's first ``traced_passes`` repetitions (sized
to take about 30 s), each once untraced and once under the span tracer
(:mod:`tracer`).  It prints the per-layer table and reports the per-layer
metrics, all per traced repetition: each layer's spans, total and self
seconds, layer counters, the unattributed remainder and the tracing
overhead (traced minus untraced wall time of the same repetitions).  Spans
and the table are written under ``.bench_build/perfbench/``.

End-to-end timings are seconds at the nominal host speed: every writer
batch, reader burst and cold set-up is scaled by how fast the host ran the
fixed reference work of :mod:`reference` right before and after it, which
takes out the shared host's changes of speed.  ``cell_wall_s`` is the run's
scaled writer seconds over its cells; the serve percentiles are over the
scaled latencies of correctly answered requests.  A note line gives the
same timings in raw seconds.

The metrics print one per line with their units, followed by the share of
failed operations; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a gate fails (see :mod:`workloads`) and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Cold set-ups per run; each costs about 0.35 s, and a single one varies
#: by about 30% with the host.
SETUP_PROBES = 15

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("cell_wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    from tracer import LAYERS

    metrics = []
    for layer in LAYERS:
        metrics += [(f"{layer}.spans", "count"), (f"{layer}.total_s", "s"),
                    (f"{layer}.self_s", "s")]
    metrics += [
        ("netsim.engine.events", "count"), ("netsim.engine.cancelled_skip_ratio", "ratio"),
        ("netsim.medium.frames_sent", "count"), ("netsim.medium.delivery_ratio", "ratio"),
        ("netsim.mobility.ticks", "count"),
        ("olsr.control_msgs", "count"), ("olsr.hello_self_s", "s"),
        ("olsr.tc_self_s", "s"),
        ("logs.records", "count"), ("logs.useful_ratio", "ratio"),
        ("core.detector.scans", "count"), ("core.detector.triggers", "count"),
        ("core.investigation.rounds", "count"), ("core.investigation.queries", "count"),
        ("core.investigation.answered_ratio", "ratio"),
        ("trust.updates", "count"), ("trust.subjects", "count"),
        ("experiments.engine.cells", "count"),
        ("experiments.results.writes", "count"), ("experiments.results.write_s", "s"),
        ("experiments.results.bytes_written", "B"), ("experiments.results.read_s", "s"),
        ("fabric.service.requests", "count"), ("fabric.service.hit_ratio", "ratio"),
        ("fabric.service.build_s", "s"), ("fabric.service.stale", "count"),
        ("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return tuple(metrics)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_setup(workload_name: str, seed: int, workdir: Path):
    """Median cold set-up time over several fresh interpreters: (seconds at
    the nominal host speed, raw seconds)."""
    probe = Path(__file__).with_name("setup_probe.py")
    timings = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload_name, str(seed), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        timings.append([float(value) for value in done.stdout.split()[-2:]])
    return tuple(statistics.median(column) for column in zip(*timings))


def run_for(workload, seed: int, workdir: Path, tracer, until: float):
    """Repetitions 0, 1, ... until the clock passes ``until`` (at least one)."""
    from workloads import run_repetition

    reps = [run_repetition(workload, seed, 0, workdir, tracer)]
    while time.perf_counter() < until:
        reps.append(run_repetition(workload, seed, len(reps), workdir, tracer))
    return reps


def end_to_end(reps, setup):
    """The end-to-end metrics of a run; ``setup`` is ``measure_setup``'s
    pair.  Timings are at the nominal host speed (see :mod:`reference`);
    the notes give them in raw seconds too."""
    batches = [batch for rep in reps for batch in rep.batches]
    cells = sum(count for _, count, _ in batches)
    cell_wall_s = sum(seconds for _, _, seconds in batches) / cells
    # Failed requests are not in the percentiles (see workloads); they are
    # the failed share printed next to them.
    cuts = statistics.quantiles([1000.0 * latency for rep in reps
                                 for _, latency in rep.latencies],
                                n=100, method="inclusive")
    values = {
        "setup_s": setup[0],
        "cell_wall_s": cell_wall_s,
        "cells_per_s": 1.0 / cell_wall_s,
        "serve_p50_ms": cuts[49],
        "serve_p99_ms": cuts[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = statistics.quantiles([1000.0 * latency for rep in reps
                                for latency, _ in rep.latencies],
                               n=100, method="inclusive")
    answered = sum(len(rep.latencies) for rep in reps)
    requests = sum(rep.requests for rep in reps)
    notes = [f"# {len(batches)} writer batches, {len(reps)} repetitions; {requests} "
             f"reader requests, {answered} answered correctly ({answered // 100} "
             f"samples beyond p99), {requests - answered} failed",
             f"# raw seconds: setup_s {setup[1]:.6f}, cell_wall_s "
             f"{sum(seconds for seconds, _, _ in batches) / cells:.6f}, serve_p50_ms "
             f"{raw[49]:.6f}, serve_p99_ms {raw[98]:.6f}"]
    return values, notes


def per_layer(table, tracer, traced, untraced_wall: float):
    """Every per-layer metric, averaged per traced repetition."""
    n = len(traced)
    layers = table["layers"]
    functions = table["functions"]

    def over(field: str, *suffixes: str) -> float:
        return sum(f[field] for name, f in functions.items() if name.endswith(suffixes))

    sub: dict = {}
    for rep in traced:
        for key, value in rep.substrate.items():
            sub[key] = sub.get(key, 0) + value
    counters = tracer.counters
    requests = over("spans", "ResultsService.handle") / n
    values = {}
    for layer, row in layers.items():
        values[f"{layer}.spans"] = row["spans"] / n
        values[f"{layer}.total_s"] = row["total_s"] / n
        values[f"{layer}.self_s"] = row["self_s"] / n
    values.update({
        "netsim.engine.events": sub.get("events", 0) / n,
        "netsim.engine.cancelled_skip_ratio": _ratio(
            sub.get("cancelled_skipped", 0),
            sub.get("pops", 0) + sub.get("cancelled_skipped", 0)),
        "netsim.medium.frames_sent": sub.get("frames_sent", 0) / n,
        "netsim.medium.delivery_ratio": _ratio(sub.get("frames_delivered", 0),
                                               sub.get("frames_attempted", 0)),
        "netsim.mobility.ticks": over("spans", "._advance") / n,
        "olsr.control_msgs": sub.get("control_msgs", 0) / n,
        "olsr.hello_self_s": over("self_s", "OlsrNode.process_hello") / n,
        "olsr.tc_self_s": over("self_s", "OlsrNode.process_tc") / n,
        "logs.records": sub.get("records", 0) / n,
        "logs.useful_ratio": _ratio(sub.get("useful_records", 0), sub.get("records", 0)),
        "core.detector.scans": over("spans", "LocalDetector.scan") / n,
        "core.detector.triggers": counters["core.detector.triggers"] / n,
        "core.investigation.rounds": over("spans", "CooperativeInvestigator.run_round") / n,
        "core.investigation.queries": counters["core.investigation.queries"] / n,
        "core.investigation.answered_ratio": _ratio(
            counters["core.investigation.answered"], counters["core.investigation.queries"]),
        "trust.updates": over("spans", "TrustManager.update_all") / n,
        "trust.subjects": counters["trust.subjects"] / n,
        "experiments.engine.cells": over("spans", "execute_cell") / n,
        "experiments.results.writes": over("spans", "ResultsStore.record") / n,
        "experiments.results.write_s": over(
            "total_s", "ResultsStore.record", "ResultsStore.set_meta") / n,
        "experiments.results.bytes_written": sum(rep.bytes_written for rep in traced) / n,
        "experiments.results.read_s": over(
            "total_s", "ResultsStore.get_meta", "ResultsStore.iter_meta",
            "ResultsStore.iter_records", "ResultsStore.completed_hashes",
            "ResultsStore.get_row") / n,
        "fabric.service.requests": requests,
        "fabric.service.hit_ratio": _ratio(counters["fabric.service.hits"] / n, requests),
        "fabric.service.build_s": over("total_s", "ResultsService._build") / n,
        "fabric.service.stale": sum(rep.stale for rep in traced) / n,
        "trace.wall_s": table["wall_s"] / n,
        "trace.unattributed_s": table["unattributed_s"] / n,
        "trace.overhead_s": table["wall_s"] / n - untraced_wall,
        "trace.spans": table["spans"] / n,
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(workdir)

    from tracer import Tracer, layer_table
    from workloads import DEFAULT_SEED, WORKLOADS, gate_errors, run_repetition, set_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    set_up(workload, seed, workdir)  # warm this process's imports and caches

    tracer = Tracer()
    started = time.perf_counter()
    if args.trace:
        # Each traced repetition right after the same repetition untraced,
        # so that both see the host at about the same speed.
        untraced, traced = [], []
        for index in range(workload.traced_passes):
            untraced.append(run_repetition(workload, seed, index, workdir, tracer))
            tracer.install()
            try:
                traced.append(run_repetition(workload, seed, index, workdir, tracer))
            finally:
                tracer.uninstall()
        reps = untraced + traced
        tracer.write(workdir / f"spans-{workload.name}.npz")
        table = layer_table(tracer.columns(), tracer.names, tracer.layer_of_name,
                            tracer.layers)
        (workdir / f"layers-{workload.name}.json").write_text(
            json.dumps(table, indent=2, sort_keys=True))
        values = per_layer(table, tracer, traced,
                           sum(rep.wall_s for rep in untraced) / len(untraced))
        units = dict(per_layer_metrics())
        notes = [f"# {len(traced)} repetitions, each untraced and traced; "
                 "per-layer values are per traced repetition",
                 f"# {'layer':24s} {'spans':>12s} {'total_s':>12s} {'self_s':>12s}"]
        notes += [f"# {layer:24s} {row['spans'] / len(traced):12.1f} "
                  f"{row['total_s'] / len(traced):12.6f} {row['self_s'] / len(traced):12.6f}"
                  for layer, row in table["layers"].items()]
    else:
        reps = run_for(workload, seed, workdir, tracer, started + args.seconds)
        values, notes = end_to_end(reps, measure_setup(workload.name, seed, workdir))
        units = dict(END_TO_END)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    errors = gate_errors(workload, seed, reps)
    for name, value in values.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"{'error_ratio':40s} {failed / attempted:16.6f} ratio "
          f"({failed} failed of {attempted} operations)")
    for line in notes + [f"# gate failed: {error}" for error in errors]:
        print(line)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
