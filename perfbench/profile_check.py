"""Compare the tracer's per-layer ranking with cProfile's, on the same passes.

Usage (from the repository root)::

    python3 perfbench/profile_check.py --workload cell-sparse --seed 0

Runs the workload's traced repetitions twice in one process: once under
the span tracer and once under :mod:`cProfile`.  cProfile's own time per
function is grouped into layers by the module that defines the function;
time in functions outside ``repro`` (builtins, the standard library, numpy)
goes to the layers of their callers, in proportion to what each caller
spent there.  Both rankings of self seconds are printed, and the exit code
is 1 when the two top-two layer sets differ.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Module path prefix (under src/repro) -> layer, first match wins.
MODULE_LAYERS = (
    ("netsim/engine", "netsim.engine"),
    ("netsim/mobility", "netsim.mobility"),
    ("netsim/", "netsim.medium"),
    ("olsr/", "olsr"),
    ("routing/", "olsr"),
    ("logs/", "logs"),
    ("core/investigation", "core.investigation"),
    ("core/decision", "core.decision"),
    ("core/", "core.detector"),
    ("trust/", "trust"),
    ("experiments/results", "experiments.results"),
    ("experiments/", "experiments.engine"),
    ("fabric/", "fabric.service"),
)


def layer_of_file(filename: str):
    marker = "/src/repro/"
    if marker not in filename:
        return None
    relative = filename.split(marker, 1)[1]
    for prefix, layer in MODULE_LAYERS:
        if relative.startswith(prefix):
            return layer
    return "other repro"


def cprofile_layers(stats: pstats.Stats):
    """Self seconds per layer, non-repro time handed up to the callers."""
    entries = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo = {}

    def shares(func, depth=0):
        """{layer: fraction} that ``func``'s own time belongs to."""
        if func in memo:
            return memo[func]
        layer = layer_of_file(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = entries.get(func, (0, 0, 0, 0, {}))[4]
            total = sum(c[2] for c in callers.values())
            result = defaultdict(float)
            if depth < 8 and total > 0:
                for caller, counts in callers.items():
                    for name, part in shares(caller, depth + 1).items():
                        result[name] += part * counts[2] / total
            else:
                result["unattributed"] = 1.0
            result = dict(result)
        memo[func] = result
        return result

    layers = defaultdict(float)
    for func, (_, _, tottime, _, _) in entries.items():
        for name, part in shares(func).items():
            layers[name] += tottime * part
    return dict(layers)


def ranking(seconds_by_layer):
    return sorted(((s, layer) for layer, s in seconds_by_layer.items() if s > 0), reverse=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer, layer_table
    from workloads import WORKLOADS, run_repetition, set_up

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    set_up(workload, args.seed, workdir)
    passes = range(workload.traced_passes)

    tracer = Tracer()
    tracer.install()
    try:
        for index in passes:
            run_repetition(workload, args.seed, index, workdir, tracer)
    finally:
        tracer.uninstall()
    table = layer_table(tracer.columns(), tracer.names, tracer.layer_of_name, tracer.layers)
    traced = {layer: row["self_s"] for layer, row in table["layers"].items()}

    profile = cProfile.Profile()
    profile.enable()
    for index in passes:
        run_repetition(workload, args.seed, index, workdir, Tracer())
    profile.disable()
    profiled = cprofile_layers(pstats.Stats(profile))

    traced_rank, profiled_rank = ranking(traced), ranking(profiled)
    print(f"{'tracer self s':>28s}  {'cProfile self s':>36s}")
    for row in range(max(len(traced_rank), len(profiled_rank))):
        left = (f"{traced_rank[row][1]:>18s} {traced_rank[row][0]:9.3f}"
                if row < len(traced_rank) else " " * 28)
        right = (f"{profiled_rank[row][1]:>26s} {profiled_rank[row][0]:9.3f}"
                 if row < len(profiled_rank) else "")
        print(f"{left}  {right}")
    top_traced = {layer for _, layer in traced_rank[:2]}
    top_profiled = {layer for _, layer in profiled_rank[:2]}
    agree = top_traced == top_profiled
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "passes": len(passes), "top2_agree": agree,
                      "tracer_top2": sorted(top_traced),
                      "cprofile_top2": sorted(top_profiled)}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
