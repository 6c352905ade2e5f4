"""Table D (extension) — campaign throughput and determinism.

Times a 16-cell ``campaign`` run (node count × loss model × loss probability
× liar fraction) end to end through
:func:`repro.experiments.engine.run_experiment` and checks the two
properties the engine promises: every cell completes with a usable row per
system, and re-running the same grid reproduces the formatted report byte
for byte (stable per-cell seeds, no wall-clock in the output).
"""

from __future__ import annotations

from repro.experiments import SYSTEMS, aggregate_rows, format_table, run_experiment

_GRID = {
    "axes": {"total_nodes": (8, 12), "liar_fraction": (0.0, 0.25),
             "loss_model": ("bernoulli", "distance"),
             "loss_probability": (0.0, 0.2)},
    "params": {"warmup": 25.0, "cycles": 2},
}


def _run_grid():
    return run_experiment("campaign", **_GRID)


def test_bench_campaign_runs_grid(benchmark, emit):
    result = benchmark.pedantic(_run_grid, rounds=1, iterations=1)
    assert result.cells() == 16

    rows = result.rows()
    assert len(rows) == 16 * len(SYSTEMS)
    assert all(row["frames_sent"] > 0 for row in rows)
    detector = [row for row in rows if row["system"] == "detector"]
    emit("TABLE D (Campaign, 16 cells)",
         format_table(aggregate_rows(detector, ("nodes", "loss"),
                                     ("attacker_trust", "cycles", "flagged")),
                      title="Table D — detector aggregate by node count × loss"))

    # Determinism: a second pass over the same grid is byte-identical.
    assert _run_grid().format_report() == result.format_report()

    benchmark.extra_info.update({
        "cells": result.cells(),
        "events_total": sum(row["events"] for row in detector),
    })
