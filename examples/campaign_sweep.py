#!/usr/bin/env python3
"""Detector-vs-baselines campaign with a resumable results store.

This example runs the ``campaign`` experiment (:mod:`repro.experiments.campaign`):
each cell is one full-stack MANET run, judged by the paper's detector *and*
by the related-work baselines (:mod:`repro.baselines`) from the identical
investigation answers, so one cell yields one row per system.  Every
completed cell is committed to an SQLite results store
(:mod:`repro.experiments.results`).  The second invocation of the identical
grid resumes from the store: nothing is re-simulated, the report is
re-aggregated from the database and is byte-identical to the first one.

The same sweep is available from the unified experiments CLI::

    python -m repro.experiments run campaign \
        --axis total_nodes=12 --axis liar_fraction=0.0,0.25 \
        --param warmup=25 --param cycles=3 --workers 4 \
        --db campaign.sqlite --resume

    python -m repro.experiments report --db campaign.sqlite --experiment campaign \
        --axis total_nodes=12 --axis liar_fraction=0.0,0.25 \
        --param warmup=25 --param cycles=3

Usage::

    python examples/campaign_sweep.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.experiments import SYSTEMS, ResultsStore, run_experiment

GRID = {
    "axes": {"total_nodes": (12,), "liar_fraction": (0.0, 0.25)},
    "params": {"warmup": 25.0, "cycles": 3},
}


def main() -> int:
    workers = min(4, os.cpu_count() or 1)
    print(f"Running 2 scenario cells, each judged by {len(SYSTEMS)} systems...")

    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "campaign.sqlite")

        with ResultsStore(db_path) as store:
            started = time.perf_counter()
            result = run_experiment("campaign", workers=workers, store=store, **GRID)
            cold = time.perf_counter() - started
            report = result.format_report()
            rows = result.rows()  # materialise before the store closes
        print(f"\nCold campaign: executed {len(result.executed_run_ids)} cells "
              f"in {cold:.1f} s on {workers} workers.\n")
        print(report)

        # Re-invoking the identical grid resumes from the store: zero cells
        # execute and the report is rebuilt from SQLite, byte for byte.
        with ResultsStore(db_path) as store:
            started = time.perf_counter()
            resumed = run_experiment("campaign", workers=workers, store=store, **GRID)
            warm = time.perf_counter() - started
            resumed_report = resumed.format_report()
        print(f"\nResumed campaign: skipped {len(resumed.skipped_run_ids)} stored "
              f"cells in {warm * 1000:.0f} ms; report byte-identical: "
              f"{resumed_report == report}.")

    flagged = {}
    for row in rows:
        if row["flagged"]:
            flagged[row["system"]] = flagged.get(row["system"], 0) + 1
    print("\nCells where each system flagged the attacker as an intruder:")
    for system in SYSTEMS:
        print(f"  {system:<10} {flagged.get(system, 0)}/{result.cells()}")

    detects = {row["liar_fraction"]: row["final_detect"]
               for row in rows if row["system"] == "detector"}
    print("\nReading: the liar axis shows the shielding effect — the detector's "
          "aggregate (Eq. 8) is")
    for fraction in sorted(detects):
        value = detects[fraction]
        rendered = f"{value:+.3f}" if value is not None else "n/a"
        print(f"  Detect = {rendered} at liar fraction {fraction:g}")
    print("and the unweighted baselines swing the same way but without the "
          "detector's confidence gate (Eq. 10): they flag on raw counts, while "
          "the paper's decision rule only convicts once the confidence "
          "interval clears gamma — fewer false alarms at the price of needing "
          "more responders per round.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
