"""Tests of the repository benchmark: smoke runs, seeds, gates and the tracer."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: The benchmark's workloads shrunk to a fraction of a second each.
SMOKE = {
    "cell-sparse": dict(params=dict(workloads.WORKLOADS["cell-sparse"].params,
                                    total_nodes=12, area_size=612.0, cycles=2)),
    "cell-dense": dict(params=dict(workloads.WORKLOADS["cell-dense"].params,
                                   total_nodes=12, area_size=346.0, cycles=2)),
    "sweep-serve": dict(params={"total_nodes": 16, "rounds": 10},
                        axes={"confidence_level": (0.9, 0.95), "gamma": (0.4, 0.6)}),
}


def smoke(name: str, **changes) -> workloads.Workload:
    fields = dict(SMOKE[name], traced_passes=1, pinned_digest=None)
    fields.update(changes)
    return dataclasses.replace(workloads.WORKLOADS[name], **fields)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    workload = smoke(name)
    reps = [workloads.run_repetition(workload, 0, index, tmp_path, tracer.Tracer())
            for index in range(2)]
    values, notes = bench.end_to_end(reps, setup=(0.5, 0.5))
    assert [metric for metric, _ in bench.END_TO_END] == list(values)
    assert all(value > 0 for value in values.values())
    assert workloads.gate_errors(workload, 0, reps) == []
    assert all(rep.failed == rep.stale for rep in reps)
    if workload.backend == "netsim":
        assert all(rep.attacker_investigated for rep in reps)


def test_timings_are_scaled_by_the_reference_around_them(tmp_path):
    assert reference.scaled(0.5, 0.002, 0.004) == pytest.approx(
        0.5 * reference.REFERENCE_S / 0.003)
    rep = workloads.run_repetition(smoke("sweep-serve"), 0, 0, tmp_path, tracer.Tracer())
    assert all(seconds > 0 and scaled > 0 for seconds, _, scaled in rep.batches)
    assert all(seconds > 0 and scaled > 0 for seconds, scaled in rep.latencies)
    values, notes = bench.end_to_end([rep], setup=(0.5, 0.6))
    assert values["setup_s"] == 0.5 and "setup_s 0.600000" in notes[1]


def test_non_default_seed_runs_and_changes_the_inputs(tmp_path):
    workload = smoke("cell-sparse")
    seeded = workloads.run_repetition(workload, 7, 0, tmp_path, tracer.Tracer())
    default = workloads.run_repetition(workload, workloads.DEFAULT_SEED, 0, tmp_path,
                                       tracer.Tracer())
    assert workloads.gate_errors(workload, 7, [seeded]) == []
    assert seeded.digest != default.digest


def test_pinned_digest_mismatch_fails_the_gate(tmp_path):
    workload = smoke("sweep-serve", pinned_digest="0" * 64)
    rep = workloads.run_repetition(workload, workloads.DEFAULT_SEED, 0, tmp_path,
                                   tracer.Tracer())
    errors = workloads.gate_errors(workload, workloads.DEFAULT_SEED, [rep])
    assert len(errors) == 1 and "pinned" in errors[0]
    assert workloads.gate_errors(workload, 1, [rep]) == []


def test_wrong_served_body_counts_as_failed_not_fatal(tmp_path, monkeypatch):
    render = workloads._fresh_render

    def different_render(store_path, paths):
        return {path: (status, etag, body + b"x")
                for path, (status, etag, body) in render(store_path, paths).items()}

    workload = smoke("sweep-serve")
    rep = workloads.run_repetition(workload, 0, 0, tmp_path, tracer.Tracer())
    monkeypatch.setattr(workloads, "_fresh_render", different_render)
    wrong = workloads.run_repetition(workload, 0, 0, tmp_path, tracer.Tracer())
    assert wrong.attempted == rep.attempted
    assert wrong.failed > rep.failed
    # A failed request gives no serve latency.
    assert len(wrong.latencies) == wrong.requests - wrong.failed
    assert workloads.gate_errors(workload, 0, [wrong]) == []


@pytest.mark.parametrize("name", ["cell-dense", "sweep-serve"])
def test_layer_self_times_plus_unattributed_sum_to_traced_wall(name, tmp_path):
    spans = tracer.Tracer()
    spans.install()
    try:
        rep = workloads.run_repetition(smoke(name), 0, 0, tmp_path, spans)
    finally:
        spans.uninstall()
    table = tracer.layer_table(spans.columns(), spans.names, spans.layer_of_name,
                               spans.layers)
    attributed = sum(row["self_s"] for row in table["layers"].values())
    assert attributed + table["unattributed_s"] == pytest.approx(table["wall_s"], abs=1e-9)
    assert table["wall_s"] == pytest.approx(rep.wall_s, rel=0.05)
    assert table["unattributed_s"] < 0.1 * table["wall_s"]
    busy = {layer for layer, row in table["layers"].items() if row["spans"]}
    expected = ({"netsim.engine", "olsr", "logs"} if name.startswith("cell")
                else {"core.investigation", "trust", "core.decision"})
    assert expected | {"experiments.engine", "experiments.results",
                       "fabric.service"} <= busy
    # Wrappers are gone again: the classes hold the original functions.
    assert not hasattr(workloads.ResultsService.handle, "__wrapped__")

    spans.write(tmp_path / "spans.npz")
    with open(tmp_path / "spans.npz", "rb") as handle:
        import numpy as np

        saved = np.load(handle)
        assert len(saved["start"]) == table["spans"]


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.per_layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_prints_result_and_holds_the_pinned_digest(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setenv("SQLITE_TMPDIR", str(tmp_path))
    code = bench.main(["--workload", "cell-dense", "--seconds", "0", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(bench.END_TO_END)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
