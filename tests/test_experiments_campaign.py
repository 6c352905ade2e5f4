"""Tests for the ``campaign`` experiment and its determinism guarantees."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.decision import DecisionOutcome
from repro.experiments.__main__ import build_run_parser, main
from repro.experiments._cli import parse_axis
from repro.experiments.backends import scenario_config_from_params
from repro.experiments.campaign import SYSTEMS
from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import execute_cell, get_experiment, run_experiment
from repro.experiments.report import aggregate_rows
from repro.experiments.rounds import ExperimentResult, RoundRecord
from repro.seeding import stable_digest, stable_seed

GOLDEN_PATH = Path(__file__).parent / "golden" / "campaign_rows.json"

#: Small, fast grid: 8 nodes, the attack inside warm-up, one cycle.
_TINY_AXES = {"total_nodes": (8,), "liar_fraction": (0.0, 0.25)}
_TINY_PARAMS = {"warmup": 20.0, "attack_start": 8.0, "cycles": 1}


def _tiny_run(**kwargs):
    return run_experiment("campaign", axes=_TINY_AXES, params=_TINY_PARAMS, **kwargs)


# ------------------------------------------------------------------ seeding
def test_stable_digest_is_process_independent_known_values():
    # CRC32 values are fixed by the algorithm, not by PYTHONHASHSEED.
    assert stable_digest("n00") == 1150761319
    assert stable_digest("n07") == 3673402564


def test_stable_seed_distinct_per_label_and_repeatable():
    seeds = {stable_seed(7, f"cell-{i}") for i in range(50)}
    assert len(seeds) == 50
    assert stable_seed(7, "cell-3") == stable_seed(7, "cell-3")
    assert stable_seed(7, "cell-3") != stable_seed(8, "cell-3")


# --------------------------------------------------------------------- grid
def test_grid_expands_full_cross_product_with_stable_seeds():
    definition = get_experiment("campaign")
    axes = {"total_nodes": (8, 16), "liar_fraction": (0.0, 0.25),
            "loss_probability": (0.0, 0.2), "max_speed": (0.0, 5.0)}
    specs = definition.expand(axes=axes)
    assert len(specs) == 16
    assert len({spec.run_id for spec in specs}) == 16
    assert specs == definition.expand(axes=axes)  # expansion is deterministic
    for spec in specs:
        assert spec.backend == "netsim"
        assert spec.seed == stable_seed(7, f"campaign/{spec.cell_id}")


def test_grid_repetitions_get_distinct_seeds():
    specs = get_experiment("campaign").expand(axes={"repetition": (0, 1, 2)})
    assert len(specs) == 3
    assert len({spec.seed for spec in specs}) == 3


def test_grid_validates_axes():
    definition = get_experiment("campaign")
    for axes in ({"liar_fraction": (1.5,)}, {"loss_model": ("gaussian",)},
                 {"attack_variant": ("no_such_variant",)},
                 {"loss_probability": (1.5,)}):
        with pytest.raises(ValueError):
            definition.expand(axes=axes)
    with pytest.raises(ValueError):
        definition.expand(params={"no_such_param": 1})


def test_one_cell_yields_one_row_per_system_sharing_its_seed():
    spec, = get_experiment("campaign").expand(
        axes={"total_nodes": (8,)}, params=_TINY_PARAMS)
    rows = execute_cell(spec)
    assert [row["system"] for row in rows] == list(SYSTEMS)
    # Every system judged the identical simulation.
    assert {row["seed"] for row in rows} == {spec.seed}
    assert len({row["frames_sent"] for row in rows}) == 1
    assert len({row["run_id"] for row in rows}) == len(SYSTEMS)


def test_parse_loss_entries():
    assert parse_axis("loss_model=bernoulli,distance") == (
        "loss_model", ("bernoulli", "distance"))
    assert parse_axis("loss_probability=0,0.8") == ("loss_probability", (0, 0.8))
    spec, = get_experiment("campaign").expand(
        axes={"loss_model": ("distance",), "loss_probability": (0.8,)})
    assert spec.param("loss_model") == "distance"
    assert spec.param("loss_probability") == 0.8


def test_spec_liar_count_scales_with_responders():
    spec, = get_experiment("campaign").expand(axes={"total_nodes": (10,)})
    config = scenario_config_from_params(spec.params_dict(), spec.seed)
    assert config.effective_liar_count() == 2  # 25 % of 8 responders


# ---------------------------------------------------------------- execution
def test_execute_spec_produces_metrics():
    spec = get_experiment("campaign").expand(axes=_TINY_AXES, params=_TINY_PARAMS)[0]
    rows = execute_cell(spec)
    detector = rows[0]
    assert detector["system"] == "detector"
    assert detector["run_id"] == f"{spec.cell_id}/detector"
    assert detector["nodes"] == 8
    assert detector["frames_sent"] > 0
    assert detector["events"] > 0
    assert detector["investigated"]


def test_run_campaign_serial_is_deterministic():
    first = _tiny_run()
    second = _tiny_run()
    assert first.format_report() == second.format_report()
    assert first.rows() == second.rows()


def test_run_campaign_parallel_matches_serial():
    serial = _tiny_run()
    parallel = _tiny_run(workers=2)
    assert parallel.format_report() == serial.format_report()


def test_campaign_aggregate_groups_rows():
    result = _tiny_run()
    aggregate = aggregate_rows(result.rows(), ("system", "liar_fraction"), ("cycles",))
    assert len(aggregate) == 2 * len(SYSTEMS)
    assert all(row["runs"] == 1 for row in aggregate)
    report = result.format_report()
    for title, _, _ in get_experiment("campaign").aggregates:
        assert title in report


def test_campaign_rows_match_the_golden_runtime_rows():
    """80 rows of the former standalone campaign runtime, from 16 runs.

    The golden file holds the rows the standalone runtime produced for an
    8/12-node × liar 0/0.25 × loss × speed grid under all five systems.
    Each of its 16 scenarios runs once here, at the stored seed, and must
    reproduce all five systems' rows in every column but ``run_id``.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == 80
    scenarios = {}
    for row in golden:
        scenarios.setdefault(row["seed"], row)
    assert len(scenarios) == 16

    definition = get_experiment("campaign")
    rows = []
    for seed, row in scenarios.items():
        loss_model, loss_probability = row["loss"].split(":")
        spec, = definition.expand(
            axes={"total_nodes": (row["nodes"],),
                  "attack_variant": (row["variant"],),
                  "loss_model": (loss_model,),
                  "loss_probability": (float(loss_probability),),
                  "max_speed": (row["speed"],),
                  "liar_fraction": (row["liar_fraction"],)},
            params={"warmup": 25.0, "cycles": 3})
        rows.extend(execute_cell(dataclasses.replace(spec, seed=seed)))

    def without_run_id(row):
        return json.dumps({k: v for k, v in row.items() if k != "run_id"})

    by_key = {(row["seed"], row["system"]): without_run_id(row) for row in rows}
    assert len(by_key) == 80
    for row in golden:
        assert by_key[(row["seed"], row["system"])] == without_run_id(row)


# ---------------------------------------------------------------------- CLI
def test_cli_two_invocations_byte_identical(tmp_path, capsys):
    argv = ["run", "campaign", "--axis", "total_nodes=8",
            "--axis", "liar_fraction=0.0,0.25",
            "--param", "warmup=20", "--param", "cycles=1"]
    outputs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"Campaign" in outputs[0]
    capsys.readouterr()  # swallow the printed reports


def test_cli_parser_defaults():
    args = build_run_parser().parse_args(["campaign"])
    assert args.experiment == "campaign"
    assert args.workers == 1
    assert args.backend is None and args.axis == [] and args.param == []
    assert args.db is None and not args.resume
    definition = get_experiment("campaign")
    assert definition.default_backend == "netsim"
    assert definition.axes["total_nodes"] == (16,)
    assert definition.axes["loss_model"] == ("bernoulli",)
    assert definition.axes["liar_fraction"] == (0.25,)
    # The detector's trust settings are declared, hashed parameters.
    assert definition.fixed["trust_minimum"] == 0.0
    assert definition.fixed["trust_beta_recovery"] is None
    assert definition.fixed["random_initial_trust"] is False


def test_as_row_keeps_raw_precision():
    # Aggregates must be computed from raw per-run metrics; rounding happens
    # only in the formatter.  (A pre-rounded 4-digit row biases group means.)
    spec, = get_experiment("campaign").expand(axes={"total_nodes": (8,)})
    record = RoundRecord(round_index=0, attack_active=True,
                         detect_value=-0.123456789,
                         outcome=DecisionOutcome.UNRECOGNIZED, margin=0.5,
                         answers={"n02": -1.0},
                         trust_snapshot={"n01": 0.987654321, "n02": 0.5})
    result = ExperimentResult(
        config=ScenarioConfig(total_nodes=8, liar_count=0), investigator="n00",
        attacker="n01", liars=set(), honest_responders={"n02"}, rounds=[record],
        stats={"frames_sent": 1, "frames_delivered": 1, "events_processed": 1})
    row = get_experiment("campaign").rows_from_result(spec, result)[0]
    assert row["final_detect"] == -0.123456789
    assert row["attacker_trust"] == 0.987654321
    assert row["liar_trust"] is None
    assert row["honest_trust"] == 0.5


# ---------------------------------------------------------------- reporting
def test_aggregate_rows_means_and_sorting():
    rows = [
        {"group": "b", "value": 2.0, "flag": True},
        {"group": "a", "value": 1.0, "flag": False},
        {"group": "b", "value": 4.0, "flag": True},
        {"group": "a", "value": None, "flag": False},
    ]
    aggregated = aggregate_rows(rows, ("group",), ("value",))
    assert [row["group"] for row in aggregated] == ["a", "b"]
    assert aggregated[0]["runs"] == 2
    assert aggregated[0]["value"] == 1.0  # None skipped
    assert aggregated[1]["value"] == 3.0
