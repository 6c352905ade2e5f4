"""Lazy audit-log records change nothing a cell produces.

Runs one small figure1 netsim cell twice: with the product
:class:`repro.logs.store.LogStore`, which builds records on first read, and
with the eager build-on-write twin from ``tests/reference`` patched in.
Every node's text dump and every event the analyzers emitted must match.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import repro.olsr.messages as olsr_messages
import repro.routing.base as routing_base
from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.logs.analyzer import DetectionEventType, LogAnalyzer
from repro.logs.store import LogStore
from tests.reference.eager_log_store import EagerLogStore

GOLDEN_PATH = Path(__file__).parent / "golden" / "figure1_netsim_parity.json"
ANALYZE = LogAnalyzer.analyze


def _run_cell(monkeypatch, store_cls):
    """Run the cell with ``store_cls`` as every node's audit log."""
    monkeypatch.setattr(routing_base, "LogStore", store_cls)
    # Message sequence numbers come from one process-wide counter and show
    # in the log text: restart it so both runs number their messages alike.
    monkeypatch.setattr(olsr_messages, "_message_seq", itertools.count(1))
    events = {}

    def recording_analyze(analyzer):
        found = ANALYZE(analyzer)
        events.setdefault(analyzer.node_id, []).extend(
            (e.time, e.node, e.event_type, e.subject, e.details) for e in found)
        return found

    monkeypatch.setattr(LogAnalyzer, "analyze", recording_analyze)
    params = json.loads(GOLDEN_PATH.read_text())["params"]
    config = scenario_config_from_params(params, seed=7)
    scenario = build_netsim_scenario(config, params)
    result = drive_netsim_scenario(scenario, config, params)
    routers = scenario.network.nodes
    assert all(type(router.log) is store_cls for router in routers.values())
    dumps = {node_id: router.log.dump_text() for node_id, router in routers.items()}
    rounds = [(r.detect_value, str(r.outcome), r.answers) for r in result.rounds]
    return scenario.victim_id, dumps, events, rounds


def test_lazy_store_matches_the_eager_twin_on_a_figure1_cell(monkeypatch):
    victim, lazy_dumps, lazy_events, lazy_rounds = _run_cell(monkeypatch, LogStore)
    _, eager_dumps, eager_events, eager_rounds = _run_cell(monkeypatch, EagerLogStore)

    assert lazy_dumps.keys() == eager_dumps.keys()
    for node_id in sorted(lazy_dumps):
        assert lazy_dumps[node_id] == eager_dumps[node_id], node_id
    assert all(lazy_dumps.values())
    assert lazy_events[victim] == eager_events[victim]
    assert any(event[2] is DetectionEventType.ADVERTISEMENT_CHANGED
               for event in lazy_events[victim])
    assert lazy_events == eager_events
    assert lazy_rounds == eager_rounds
    assert any(detect_value is not None for detect_value, _, _ in lazy_rounds)
