"""Span tracer for the benchmark's traced run.

The tracer wraps the entry points of each layer (the functions listed in
:data:`BOUNDARIES`) from outside the program: product code is untouched, and
the wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`.  Each call records one span: name, start, end, the
enclosing span and the benchmark operation (writer batch or reader request)
it ran for.  Spans live in flat ``array`` columns in memory and are written
out once, when the run ends.

A span's *self* time is its duration minus the durations of its direct
children.  The benchmark opens one root span per repetition (layer
``bench``); time in it that no layer span covers is the unattributed
remainder.  Work the benchmark does only to check results runs inside an
``untimed`` span with the wrappers switched off, and is left out of the
traced wall time, so that::

    sum(self seconds of every layer) + unattributed == traced wall time
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers in pipeline order; the names are the repo modules they cover.
LAYERS = (
    "netsim.engine",
    "netsim.medium",
    "netsim.mobility",
    "olsr",
    "logs",
    "core.detector",
    "core.investigation",
    "core.decision",
    "trust",
    "experiments.engine",
    "experiments.results",
    "fabric.service",
)

BENCH = "bench"
UNTIMED = "untimed"

#: layer -> [(module, class or None, function names)].  Private names are the
#: callbacks the event engine schedules (deliveries, mobility ticks, OLSR
#: emission timers): they are where control enters the layer.
BOUNDARIES: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "netsim.engine": [("repro.netsim.engine", "Simulator", ("run",))],
    "netsim.medium": [("repro.netsim.medium", "WirelessMedium",
                       ("transmit", "_deliver", "_deliver_batch"))],
    "netsim.mobility": [("repro.netsim.mobility", cls, ("_advance",)) for cls in (
        "RandomWaypointMobility", "RandomWalkMobility", "GaussMarkovMobility",
        "ReferencePointGroupMobility")],
    "olsr": [("repro.olsr.node", "OlsrNode",
              ("handle_control", "process_hello", "process_tc",
               "_emit_hello", "_emit_tc", "_housekeeping"))],
    "logs": [("repro.logs.store", "LogStore", ("log",)),
             ("repro.logs.analyzer", "LogAnalyzer", ("analyze",))],
    "core.detector": [("repro.core.detector", "LocalDetector", ("scan",))],
    "core.investigation": [
        ("repro.core.investigation", "CooperativeInvestigator",
         ("open_investigation", "run_round")),
        ("repro.core.investigation", "NetworkPathTransport", ("verify_link",)),
        ("repro.core.investigation", "OracleTransport", ("verify_link",)),
    ],
    "core.decision": [("repro.core.decision", None, ("evaluate_investigation",))],
    "trust": [("repro.trust.manager", "TrustManager", ("update_all", "update", "decay_all")),
              ("repro.trust.recommendation", "RecommendationManager", ("record_outcome",))],
    "experiments.engine": [("repro.experiments.engine", None,
                            ("run_experiment", "execute_cell"))],
    "experiments.results": [("repro.experiments.results", "ResultsStore",
                             ("__init__", "close", "record", "set_meta", "get_meta",
                              "iter_meta", "iter_records", "completed_hashes",
                              "get_row"))],
    "fabric.service": [("repro.fabric.service", "ResultsService", ("handle", "_build"))],
}

#: Result-counting hooks, by span name: ``hook(counters, result)``.  They run
#: after the span has closed.
def _count_triggers(counters, result) -> None:
    counters["core.detector.triggers"] += len(result)


def _count_round(counters, result) -> None:
    counters["core.investigation.queries"] += len(result.answers)
    counters["core.investigation.answered"] += len(result.responders_reached)


def _count_trust_slot(counters, result) -> None:
    counters["trust.subjects"] += len(result)


def _count_cache(counters, result) -> None:
    counters["fabric.service.hits"] += result[1].get("X-Cache") == "HIT"


HOOKS: Dict[str, Callable] = {
    "core.detector:LocalDetector.scan": _count_triggers,
    "core.investigation:CooperativeInvestigator.run_round": _count_round,
    "trust:TrustManager.update_all": _count_trust_slot,
    "fabric.service:ResultsService.handle": _count_cache,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of_name: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.layers = (BENCH, UNTIMED) + LAYERS
        self._layer_ids = {layer: i for i, layer in enumerate(self.layers)}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.scope_col = array("i")
        self.outer_col = array("b")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: List[int] = []
        self._depth = [0] * len(self.layers)
        #: Identifier of the benchmark operation now running, and the
        #: operation behind every identifier handed out.
        self.scope = 0
        self.scope_names: Dict[int, str] = {0: "setup"}
        self.enabled = False
        #: Totals the :data:`HOOKS` add to, over every traced call.
        self.counters: Dict[str, float] = dict.fromkeys((
            "core.detector.triggers", "core.investigation.queries",
            "core.investigation.answered", "trust.subjects", "fabric.service.hits"), 0)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def name_id(self, layer: str, label: str) -> int:
        name = f"{layer}:{label}"
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of_name.append(self._layer_ids[layer])
        return index

    def open(self, name_id: int) -> int:
        index = len(self.start_col)
        layer = self.layer_of_name[name_id]
        depth = self._depth[layer]
        self._depth[layer] = depth + 1
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.scope_col.append(self.scope)
        self.outer_col.append(depth == 0)
        self.end_col.append(0.0)
        self._stack.append(index)
        self.start_col.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        self._stack.pop()
        self._depth[self.layer_of_name[self.name_col[index]]] -= 1

    def begin_operation(self, label: str) -> None:
        """Tag the spans that follow with a new operation identifier."""
        if self.enabled:
            self.scope = len(self.scope_names)
            self.scope_names[self.scope] = label

    @contextmanager
    def span(self, layer: str, label: str):
        """A span opened by the benchmark itself (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self.open(self.name_id(layer, label))
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def untimed(self, label: str):
        """Benchmark-only work: one ``untimed`` span, wrappers switched off."""
        if not self.enabled:
            yield
            return
        index = self.open(self.name_id(UNTIMED, label))
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True
            self.close(index)

    # ------------------------------------------------------------- wrapping
    def _wrap(self, layer: str, label: str, function):
        name_id = self.name_id(layer, label)
        hook = HOOKS.get(self.names[name_id])
        counters = self.counters
        tracer = self

        if inspect.isgeneratorfunction(function):
            # One span per resumption, so the consumer's own work between
            # items stays with the consumer.
            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                generator = function(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from generator
                        return
                    index = tracer.open(name_id)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    yield item
            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(counters, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every boundary function (class attributes and module globals)."""
        for layer, entries in BOUNDARIES.items():
            for module_name, class_name, functions in entries:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for function_name in functions:
                    original = owner.__dict__[function_name]
                    label = f"{class_name}.{function_name}" if class_name else function_name
                    wrapped = self._wrap(layer, label, original)
                    if class_name:
                        self._patch(owner, function_name, wrapped)
                        continue
                    # A module function is also bound by name wherever it was
                    # imported with ``from module import name``.
                    for other in list(sys.modules.values()):
                        if (getattr(other, "__name__", "").startswith("repro")
                                and other.__dict__.get(function_name) is original):
                            self._patch(other, function_name, wrapped)
        self.enabled = True

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched attribute and stop recording."""
        self.enabled = False
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -------------------------------------------------------------- analysis
    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns (what :meth:`write` saves)."""
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "scope": np.frombuffer(self.scope_col, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer_col, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Save the spans, the name table and the operation of every scope."""
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = json.dumps({"names": self.names, "layers": list(self.layers),
                           "layer_of_name": self.layer_of_name,
                           "scopes": {str(k): v for k, v in self.scope_names.items()}})
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
                     **self.columns())


def layer_table(columns: Dict[str, np.ndarray], names: List[str],
                layer_of_name: List[int], layers: Tuple[str, ...]) -> Dict[str, object]:
    """Per-layer spans, total and self seconds, derived from the span columns.

    ``total_s`` counts only a layer's outermost spans, so a layer that
    re-enters itself is not counted twice.  The returned ``wall_s`` is the
    root spans' time minus the untimed spans; ``unattributed_s`` is the
    roots' self time.
    """
    name = columns["name"]
    parent = columns["parent"]
    duration = columns["end"] - columns["start"]
    children = np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                           minlength=len(name))
    self_time = duration - children
    layer = np.asarray(layer_of_name, dtype=np.int64)[name] if len(name) else name
    count = len(layers)
    self_by_layer = np.bincount(layer, weights=self_time, minlength=count)
    outer = columns["outer"].astype(bool)
    total_by_layer = np.bincount(layer[outer], weights=duration[outer], minlength=count)
    spans_by_layer = np.bincount(layer, minlength=count)
    bench, untimed = layers.index(BENCH), layers.index(UNTIMED)
    per_name_self = np.bincount(name, weights=self_time, minlength=len(names))
    per_name_total = np.bincount(name, weights=duration, minlength=len(names))
    per_name_count = np.bincount(name, minlength=len(names))
    return {
        "wall_s": float(total_by_layer[bench] - total_by_layer[untimed]),
        "unattributed_s": float(self_by_layer[bench]),
        "spans": int(len(name)),
        "layers": {
            layers[i]: {"spans": int(spans_by_layer[i]),
                        "total_s": float(total_by_layer[i]),
                        "self_s": float(self_by_layer[i])}
            for i in range(count) if layers[i] not in (BENCH, UNTIMED)
        },
        "functions": {
            names[i]: {"spans": int(per_name_count[i]), "self_s": float(per_name_self[i]),
                       "total_s": float(per_name_total[i])}
            for i in range(len(names)) if per_name_count[i]
        },
    }
