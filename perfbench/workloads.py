"""The benchmark's workloads, the closed loop that runs them, and its gates.

Every workload runs the same loop in one process and one thread.  A writer
runs experiment cells into a fresh :class:`ResultsStore` through
``run_experiment(store=..., max_new_runs=k, workers=1)``.  After each writer
batch, one :class:`ResultsService` over that store answers a fixed mix of
reader requests (index, rows and report, each as a plain and as a
conditional GET).  Readers and writer alternate, so each waits for the other:
a closed loop with one client of each kind.  One pass over the workload's
cell grid is a *repetition*.  Each repetition has its own base seed, derived
from the run's seed, so a run measures many scenarios (for the netsim cells,
many random topologies) and its medians do not hang on one of them.

Each writer batch and each reader burst is timed between two runs of the
reference work of :mod:`reference`, also outside the timed region, and
recorded both in raw seconds and in seconds at the nominal host speed.

Gates, checked outside the timed region:

* at :data:`DEFAULT_SEED` the first repetition's stored rows equal the pinned
  digest, and the run's first writer batch, executed again, gives the same
  rows;
* on the netsim cells the victim investigates the attacker at least once;
* every served response equals a fresh render by a new ``ResultsService``
  over the same store.  A stale body, a ``304`` for a changed resource or
  any other status is a failed request; failures are counted, not fatal.
  Only correctly answered requests give serve latencies: a failed request
  has missed any latency limit, and it is counted in ``failed`` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.experiments import backends, engine
from repro.experiments.results import ResultsStore
from repro.fabric.service import ResultsService
from repro.seeding import stable_seed

from reference import reference_s, scaled
from tracer import BENCH, Tracer

#: Seed whose stored-rows digests are pinned in :data:`WORKLOADS`.
DEFAULT_SEED = 0

#: Log kinds :class:`repro.logs.analyzer.LogAnalyzer` acts on: every record
#: of these categories, plus the listed events of the others.
_ANALYZED_CATEGORIES = {"MPR", "NEIGHBOR", "LINK", "DROP", "FORWARD"}
_ANALYZED_EVENTS = {("MSG_RX", "HELLO")}

#: Reader requests after every writer batch, the same on every workload: the
#: six request kinds (three paths, each plain and conditional) 8 times each.
#: A writer batch changes the store, so a correct service builds each path
#: once after it: 3 cache-miss builds in 48 requests, 1 of them (2.1%) the
#: report, the costliest.  So on every workload the serve median is a cache
#: hit and the p99 about the median report build.  The mix is chosen for
#: that, not taken from recorded traffic.
READS_PER_BATCH = 48


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``BENCHMARK.json`` for why each exists)."""

    name: str
    experiment: str
    backend: str
    params: Mapping[str, object]
    axes: Optional[Mapping[str, Tuple]] = None
    #: Cells per writer batch (``max_new_runs``).
    batch_cells: int = 1
    #: Repetitions the traced run runs, each untraced and traced (the
    #: run's first ones, about 30 s in all).
    traced_passes: int = 1
    #: sha256 of the first repetition's stored rows at :data:`DEFAULT_SEED`
    #: (``None``: not pinned).
    pinned_digest: Optional[str] = None

    def run_kwargs(self, seed: int) -> Dict[str, object]:
        return {"backend": self.backend, "base_seed": seed,
                "axes": dict(self.axes) if self.axes else None,
                "params": dict(self.params)}

    def pass_seed(self, seed: int, index: int) -> int:
        """Base seed of repetition ``index`` of a run with ``seed``."""
        return stable_seed(seed, f"perfbench/{self.name}/{index}")

    def paths(self) -> Tuple[str, ...]:
        return ("/experiments", f"/experiments/{self.experiment}/rows",
                f"/experiments/{self.experiment}/report")


_CELL = {
    "loss_model": "bernoulli", "loss_probability": 0.1,
    # The attack starts inside warm-up, so all three detection cycles
    # measure detection of an active attack.
    "warmup": 12.0, "attack_start": 8.0, "cycles": 3,
}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # 24 nodes in 866 m: the node density of 128 nodes in 2000 m and of
    # the 256-node / 2800 m campaign cell.  Cells are small so that a run
    # covers ~70 topologies: at this density one cell's cost varies by ~20%
    # with its random placement.
    Workload(
        name="cell-sparse", experiment="figure1", backend="netsim",
        params=dict(_CELL, total_nodes=24, area_size=866.0, liar_fraction=0.1,
                    mobility_model="static"),
        traced_passes=24,
        pinned_digest="c64083d2ea362a5b243b7852d42721b21aa7adc047d822f5d95f91c5736f4d60",
    ),
    # 20 nodes in 447 m: the density of 64 nodes in the default 800 m arena.
    Workload(
        name="cell-dense", experiment="figure1", backend="netsim",
        params=dict(_CELL, total_nodes=20, area_size=447.0, liar_fraction=0.25,
                    mobility_model="walk", max_speed=5.0),
        traced_passes=12,
        pinned_digest="08bacf38488544c09ae1553871709a69a7f745d543df86e06273464965f8b0ec",
    ),
    # A 2x2 grid in two writer batches: with the stale-cache defect only the
    # first reader burst of a repetition is answered correctly, so short
    # repetitions are what give the serve percentiles their samples (about
    # 50 report builds a run).
    Workload(
        name="sweep-serve", experiment="confidence_sweep", backend="oracle",
        params={"total_nodes": 128, "rounds": 100},
        axes={"confidence_level": (0.9, 0.99), "gamma": (0.3, 0.7)},
        batch_cells=2,
        traced_passes=20,
        pinned_digest="545126c9f377b991906cb263288625d9d67387f2df670be122c5da31efd42cdf",
    ),
)}


@dataclass
class Repetition:
    """Measurements and gate results of one pass over a workload's grid."""

    wall_s: float = 0.0
    #: (seconds, cells, seconds at the nominal host speed) per writer batch.
    batches: List[Tuple[float, int, float]] = field(default_factory=list)
    #: (seconds, seconds at the nominal host speed) per correctly answered
    #: reader request.
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    requests: int = 0
    failed: int = 0
    stale: int = 0
    digest: str = ""
    #: Netsim cells in which the victim investigated the attacker.
    attacker_investigated: int = 0
    #: (spec, rows) of the first writer batch, re-run by the determinism gate.
    first_batch: List[Tuple[object, object]] = field(default_factory=list)
    bytes_written: int = 0
    #: Netsim substrate counters (traced repetitions only).
    substrate: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(cells for _, cells, _ in self.batches) + self.requests


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


class _ScenarioProbe:
    """Sees each netsim cell's result to check that the attacker was
    investigated; keeps the scenario when substrate counters are wanted."""

    def __init__(self, keep_scenarios: bool) -> None:
        self.keep_scenarios = keep_scenarios
        self.investigated: List[bool] = []
        self.scenarios: List[object] = []
        self._original = None

    def __enter__(self) -> "_ScenarioProbe":
        original = self._original = backends.drive_netsim_scenario

        def probe(scenario, config, params):
            result = original(scenario, config, params)
            self.investigated.append(
                any(record.detect_value is not None for record in result.rounds))
            if self.keep_scenarios:
                self.scenarios.append(scenario)
            return result

        backends.drive_netsim_scenario = probe
        return self

    def __exit__(self, *exc_info) -> None:
        backends.drive_netsim_scenario = self._original


def substrate_counters(scenarios) -> Dict[str, float]:
    """Engine, medium, OLSR and audit-log counters of finished netsim cells."""
    totals = dict.fromkeys(("events", "pops", "cancelled_skipped", "frames_sent",
                            "frames_delivered", "frames_attempted", "control_msgs",
                            "records", "useful_records"), 0)
    for scenario in scenarios:
        network = scenario.network
        counters = network.engine_counters()
        totals["pops"] += counters.get("pops", 0)
        totals["cancelled_skipped"] += counters.get("cancelled_skipped", 0)
        totals["events"] += network.simulator.processed_events
        stats = network.medium.stats
        totals["frames_sent"] += stats.frames_sent
        totals["frames_delivered"] += stats.frames_delivered
        totals["frames_attempted"] += (stats.frames_delivered + stats.frames_lost
                                       + stats.frames_collided)
        for router in network.nodes.values():
            totals["control_msgs"] += router.stats.messages_received
            for record in router.log:
                totals["records"] += 1
                category = str(record.category)
                if (category in _ANALYZED_CATEGORIES
                        or (category, record.event) in _ANALYZED_EVENTS):
                    totals["useful_records"] += 1
    return totals


def set_up(workload: Workload, seed: int, workdir: Path) -> None:
    """What a user pays before the first cell: resolve the experiment and
    expand its grid, build a store and start the service over it, and (on
    netsim) build the first cell's scenario."""
    _, specs, _ = engine.expand_experiment(
        workload.experiment, **workload.run_kwargs(workload.pass_seed(seed, 0)))
    store_path = workdir / f"{workload.name}-setup.sqlite"
    try:
        with ResultsStore(str(store_path)) as store:
            store.set_meta(f"context:{workload.experiment}", "{}")
            ResultsService(str(store_path)).handle("/experiments")
        if workload.backend == "netsim":
            spec = specs[0]
            config = backends.scenario_config_from_params(spec.params_dict(), spec.seed)
            backends.build_netsim_scenario(config, spec.params_dict())
    finally:
        _remove_store(store_path)


def _fresh_render(store_path: str, paths) -> Dict[str, Tuple[int, str, bytes]]:
    service = ResultsService(store_path)
    rendered = {}
    for path in paths:
        status, headers, body = service.handle(path)
        rendered[path] = (status, headers.get("ETag", ""), body)
    return rendered


def run_repetition(workload: Workload, seed: int, index: int, workdir: Path,
                   tracer: Tracer) -> Repetition:
    """Pass ``index``: a fresh store and service, the cell grid at the pass's
    own seed in writer batches, reader requests after every batch."""
    rep = Repetition()
    store_path = workdir / f"{workload.name}.sqlite"
    _remove_store(store_path)
    kwargs = workload.run_kwargs(workload.pass_seed(seed, index))
    mix = [(path, conditional) for conditional in (False, True)
           for path in workload.paths()]
    etags: Dict[str, str] = {}
    untimed = 0.0

    def host_speed() -> float:
        """Seconds of the reference work now, left out of the timings."""
        nonlocal untimed
        began = time.perf_counter()
        with tracer.untimed("reference"):
            seconds = reference_s()
        untimed += time.perf_counter() - began
        return seconds

    with _ScenarioProbe(keep_scenarios=tracer.enabled) as probe:
        started = time.perf_counter()
        with tracer.span(BENCH, "repetition"):
            store = ResultsStore(str(store_path))
            # The run context the fabric dispatcher stamps, so /report serves
            # the exact engine report.
            store.set_meta(f"context:{workload.experiment}", json.dumps(
                {"backend": kwargs["backend"], "base_seed": kwargs["base_seed"],
                 "axes": {k: list(v) for k, v in (kwargs["axes"] or {}).items()},
                 "params": kwargs["params"]}, sort_keys=True))
            service = ResultsService(str(store_path))
            done = False
            reference = host_speed()
            while not done:
                tracer.begin_operation(f"write:{index}:{len(rep.batches)}")
                began = time.perf_counter()
                result = engine.run_experiment(
                    workload.experiment, workers=1, store=store,
                    max_new_runs=workload.batch_cells, **kwargs)
                elapsed = time.perf_counter() - began
                cells = len(result.executed_run_ids)
                rep.batches.append((elapsed, cells,
                                    scaled(elapsed, reference, host_speed())))
                done = len(result.skipped_run_ids) + cells >= result.cells()

                check_began = time.perf_counter()
                with tracer.untimed("fresh-render"):
                    if not rep.first_batch:
                        rep.first_batch = [
                            (spec, result.rows_by_hash[digest])
                            for spec, digest in zip(result.specs, result.hashes)
                            if digest in result.rows_by_hash]
                    expected = _fresh_render(str(store_path), workload.paths())
                untimed += time.perf_counter() - check_began

                reference = host_speed()
                answered = []
                for request in range(READS_PER_BATCH):
                    path, conditional = mix[request % len(mix)]
                    sent_etag = etags.get(path) if conditional else None
                    tracer.begin_operation(f"read:{path}")
                    began = time.perf_counter()
                    status, headers, body = service.handle(path, sent_etag)
                    latency = time.perf_counter() - began
                    rep.requests += 1
                    want_status, want_etag, want_body = expected[path]
                    if status == 200:
                        etags[path] = headers.get("ETag", "")
                        ok = want_status == 200 and body == want_body
                    elif status == 304:
                        ok = want_status == 200 and sent_etag == want_etag
                    else:
                        ok = False
                    if ok:
                        answered.append(latency)
                    else:
                        rep.failed += 1
                        rep.stale += status in (200, 304)
                after = host_speed()
                rep.latencies += [(latency, scaled(latency, reference, after))
                                  for latency in answered]
                reference = after

            check_began = time.perf_counter()
            with tracer.untimed("gates"):
                rep.digest = rows_digest(engine.run_experiment(
                    workload.experiment, workers=1, store=store, max_new_runs=0,
                    **kwargs).rows())
                rep.bytes_written = sum(
                    os.path.getsize(f"{store_path}{suffix}")
                    for suffix in ("", "-wal") if os.path.exists(f"{store_path}{suffix}"))
            untimed += time.perf_counter() - check_began
            store.close()
        rep.wall_s = time.perf_counter() - started - untimed

    rep.attacker_investigated = sum(probe.investigated)
    if probe.scenarios:
        rep.substrate = substrate_counters(probe.scenarios)
    _remove_store(store_path)
    return rep


def _remove_store(store_path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{store_path}{suffix}").unlink(missing_ok=True)


def gate_errors(workload: Workload, seed: int, reps: List[Repetition]) -> List[str]:
    """Why the run's outputs are wrong (empty when every gate holds).

    Re-executes the run's first writer batch, so call it after timing ends.
    """
    errors = []
    first = reps[0]
    if (seed == DEFAULT_SEED and workload.pinned_digest is not None
            and first.digest != workload.pinned_digest):
        errors.append(f"stored rows digest {first.digest} of the first pass != "
                      f"pinned {workload.pinned_digest}")
    for spec, rows in first.first_batch:
        if rows_digest(engine.execute_cell(spec)) != rows_digest(rows):
            errors.append(f"cell {spec.run_id} (seed {spec.seed}) is not deterministic")
    if workload.backend == "netsim" and not any(rep.attacker_investigated for rep in reps):
        errors.append("the attacker was never investigated")
    return errors
