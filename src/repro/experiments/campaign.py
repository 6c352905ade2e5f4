"""The ``campaign`` experiment: the paper's detector against the baselines.

The paper's claims rest on judging the attacker from identical evidence.
One ``campaign`` cell is one full-stack MANET simulation (netsim backend:
OLSR over the wireless medium, the link-spoofing attack, colluding liars,
the cooperative investigation), and every system under test judges that
same simulation:

* ``detector`` — the paper's trust-weighted aggregate and decision rule;
  its columns come from the last round that investigated the attacker and
  from the investigator's final trust snapshot;
* ``watchdog``, ``beta``, ``cap-olsr``, ``averaging`` — the related-work
  baselines of :mod:`repro.baselines`; each replays the investigation's
  answer stream (``result.rounds[*].answers``) through its
  ``process_round`` adapter (the :mod:`repro.experiments.ablation`
  methodology).

So a cell yields one row per system in :data:`SYSTEMS`, and a grid of N
scenarios runs N simulations whatever the number of systems.  The scenario
axes are ordinary engine axes (``total_nodes``, ``attack_variant``,
``loss_model``, ``loss_probability``, ``max_speed``, ``liar_fraction``; the
fixed ``repetition`` can be promoted with ``--axis repetition=0,1,2``)::

    python -m repro.experiments run campaign \
        --axis total_nodes=8,16 --axis liar_fraction=0.0,0.25 \
        --axis loss_model=bernoulli,distance --axis max_speed=0,5 \
        --workers 4 --db campaign.sqlite --resume
    python -m repro.experiments report --db campaign.sqlite --experiment campaign \
        --axis total_nodes=8,16 --axis liar_fraction=0.0,0.25 \
        --axis loss_model=bernoulli,distance --axis max_speed=0,5

The detector runs the plain :class:`~repro.trust.manager.TrustParameters`
(trust floor 0, no separate recovery factor, every node starting at the
default trust); these are declared ``fixed`` parameters, so they enter each
cell's content hash and can be overridden like any other.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.averaging import AveragingTrustSystem
from repro.baselines.beta_reputation import BetaReputationSystem
from repro.baselines.cap_olsr import CapOlsrDetector
from repro.baselines.watchdog import WatchdogPathrater
from repro.core.decision import DecisionOutcome
from repro.core.signatures import LinkSpoofingVariant
from repro.experiments.ablation import answers_to_bools
from repro.experiments.engine import (
    ExperimentDefinition,
    ExperimentSpec,
    register,
)
from repro.experiments.rounds import ExperimentResult

#: Systems judged in every cell: the paper's detector, then the related-work
#: baselines re-implemented in :mod:`repro.baselines`.
SYSTEMS = ("detector", "watchdog", "beta", "cap-olsr", "averaging")

#: Factories building the per-cell baseline adapter for one investigating
#: node.  Every adapter exposes ``process_round(suspect, answers) -> score``
#: and ``classify(suspect) -> "intruder" | "well-behaving"``.
_BASELINE_FACTORIES = {
    "watchdog": lambda owner: WatchdogPathrater(owner=owner),
    "beta": lambda owner: BetaReputationSystem(owner=owner),
    "cap-olsr": lambda owner: CapOlsrDetector(owner=owner),
    "averaging": lambda owner: AveragingTrustSystem(owner=owner),
}

#: Columns the report's by-system aggregates average.
_VALUE_COLUMNS = ("final_detect", "attacker_trust", "liar_trust",
                  "honest_trust", "cycles", "flagged")


def _mean(values: List[float]):
    return sum(values) / len(values) if values else None


def _campaign_rows(spec: ExperimentSpec,
                   result: ExperimentResult) -> List[Dict[str, object]]:
    """One row per system, every system judging this cell's simulation.

    Values are raw; rounding happens only in the report formatter, so the
    aggregates average unbiased per-cell metrics.
    """
    params = spec.params_dict()
    attacker = result.attacker
    attacker_rounds = [record for record in result.rounds
                       if record.detect_value is not None]
    investigated = bool(attacker_rounds)
    scenario = {
        "nodes": result.config.total_nodes,
        "variant": str(params["attack_variant"]),
        "loss": f"{params['loss_model']}:{params['loss_probability']:g}",
        "speed": float(params["max_speed"]),
        "liar_fraction": float(params["liar_fraction"]),
        "seed": spec.seed,
        "investigated": investigated,
        "cycles": len(attacker_rounds),
    }
    stats = {
        "frames_sent": result.stats["frames_sent"],
        "frames_delivered": result.stats["frames_delivered"],
        "events": result.stats["events_processed"],
    }

    snapshot = (result.rounds[-1].trust_snapshot if result.rounds
                else result.initial_trust)
    default_trust = result.config.trust.default_trust

    def trust_of(node: str) -> float:
        return snapshot.get(node, default_trust)

    last = attacker_rounds[-1] if attacker_rounds else None
    rows = [{
        "run_id": f"{spec.cell_id}/detector",
        "system": "detector",
        **scenario,
        # Stored as 0/1 so aggregates read as detection rates.
        "flagged": int(investigated and last.outcome == DecisionOutcome.INTRUDER),
        "final_detect": last.detect_value if last else None,
        "attacker_trust": trust_of(attacker),
        "liar_trust": _mean([trust_of(node) for node in sorted(result.liars)]),
        "honest_trust": _mean([trust_of(node)
                               for node in sorted(result.honest_responders)]),
        **stats,
    }]
    for system in SYSTEMS[1:]:
        adapter = _BASELINE_FACTORIES[system](result.investigator)
        score = None
        for record in attacker_rounds:
            score = adapter.process_round(attacker, answers_to_bools(record.answers))
        rows.append({
            "run_id": f"{spec.cell_id}/{system}",
            "system": system,
            **scenario,
            "flagged": int(investigated and adapter.classify(attacker) == "intruder"),
            # Baselines keep no per-responder trust (the paper's
            # differentiator), so the detect and liar/honest columns stay empty.
            "final_detect": None,
            "attacker_trust": score,
            "liar_trust": None,
            "honest_trust": None,
            **stats,
        })
    return rows


#: Engine registration.  Every system group of an aggregate keeps ``system``
#: first: score and flag columns mean something different per system, so a
#: mean across systems would average incomparable quantities.
CAMPAIGN_EXPERIMENT = register(ExperimentDefinition(
    name="campaign",
    description="detector vs related-work baselines on identical full-stack runs",
    rows_from_result=_campaign_rows,
    axes={
        "total_nodes": (16,),
        "attack_variant": (str(LinkSpoofingVariant.FALSE_EXISTING_LINK),),
        "loss_model": ("bernoulli",),
        "loss_probability": (0.0,),
        "max_speed": (0.0,),
        "liar_fraction": (0.25,),
    },
    fixed={
        "repetition": 0,
        "warmup": 35.0,
        "attack_start": 40.0,
        "cycles": 5,
        "random_initial_trust": False,
        "trust_minimum": 0.0,
        "trust_beta_recovery": None,
    },
    default_backend="netsim",
    seed_mode="per-cell",
    report_title="Campaign — one row per system, every system judging the same run",
    aggregates=(
        ("Detector vs baselines — aggregate by system × liar fraction",
         ("system", "liar_fraction"), _VALUE_COLUMNS),
        ("Aggregate by system × attack variant × liar fraction",
         ("system", "variant", "liar_fraction"), _VALUE_COLUMNS),
        ("Aggregate by system × node count × loss model",
         ("system", "nodes", "loss"), _VALUE_COLUMNS),
    ),
))
