"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import aggregate_detection, decide, DecisionOutcome
from repro.logs.parser import format_record, parse_line
from repro.logs.records import LogCategory, make_record
from repro.logs.store import LogStore
from repro.olsr.mpr import mpr_coverage_complete, select_mprs
from repro.trust.confidence import (
    effective_sample_size,
    margin_of_error,
    weighted_margin_of_error,
)
from repro.trust.entropy import (
    binary_entropy,
    entropy_trust_from_probability,
    probability_from_entropy_trust,
)
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager, TrustParameters
from repro.trust.propagation import multipath_trust, normalised_weights


# ---------------------------------------------------------------------- logs
# Exclude keys colliding with make_record's own parameter names (a Python
# call-level collision, not a log-format one; reserved *wire* keys like "t"
# are exercised separately and handled by the parser).
_field_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).filter(
    lambda key: key not in {"time", "node", "category", "event"}
)
_field_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters='-_.:, "\\\n='),
    max_size=20,
)


@given(
    time=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    node=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
    category=st.sampled_from(list(LogCategory)),
    event=st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_", min_size=1, max_size=16),
    fields=st.dictionaries(_field_keys, _field_values, max_size=5),
)
@settings(max_examples=200)
def test_log_record_text_roundtrip(time, node, category, event, fields):
    record = make_record(time, node, category, event, **fields)
    parsed = parse_line(format_record(record))
    assert parsed.node == record.node
    assert parsed.category == record.category
    assert parsed.event == record.event
    assert abs(parsed.time - record.time) < 1e-5
    assert parsed.fields == record.fields


@given(
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.sampled_from(list(LogCategory)),
            st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_", min_size=1, max_size=16),
            st.dictionaries(_field_keys, _field_values, max_size=5),
        ),
        max_size=8,
    )
)
@settings(max_examples=100)
def test_log_store_text_dump_roundtrip(entries):
    store = LogStore("n1")
    for time, category, event, fields in entries:
        store.log(time, category, event, **fields)
    reloaded = LogStore.from_text("n1", store.dump_text())
    assert len(reloaded) == len(store)
    for parsed, record in zip(reloaded, store):
        assert (parsed.node, parsed.category, parsed.event) == \
            (record.node, record.category, record.event)
        assert abs(parsed.time - record.time) < 1e-5
        assert parsed.fields == record.fields


# ----------------------------------------------------------------------- MPR
_node_names = st.sampled_from([f"n{i}" for i in range(8)])
_two_hop_names = st.sampled_from([f"t{i}" for i in range(10)])


@given(
    coverage=st.dictionaries(
        _node_names, st.sets(_two_hop_names, max_size=6), min_size=1, max_size=8
    )
)
@settings(max_examples=200)
def test_mpr_selection_always_covers_reachable_two_hop_set(coverage):
    symmetric = set(coverage)
    result = select_mprs(symmetric_neighbors=symmetric, coverage=coverage,
                         local_address="me")
    two_hop = set().union(*coverage.values()) - symmetric - {"me"} if coverage else set()
    reachable = two_hop - result.uncovered
    assert mpr_coverage_complete(result.mprs, coverage, reachable)
    assert result.mprs <= symmetric
    assert result.uncovered == set()  # every 2-hop node has a provider here


# --------------------------------------------------------------------- trust
@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_trust_bounds_and_sign(p):
    trust = entropy_trust_from_probability(p)
    assert -1.0 <= trust <= 1.0
    if p > 0.5:
        assert trust >= 0.0
    elif p < 0.5:
        assert trust <= 0.0


@given(p=st.floats(min_value=0.001, max_value=0.999, allow_nan=False))
def test_entropy_trust_inverse_roundtrip(p):
    trust = entropy_trust_from_probability(p)
    assert abs(probability_from_entropy_trust(trust) - p) < 1e-4


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_bounds(p):
    assert 0.0 <= binary_entropy(p) <= 1.0 + 1e-12


@given(
    initial=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    values=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                    min_size=0, max_size=20),
)
@settings(max_examples=200)
def test_trust_manager_always_within_bounds(initial, values):
    manager = TrustManager("me", TrustParameters())
    manager.set_initial_trust("x", initial)
    for slot, value in enumerate(values):
        kind = EvidenceKind.CORRECT_ANSWER if value >= 0 else EvidenceKind.INCORRECT_ANSWER
        evidences = []
        if value != 0.0:
            evidences.append(TrustEvidence("me", "x", kind, value=value, timestamp=float(slot)))
        manager.update("x", evidences, now=float(slot))
        assert 0.0 <= manager.trust_of("x") <= 1.0


@given(
    rec_trusts=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                        min_size=0, max_size=10),
)
def test_normalised_weights_and_multipath_bounds(rec_trusts):
    weights = normalised_weights(rec_trusts)
    assert all(w >= 0 for w in weights)
    pairs = [(r, 1.0) for r in rec_trusts]
    value = multipath_trust(pairs)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


# ---------------------------------------------------------------- confidence
@given(samples=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                        min_size=0, max_size=30),
       level=st.sampled_from([0.80, 0.90, 0.95, 0.99]))
def test_margin_of_error_non_negative_and_finite(samples, level):
    margin = margin_of_error(samples, level)
    assert margin >= 0.0
    assert math.isfinite(margin)


@given(
    data=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        min_size=1, max_size=20,
    )
)
def test_weighted_margin_non_negative(data):
    samples = [s for s, _ in data]
    weights = [w for _, w in data]
    margin = weighted_margin_of_error(samples, weights, 0.95)
    assert margin >= 0.0
    assert math.isfinite(margin)
    assert effective_sample_size(weights) <= len(weights) + 1e-9


# ------------------------------------------------------------------ decision
_answers = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(10)]),
    st.sampled_from([-1.0, 0.0, 1.0]),
    min_size=1, max_size=10,
)
_trust_values = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(10)]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=10,
)


@given(answers=_answers, trust=_trust_values)
@settings(max_examples=300)
def test_aggregate_detection_bounded(answers, trust):
    value = aggregate_detection(answers, trust)
    assert -1.0 <= value <= 1.0


@given(answers=_answers, trust=_trust_values)
def test_aggregate_sign_matches_unanimous_answers(answers, trust):
    values = set(answers.values())
    aggregate = aggregate_detection(answers, trust)
    if values == {1.0}:
        assert aggregate >= 0.0
    if values == {-1.0}:
        assert aggregate <= 0.0


@given(
    detect=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    margin=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    gamma=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
@settings(max_examples=300)
def test_decision_rule_is_exhaustive_and_exclusive(detect, margin, gamma):
    outcome = decide(detect, margin, gamma=gamma)
    assert outcome in (DecisionOutcome.WELL_BEHAVING, DecisionOutcome.INTRUDER,
                       DecisionOutcome.UNRECOGNIZED)
    # The two conclusive outcomes are mutually exclusive.
    well = gamma <= detect - margin <= 1.0
    intruder = -1.0 <= detect + margin <= -gamma
    assert not (well and intruder)
    if well:
        assert outcome == DecisionOutcome.WELL_BEHAVING
    elif intruder:
        assert outcome == DecisionOutcome.INTRUDER
    else:
        assert outcome == DecisionOutcome.UNRECOGNIZED


@given(
    detect=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    gamma=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_larger_margin_never_creates_a_conclusive_outcome(detect, gamma):
    tight = decide(detect, 0.0, gamma=gamma)
    wide = decide(detect, 1.5, gamma=gamma)
    if tight == DecisionOutcome.UNRECOGNIZED:
        assert wide == DecisionOutcome.UNRECOGNIZED
