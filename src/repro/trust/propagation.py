"""Trust propagation through recommendations (Equations 6 and 7).

When the observer's own evidence about a subject is insufficient, trust is
built from other nodes' recommendations:

* **Concatenated propagation** (Eq. 6): trust through a single third party,
  ``Tc^{A,I} = R^{A,S} · T^{S,I}``, where ``R^{A,S}`` is how much ``A`` trusts
  the recommendations issued by ``S``.
* **Multipath propagation** (Eq. 7): several recommenders are combined with
  weights proportional to the recommendation trust placed in each of them,
  ``Tm^{A,I} = Σ_i w_i · R^{A,S_i} · T^{S_i,I}`` with
  ``w_i = 1 / Σ_j R^{A,S_j}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Recommendation:
    """A recommendation received from ``recommender`` about ``subject``."""

    recommender: str
    subject: str
    trust_value: float


def concatenated_trust(recommendation_trust: float, recommended_trust: float) -> float:
    """Equation 6: trust in ``I`` built through a single third party ``S``."""
    return recommendation_trust * recommended_trust


def normalised_weights(recommendation_trusts: Sequence[float]) -> List[float]:
    """Weights ``w_i = 1 / Σ_j R^{A,S_j}`` of Eq. 7 (all equal by construction).

    When every recommendation trust is zero — or negligibly small — (or the
    list is empty) the weights are zero, meaning the recommendations carry no
    information at all.
    """
    total = sum(recommendation_trusts)
    if total <= 1e-12:
        return [0.0 for _ in recommendation_trusts]
    return [1.0 / total for _ in recommendation_trusts]


def multipath_trust(
    recommendations: Sequence[Tuple[float, float]],
) -> float:
    """Equation 7: combine multiple recommendations.

    ``recommendations`` is a sequence of ``(R^{A,S_i}, T^{S_i,I})`` pairs.  The
    result is the recommendation-trust-weighted mean of the products
    ``R^{A,S_i}·T^{S_i,I}``; with no usable recommendation the function
    returns 0 (maximal uncertainty).
    """
    if not recommendations:
        return 0.0
    rec_trusts = [r for r, _ in recommendations]
    weights = normalised_weights(rec_trusts)
    return sum(w * r * t for w, (r, t) in zip(weights, recommendations))


def combine_recommendations(
    recommendations: Sequence[Recommendation],
    recommendation_trust: Mapping[str, float],
    default_recommendation_trust: float = 0.4,
) -> float:
    """Helper applying Eq. 7 to :class:`Recommendation` objects.

    ``recommendation_trust`` maps recommender id to ``R^{A,S}``; missing
    recommenders fall back to ``default_recommendation_trust``.
    """
    pairs = [
        (
            recommendation_trust.get(rec.recommender, default_recommendation_trust),
            rec.trust_value,
        )
        for rec in recommendations
    ]
    return multipath_trust(pairs)


def batch_multipath_trust(
    pairs_by_subject: Mapping[str, Sequence[Tuple[float, float]]],
) -> Dict[str, float]:
    """Equation 7 for many subjects at once.

    Equivalent to ``{s: multipath_trust(pairs) for s, pairs in ...}`` but
    evaluated column-wise over numpy arrays: pass one accumulates the
    recommendation-trust totals Σ_j R^{A,S_j} position by position, pass two
    accumulates the weighted products ``(w·R)·T`` in the same order.  Because
    both accumulations visit each subject's pairs in their original sequence
    with the scalar grouping, the results are bit-identical to the per-subject
    scalar calls; narrow batches (< 16 subjects) simply delegate.
    """
    subjects = list(pairs_by_subject)
    if len(subjects) < 16:
        return {s: multipath_trust(pairs_by_subject[s]) for s in subjects}

    lengths = [len(pairs_by_subject[s]) for s in subjects]
    max_len = max(lengths, default=0)
    if max_len == 0:
        return {s: 0.0 for s in subjects}
    rec = np.zeros((len(subjects), max_len), dtype=np.float64)
    rtv = np.zeros((len(subjects), max_len), dtype=np.float64)
    for i, subject in enumerate(subjects):
        for k, (r, t) in enumerate(pairs_by_subject[subject]):
            rec[i, k] = r
            rtv[i, k] = t
    counts = np.array(lengths, dtype=np.int64)

    # Pass 1: totals, accumulated pair by pair (same grouping as sum()).
    totals = np.zeros(len(subjects), dtype=np.float64)
    for k in range(max_len):
        mask = counts > k
        totals[mask] = totals[mask] + rec[mask, k]
    weights = np.where(totals > 1e-12, 1.0 / np.where(totals > 1e-12, totals, 1.0), 0.0)

    # Pass 2: Σ (w·R)·T with the scalar's left-to-right association.
    acc = np.zeros(len(subjects), dtype=np.float64)
    for k in range(max_len):
        mask = counts > k
        acc[mask] = acc[mask] + (weights[mask] * rec[mask, k]) * rtv[mask, k]
    return {s: float(acc[i]) if lengths[i] else 0.0 for i, s in enumerate(subjects)}


def blended_trust(
    direct_trust: float,
    propagated_trust: float,
    direct_weight: float = 0.7,
) -> float:
    """Blend first-hand and propagated trust (Property 5).

    First-hand evidence is privileged: ``direct_weight`` (default 0.7) of the
    result comes from the observer's own trust value.
    """
    if not 0.0 <= direct_weight <= 1.0:
        raise ValueError("direct_weight must be in [0, 1]")
    return direct_weight * direct_trust + (1.0 - direct_weight) * propagated_trust


def transitive_trust_chain(trust_values: Sequence[float]) -> float:
    """Trust along a chain A→S1→…→I obtained by repeated concatenation (Eq. 6).

    Because every factor is ≤ 1 in absolute value, trust can only shrink along
    the chain, which matches the intuition that longer recommendation chains
    are less reliable.
    """
    result = 1.0
    for value in trust_values:
        result = concatenated_trust(result, value)
    return result


def recommendation_matrix_trust(
    subject: str,
    recommenders: Mapping[str, Mapping[str, float]],
    recommendation_trust: Mapping[str, float],
    default_recommendation_trust: float = 0.4,
) -> float:
    """Apply Eq. 7 from a recommender→(subject→trust) matrix.

    Recommenders that do not express an opinion about ``subject`` are skipped.
    """
    pairs: List[Tuple[float, float]] = []
    for recommender, opinions in recommenders.items():
        if subject not in opinions:
            continue
        rec_trust = recommendation_trust.get(recommender, default_recommendation_trust)
        pairs.append((rec_trust, opinions[subject]))
    return multipath_trust(pairs)
