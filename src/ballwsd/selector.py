"""Sense selection: cosine against hypernym anchor balls, plus deduction.

A candidate pairs a sense with its level-i hypernym anchor; selection
takes the candidate whose anchor center is most cosine-similar to the
encoded vector.  Ties go to the lowest sense index, which makes the rule
total and deterministic (relevant when two senses of a word share a
direct hypernym and therefore an anchor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import anchor_at
from .geometry import Ball, BallConfiguration, GeometryConfig, cos_sim, contains, point_inside
from .inventory import Inventory, SenseId


@dataclass(frozen=True)
class Candidate:
    sense: SenseId
    anchor: SenseId
    ball: Ball     # the anchor's ball


@dataclass(frozen=True)
class Prediction:
    chosen: SenseId
    score: float
    inside_anchor_ball: bool
    margin: float  # winner score minus runner-up; inf for a lone candidate


def candidate_set(lemma: str, pos: str, level: int,
                  inventory: Inventory, balls: BallConfiguration) -> list[Candidate]:
    """All senses of the word that have an anchor at `level` (`anchor_at`).

    Sorted by sense index, so downstream argmax tie-breaking is stable.
    """
    out: list[Candidate] = []
    for sense in inventory.senses_of(lemma, pos):
        anchor = anchor_at(inventory.taxonomy, sense, level, balls)
        if anchor is not None:
            out.append(Candidate(sense=sense, anchor=anchor, ball=balls.get(str(anchor))))
    return out


def select_sense(v, candidates: list[Candidate],
                 cfg: GeometryConfig | None = None) -> Prediction:
    """Argmax of cos(v, anchor center); strict comparison keeps the first
    (lowest-index) candidate on exact ties.
    """
    cfg = cfg or GeometryConfig()
    if not candidates:
        raise ValueError("no candidates to select from")
    scores = [cos_sim(v, c.ball.center) for c in candidates]
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    if len(scores) > 1:
        margin = scores[best] - max(s for i, s in enumerate(scores) if i != best)
    else:
        margin = math.inf
    chosen = candidates[best]
    return Prediction(
        chosen=chosen.sense,
        score=scores[best],
        inside_anchor_ball=point_inside(np.asarray(v, dtype=np.float64),
                                        chosen.ball, cfg.epsilon),
        margin=margin,
    )


def deduction_query(hyponym: SenseId, hypernym: SenseId,
                    balls: BallConfiguration,
                    cfg: GeometryConfig | None = None) -> bool:
    """Is `hyponym` a kind of `hypernym`, judged purely from ball geometry?

    True iff the hypernym's ball contains the hyponym's ball.  Reflexive
    by the inclusive containment predicate.
    """
    cfg = cfg or GeometryConfig()
    inner = balls.get(str(hyponym))
    outer = balls.get(str(hypernym))
    if inner is None or outer is None:
        missing = hyponym if inner is None else hypernym
        raise KeyError(f"no ball for sense {missing}")
    return contains(outer, inner, cfg.epsilon)


# ---------------------------------------------------------------------------
# prediction files: instance_id, chosen sense, score, inside flag, margin

def save_predictions(predictions: dict[str, Prediction], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for iid in sorted(predictions):
            p = predictions[iid]
            fh.write(f"{iid}\t{p.chosen}\t{'%.17g' % p.score}\t"
                     f"inside:{1 if p.inside_anchor_ball else 0}\t{'%.17g' % p.margin}\n")
