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
from .geometry import BallConfiguration, GeometryConfig, as_vector, contains, point_inside
from .inventory import Inventory, SenseId


@dataclass(frozen=True)
class Candidate:
    sense: SenseId
    anchor: SenseId
    row: int       # the anchor ball's row in the configuration


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
            out.append(Candidate(sense=sense, anchor=anchor, row=balls.row[str(anchor)]))
    return out


def select_sense(v, candidates: list[Candidate], balls: BallConfiguration,
                 cfg: GeometryConfig | None = None) -> Prediction:
    """Argmax of cos(v, anchor center) over the candidates' rows of
    `balls`; strict comparison keeps the first (lowest-index) candidate on
    exact ties.
    """
    cfg = cfg or GeometryConfig()
    if not candidates:
        raise ValueError("no candidates to select from")
    # cos_sim's arithmetic, with v validated once and the row norms cached
    v = as_vector(v, dim=balls.dim)
    nv = float(np.linalg.norm(v))
    centers, norms = balls.centers, balls.norms
    scores = []
    for c in candidates:
        nc = norms[c.row]
        if nv == 0.0 or nc == 0.0:
            raise ValueError("cosine similarity undefined for zero-norm input")
        scores.append(float(np.dot(v, centers[c.row]) / (nv * nc)))
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
        inside_anchor_ball=point_inside(v, balls, balls.ids[chosen.row], cfg.epsilon),
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
    inner, outer = str(hyponym), str(hypernym)
    for sense_id in (inner, outer):
        if sense_id not in balls:
            raise KeyError(f"no ball for sense {sense_id}")
    return contains(balls, outer, inner, cfg.epsilon)


# ---------------------------------------------------------------------------
# prediction files: instance_id, chosen sense, score, inside flag, margin

def save_predictions(predictions: dict[str, Prediction], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for iid in sorted(predictions):
            p = predictions[iid]
            fh.write(f"{iid}\t{p.chosen}\t{'%.17g' % p.score}\t"
                     f"inside:{1 if p.inside_anchor_ball else 0}\t{'%.17g' % p.margin}\n")
