"""Sense selection: cosine against hypernym anchor balls, plus deduction.

A candidate pairs a sense with its level-i hypernym anchor; selection
takes the candidate whose anchor center is most cosine-similar to the
encoded vector.  Ties go to the lowest sense index, which makes the rule
total and deterministic (relevant when two senses of a word share a
direct hypernym and therefore an anchor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import anchor_at
from .geometry import EPSILON, BallConfiguration, containment_rule, gaps
from .inventory import Inventory, SenseId


@dataclass(frozen=True)
class Candidate:
    """A sense of the word and its anchor: the ball it is scored by, looked
    up by id in whichever configuration `select_sense` is given."""

    sense: SenseId
    anchor: SenseId


@dataclass(frozen=True)
class Prediction:
    """The chosen sense, its score and its margin (winner score minus
    runner-up; inf for a lone candidate), and the chosen candidate's
    anchor, which scoring compares with gold.  A prediction file holds no
    anchors, so one read back from it has None."""

    chosen: SenseId
    score: float
    margin: float
    anchor: SenseId | None = None


def candidate_set(lemma: str, pos: str, level: int,
                  inventory: Inventory, balls: BallConfiguration) -> list[Candidate]:
    """All senses of the word that have an anchor at `level` (`anchor_at`).

    Sorted by sense index, so downstream argmax tie-breaking is stable.
    """
    out: list[Candidate] = []
    for sense in inventory.senses_of(lemma, pos):
        anchor = anchor_at(inventory.taxonomy, sense, level, balls)
        if anchor is not None:
            out.append(Candidate(sense=sense, anchor=anchor))
    return out


def select_sense(V, candidates: list[Candidate],
                 balls: BallConfiguration) -> list[Prediction]:
    """One prediction per row of V (n x dim, the encoded records of one
    word): argmax of cos(row, anchor center) over the candidates' anchor
    balls, each found in `balls` by its id; argmax keeps the first
    (lowest-index) candidate on exact ties.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != balls.dim:
        raise ValueError(f"expected rows of width {balls.dim}, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise ValueError("vector has non-finite entries")
    centers = balls.centers[[balls.row[c.anchor] for c in candidates]]
    nv, nc = gaps(V, 0.0), gaps(centers, 0.0)
    if not (nv.all() and nc.all()):
        raise ValueError("cosine similarity undefined for zero-norm input")
    # one 1 x d by d x 1 product per (row, candidate): np.dot(v, c) bit for
    # bit, which V @ centers.T (another summation order) is not
    dots = np.matmul(V[:, None, None, :], centers[:, :, None])[:, :, 0, 0]
    scores = dots / (nv[:, None] * nc)
    best = np.argmax(scores, axis=1)
    at = np.arange(len(V)), best
    top, rest = scores[at], scores.copy()
    rest[at] = -np.inf
    margin = top - rest.max(axis=1)  # inf for a lone candidate
    return [Prediction(chosen=candidates[b].sense, score=float(t), margin=float(m),
                       anchor=candidates[b].anchor)
            for b, t, m in zip(best, top, margin)]


def deduction_query(hyponym: SenseId, hypernym: SenseId,
                    balls: BallConfiguration, epsilon: float = EPSILON) -> bool:
    """Is `hyponym` a kind of `hypernym`, judged purely from ball geometry?

    True iff the hypernym's ball contains the hyponym's ball by
    `containment_rule`.  Reflexive, since the rule is inclusive at the
    boundary.  A sense without a ball raises KeyError, the hyponym first.
    """
    i, o = balls.row.get(hyponym), balls.row.get(hypernym)
    for sense, row in ((hyponym, i), (hypernym, o)):
        if row is None:
            raise KeyError(f"no ball for sense {sense}")
    c, r = balls.centers, balls.radii
    return bool(containment_rule(gaps(c[i], c[o]), r[o], r[i], epsilon) <= 0.0)


# ---------------------------------------------------------------------------
# prediction files: instance_id, chosen sense, score, margin

def save_predictions(predictions: list[Prediction | None], level: int, path) -> None:
    """One line per attempted record, in record order, with the id
    `l<level>.<row:06d>`; an unattempted record (None) has no line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, p in enumerate(predictions):
            if p is not None:
                fh.write(f"l{level}.{i:06d}\t{p.chosen}\t"
                         f"{'%.17g' % p.score}\t{'%.17g' % p.margin}\n")
