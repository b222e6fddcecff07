"""Evaluation: per-level prediction, P/R/F1 scoring, synthetic fixtures.

Scoring follows the standard word-sense disambiguation protocol: an
instance without a prediction (no candidate had a ball at the requested
level) costs recall but not precision.  Each ratio is one correctly
rounded division of integer counts: P = c/a, R = c/g, and F1 = 2c/(a+g),
the closed form of 2PR/(P+R).

The synthetic fixture builds a small taxonomy whose context windows are
informative of a sense's direct hypernym but, when `senses_per_parent`
is even, deliberately carry no signal about which of two twin senses
under that hypernym is annotated.  Selection at hypernym level is then
cleanly learnable while sense-level selection is capped near one half,
reproducing the characteristic level-0 vs level-1 quality gap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import TrainingRecord
from .embeddings import EmbeddingTable
from .geometry import BallConfiguration
from .inventory import Inventory, SenseId, Taxonomy
from .selector import Prediction, candidate_set, select_sense


@dataclass(frozen=True)
class EvalReport:
    """Counts plus the ratios derived from them, each the float nearest its
    exact rational value, for one evaluation."""

    attempted: int
    correct: int
    total_gold: int
    skipped: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, correct: int, attempted: int, total_gold: int) -> "EvalReport":
        return cls(
            attempted=attempted,
            correct=correct,
            total_gold=total_gold,
            skipped=total_gold - attempted,
            precision=correct / attempted if attempted else 0.0,
            recall=correct / total_gold if total_gold else 0.0,
            f1=2 * correct / (attempted + total_gold) if correct else 0.0,
        )

    def render(self) -> str:
        return (f"P={self.precision:.4f} R={self.recall:.4f} F1={self.f1:.4f} "
                f"attempted={self.attempted} correct={self.correct} "
                f"total={self.total_gold} skipped={self.skipped}")


def score(predicted, gold) -> EvalReport:
    """Score row-aligned sequences: record i's predicted sense (None when
    not attempted) against its gold sense.  An unattempted row counts as
    skipped (recall denominator only)."""
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predictions for {len(gold)} gold senses")
    attempted = [i for i, p in enumerate(predicted) if p is not None]
    correct = sum(1 for i in attempted if predicted[i] == gold[i])
    return EvalReport.from_counts(correct, len(attempted), len(gold))


# ---------------------------------------------------------------------------
# report files

def save_reports(reports: dict[int, EvalReport], path, dataset: str = "eval") -> None:
    cols = ("dataset", "level", "precision", "recall", "f1", "attempted",
            "correct", "total_gold", "skipped")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#" + "\t".join(cols) + "\n")
        for level in sorted(reports):
            r = reports[level]
            fh.write("\t".join([
                dataset, str(level), "%.17g" % r.precision, "%.17g" % r.recall,
                "%.17g" % r.f1, str(r.attempted), str(r.correct),
                str(r.total_gold), str(r.skipped),
            ]) + "\n")


# ---------------------------------------------------------------------------
# synthetic fixture

# tokens per record, chance a context token is a signature word, signature vector spread
SENTENCE_LEN, SIGNATURE_PROB, NOISE = 9, 0.75, 0.6


@dataclass
class SyntheticFixture:
    inventory: Inventory
    table: EmbeddingTable
    records: list[TrainingRecord]     # grouped by leaf sense, in order
    leaves: list[SenseId]
    tops: list[SenseId]

    @property
    def taxonomy(self) -> Taxonomy:
        return self.inventory.taxonomy


def make_synthetic_fixture(seed: int = 0, n_top: int = 4, senses_per_parent: int = 3,
                           vocab_size: int = 200, records_per_sense: int = 100,
                           chain_levels: int = 0, embedding_dim: int = 32) -> SyntheticFixture:
    """Build a taxonomy, embeddings and an annotated corpus in one piece.

    The taxonomy has one root, `n_top` top hypernyms (behind a chain of
    `chain_levels` single-child nodes each when requested) and
    `senses_per_parent` leaf senses under every top.  Ambiguous words
    supply the leaves: with even `senses_per_parent` a word's senses
    come in twin pairs sharing a direct hypernym, with odd counts every
    sense of a word sits under a different top.

    Context tokens are drawn from a per-top signature vocabulary with
    probability SIGNATURE_PROB (fillers otherwise), so the window mean
    identifies the top, never the twin.  Word embeddings are
    orthogonalized against the taxonomy scaffold's embeddings to keep
    static word-to-anchor similarity out of the signal.
    """
    if n_top < 2 or senses_per_parent < 1:
        raise ValueError("need n_top >= 2 and senses_per_parent >= 1")
    if embedding_dim < n_top + chain_levels * n_top + 2:
        raise ValueError("embedding_dim too small to orthogonalize the scaffold")
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v)

    root = SenseId("entity", "n", 1)
    tops = [SenseId(f"domain{t}", "n", 1) for t in range(n_top)]
    parent: dict[SenseId, SenseId | None] = {root: None}
    vectors: dict[str, np.ndarray] = {"entity": unit(rng.standard_normal(embedding_dim))}

    # orthonormal top directions
    raw = rng.standard_normal((n_top, embedding_dim))
    q, _ = np.linalg.qr(raw.T)
    top_vec = {t: q[:, t].copy() for t in range(n_top)}

    scaffold = [vectors["entity"]]
    for t, top in enumerate(tops):
        vectors[top.lemma] = top_vec[t]
        scaffold.append(top_vec[t])
        above = root
        for j in range(chain_levels, 0, -1):
            node = SenseId(f"domain{t}up{j}", "n", 1)
            parent[node] = above
            vec = unit(top_vec[t] + 0.15 * rng.standard_normal(embedding_dim))
            vectors[node.lemma] = vec
            scaffold.append(vec)
            above = node
        parent[top] = above

    # leaf senses from ambiguous words
    n_words = n_top if senses_per_parent % 2 == 0 else senses_per_parent
    senses_of: Counter[int] = Counter()  # a word's senses are numbered in (t, s) order
    leaves = []
    for t in range(n_top):
        for s in range(senses_per_parent):
            word = (t + (s // 2 if senses_per_parent % 2 == 0 else s)) % n_words
            senses_of[word] += 1
            leaf = SenseId(f"word{word}", "n", senses_of[word])
            parent[leaf] = tops[t]
            leaves.append(leaf)

    # word embeddings, orthogonal to the scaffold
    basis = np.stack(scaffold)
    for j in range(n_words):
        v = rng.standard_normal(embedding_dim)
        v -= basis.T @ np.linalg.lstsq(basis.T, v, rcond=None)[0]
        vectors[f"word{j}"] = unit(v)

    # context vocabulary: per-top signatures plus fillers
    sig_size = vocab_size // (n_top + 1)
    if sig_size < 1:
        raise ValueError("vocab_size too small for per-top signatures")
    signatures: list[list[str]] = []
    for t in range(n_top):
        words = []
        for i in range(sig_size):
            w = f"sig{t}_{i}"
            vectors[w] = unit(top_vec[t] + NOISE * rng.standard_normal(embedding_dim))
            words.append(w)
        signatures.append(words)
    fillers = []
    for i in range(vocab_size - n_top * sig_size):
        w = f"fill{i}"
        vectors[w] = unit(rng.standard_normal(embedding_dim))
        fillers.append(w)

    records: list[TrainingRecord] = []
    for t in range(n_top):
        for s in range(senses_per_parent):
            leaf = leaves[t * senses_per_parent + s]
            for _ in range(records_per_sense):
                pos = int(rng.integers(0, SENTENCE_LEN))
                tokens = []
                for slot in range(SENTENCE_LEN):
                    if slot == pos:
                        tokens.append(leaf.lemma)
                    elif rng.random() < SIGNATURE_PROB:
                        tokens.append(signatures[t][int(rng.integers(0, sig_size))])
                    else:
                        tokens.append(fillers[int(rng.integers(0, len(fillers)))])
                records.append(TrainingRecord(leaf, leaf, tuple(tokens), (pos,)))

    inventory = Inventory(taxonomy=Taxonomy(parent))
    matrix = np.array(list(vectors.values()))
    return SyntheticFixture(
        inventory=inventory,
        table=EmbeddingTable(matrix, {w: i for i, w in enumerate(vectors)}),
        records=records,
        leaves=leaves,
        tops=tops,
    )


def split_records(records, n_train: int, n_test: int):
    """Per original sense: first n_train records to train, last n_test to
    test.  Growing n_train never changes the test set.
    """
    by_sense: dict[SenseId, list[TrainingRecord]] = {}
    for r in records:
        by_sense.setdefault(r.original, []).append(r)
    train_set, test_set = [], []
    for sense in sorted(by_sense):
        group = by_sense[sense]
        if n_train + n_test > len(group):
            raise ValueError(f"{sense}: {len(group)} records cannot cover "
                             f"{n_train} train + {n_test} test")
        train_set.extend(group[:n_train])
        test_set.extend(group[len(group) - n_test:])
    return train_set, test_set


# ---------------------------------------------------------------------------
# prediction

def predict_records(V: np.ndarray, records, level: int, inventory: Inventory,
                    balls: BallConfiguration) -> tuple[EvalReport, list[Prediction | None]]:
    """Predict already-lifted records at one level and score them.

    Row i of V is record i's encoder output:
    `forward_batch(params, *embed_records(records, table, window_k))`, and
    prediction i is its `Prediction`, or None (unattempted) when its word
    has no candidate with a ball at this level.  Gold is each record's
    target.  Each word's rows are selected in one `select_sense` call.
    """
    records = list(records)
    if len(V) != len(records):
        raise ValueError(f"{len(V)} encoded rows for {len(records)} records")
    by_word: dict[tuple[str, str], list[int]] = {}
    for i, rec in enumerate(records):
        by_word.setdefault(rec.original.word, []).append(i)
    predictions: list[Prediction | None] = [None] * len(records)
    for word, rows in by_word.items():
        candidates = candidate_set(*word, level, inventory, balls)
        if not candidates:
            continue
        for i, pred in zip(rows, select_sense(V[rows], candidates, balls)):
            predictions[i] = pred
    anchors = [None if p is None else p.anchor for p in predictions]
    return score(anchors, [r.target for r in records]), predictions
