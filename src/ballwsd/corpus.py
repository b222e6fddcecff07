"""Annotated corpora: parsing, ball-coverage filtering, and level lifting.

A record pairs a sense-annotated target occurrence with its sentence
tokens.  Lifting to level i rewrites the supervision target to the i-th
hypernym of the original sense, keeping the record only when that
hypernym actually has a ball.  A lift's coverage is read off its outcome
(the covered senses are the kept records' originals), and each coverage
ratio is one correctly rounded division.

A record's text is checked once, as it is read: its sense ids, index
list, tokens and index range.  A lifted record is built from a checked
one and shares its `tokens` and `indices`, so nothing is checked again.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .geometry import BallConfiguration
from .inventory import SenseId, Taxonomy


class CorpusError(ValueError):
    pass


class TrainingRecord(NamedTuple):
    """One annotated occurrence; a plain tuple, checked where its text is
    read (`parse_annotated_corpus`).

    `target` is the supervision label at the dataset's level; `original`
    is the level-0 sense annotation it was lifted from (equal to `target`
    in a level-0 dataset).  `indices` point at the target word's tokens.
    """

    target: SenseId
    original: SenseId
    tokens: tuple[str, ...]
    indices: tuple[int, ...]


def _parse_line(line: str) -> TrainingRecord:
    fields = line.split("\t")
    if len(fields) == 3:
        target_s, idx_s, tok_s = fields
        original_s = target_s
    elif len(fields) == 4:
        target_s, original_s, idx_s, tok_s = fields
    else:
        raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
    target = SenseId.parse(target_s)
    original = SenseId.parse(original_s)
    try:
        indices = tuple(int(t) for t in idx_s.split(","))
    except ValueError:
        raise ValueError(f"bad index list {idx_s!r}") from None
    # interned, so repeated words and every level's copy share one string
    tokens = tuple(map(sys.intern, tok_s.split()))
    if not tokens:
        raise ValueError("record has no tokens")
    for i in indices:
        if not 0 <= i < len(tokens):
            raise ValueError(f"target index {i} out of range for {len(tokens)} tokens")
    return TrainingRecord(target, original, tokens, indices)


def parse_annotated_corpus(path) -> list[TrainingRecord]:
    """Read a level-0 corpus: `sense_id<TAB>idx1,idx2<TAB>tok1 tok2 ...`.

    Lines starting with `#` and blank lines are skipped.  Lifted datasets
    carry a fourth column (original sense); both widths are accepted.
    """
    records: list[TrainingRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            try:
                records.append(_parse_line(line))
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
    return records


def save_records(records, path) -> None:
    """Write records in the corpus line format.

    The original-sense column is kept exactly when some record was lifted
    (target != original), so level-0 files stay 3-column.
    """
    recs = list(records)
    lifted = any(r.target != r.original for r in recs)
    with open(path, "w", encoding="utf-8") as fh:
        for r in recs:
            idx = ",".join(str(i) for i in r.indices)
            toks = " ".join(r.tokens)
            if lifted:
                fh.write(f"{r.target}\t{r.original}\t{idx}\t{toks}\n")
            else:
                fh.write(f"{r.target}\t{idx}\t{toks}\n")


def anchor_at(taxonomy: Taxonomy, sense: SenseId, level: int,
              balls: BallConfiguration) -> SenseId | None:
    """The sense whose ball stands for `sense` at `level`: its level-th
    hypernym (level 0 is the sense itself), provided the sense is in the
    taxonomy, that hypernym exists and it has a ball.  None otherwise.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if sense not in taxonomy:
        return None
    for _ in range(level):
        sense = taxonomy.parent_of(sense)
        if sense is None:
            return None
    return sense if sense in balls else None


def lift_to_level(records, taxonomy: Taxonomy, level: int, config: BallConfiguration) -> list[TrainingRecord]:
    """Rewrite targets to the level-th hypernym of each record's original sense.

    Records without an anchor at that level (see `anchor_at`) are
    dropped.  Level 0 reduces to ball-coverage filtering.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    out: list[TrainingRecord] = []
    for r in records:
        anchor = anchor_at(taxonomy, r.original, level, config)
        if anchor is not None:
            out.append(TrainingRecord(anchor, r.original, r.tokens, r.indices))
    return out


def dataset_report(dataset: str, level: int, records, kept) -> str:
    """The `stats.txt` line for one lift.  A record is kept exactly when its
    original sense has an anchor, so the kept originals are the covered senses."""
    seen = len({r.original for r in records})
    covered = len({r.original for r in kept})
    return (f"{dataset} L{level}: "
            f"senses {covered}/{seen} ({_percent(covered, seen)}), "
            f"records {len(kept)}/{len(records)} ({_percent(len(kept), len(records))})")


def _percent(part: int, whole: int) -> str:
    return f"{(part / whole if whole else 0.0) * 100:.2f}%"
