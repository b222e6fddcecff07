"""Annotated corpora: parsing, ball-coverage filtering, and level lifting.

A record pairs a sense-annotated target occurrence with its sentence
tokens.  Lifting to level i rewrites the supervision target to the i-th
hypernym of the original sense, keeping the record only when that
hypernym actually has a ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import BallConfiguration
from .inventory import SenseId, Taxonomy, hypernym_at


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class TrainingRecord:
    """One annotated occurrence.

    `target` is the supervision label at the dataset's level; `original`
    is the level-0 sense annotation it was lifted from (equal to `target`
    in a level-0 dataset).  `indices` point at the target word's tokens.
    """

    target: SenseId
    original: SenseId
    tokens: tuple[str, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not self.tokens:
            raise CorpusError("record has no tokens")
        if not self.indices:
            raise CorpusError("record has no target indices")
        for i in self.indices:
            if not (0 <= i < len(self.tokens)):
                raise CorpusError(f"target index {i} out of range for {len(self.tokens)} tokens")


def _parse_line(line: str, lineno: int, path) -> TrainingRecord:
    fields = line.split("\t")
    if len(fields) == 3:
        target_s, idx_s, tok_s = fields
        original_s = target_s
    elif len(fields) == 4:
        target_s, original_s, idx_s, tok_s = fields
    else:
        raise CorpusError(f"{path}:{lineno}: expected 3 or 4 tab-separated fields, got {len(fields)}")
    try:
        target = SenseId.parse(target_s)
        original = SenseId.parse(original_s)
    except ValueError as exc:
        raise CorpusError(f"{path}:{lineno}: {exc}") from exc
    try:
        indices = tuple(int(t) for t in idx_s.split(","))
    except ValueError as exc:
        raise CorpusError(f"{path}:{lineno}: bad index list {idx_s!r}") from exc
    tokens = tuple(tok_s.split())
    try:
        return TrainingRecord(target, original, tokens, indices)
    except CorpusError as exc:
        raise CorpusError(f"{path}:{lineno}: {exc}") from exc


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
            records.append(_parse_line(line, lineno, path))
    return records


def save_records(records, path, with_original: bool | None = None) -> None:
    """Write records in the corpus line format.

    with_original=None keeps the original-sense column exactly when some
    record was lifted (target != original), so level-0 files stay 3-column.
    """
    recs = list(records)
    if with_original is None:
        with_original = any(r.target != r.original for r in recs)
    with open(path, "w", encoding="utf-8") as fh:
        for r in recs:
            idx = ",".join(str(i) for i in r.indices)
            toks = " ".join(r.tokens)
            if with_original:
                fh.write(f"{r.target}\t{r.original}\t{idx}\t{toks}\n")
            else:
                fh.write(f"{r.target}\t{idx}\t{toks}\n")


def lift_to_level(records, taxonomy: Taxonomy, level: int, config: BallConfiguration) -> list[TrainingRecord]:
    """Rewrite targets to the level-th hypernym of each record's original sense.

    Records whose original sense is missing from the taxonomy, whose
    level-th hypernym does not exist, or whose hypernym has no ball are
    dropped.  Level 0 reduces to ball-coverage filtering.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    out: list[TrainingRecord] = []
    for r in records:
        if r.original not in taxonomy:
            continue
        anchor = hypernym_at(taxonomy, r.original, level)
        if anchor is None or str(anchor) not in config:
            continue
        out.append(TrainingRecord(anchor, r.original, r.tokens, r.indices))
    return out


@dataclass(frozen=True)
class DatasetStats:
    """Coverage of one dataset at one level, in exact counts."""

    dataset: str
    level: int
    total_senses: int
    senses_with_balls: int
    total_records: int
    records_kept: int

    @property
    def sense_ratio(self) -> Fraction:
        if self.total_senses == 0:
            return Fraction(0)
        return Fraction(self.senses_with_balls, self.total_senses)

    @property
    def record_ratio(self) -> Fraction:
        if self.total_records == 0:
            return Fraction(0)
        return Fraction(self.records_kept, self.total_records)

    def render(self) -> str:
        return (
            f"{self.dataset} L{self.level}: "
            f"senses {self.senses_with_balls}/{self.total_senses} "
            f"({float(self.sense_ratio) * 100:.2f}%), "
            f"records {self.records_kept}/{self.total_records} "
            f"({float(self.record_ratio) * 100:.2f}%)"
        )


def dataset_report(dataset: str, level: int, records, kept,
                   taxonomy: Taxonomy, config: BallConfiguration) -> DatasetStats:
    """Coverage stats for one lift: sense counts from the corpus vocabulary,
    record counts from the lift outcome.

    A sense counts as covered when its level-th hypernym exists and has a
    ball, mirroring the record-keeping rule.
    """
    seen: set[SenseId] = {r.original for r in records}
    covered = 0
    for s in sorted(seen):
        if s not in taxonomy:
            continue
        anchor = hypernym_at(taxonomy, s, level)
        if anchor is not None and str(anchor) in config:
            covered += 1
    return DatasetStats(
        dataset=dataset,
        level=level,
        total_senses=len(seen),
        senses_with_balls=covered,
        total_records=len(list(records)),
        records_kept=len(list(kept)),
    )
