"""Sense inventory: sense identifiers, the hypernym taxonomy, and lookups.

The taxonomy is a forest: every sense has at most one hypernym.  Input
edge files may disagree; extra parents for a node are dropped (first edge
wins) and recorded so callers can report them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

log = logging.getLogger(__name__)


class TaxonomyError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class SenseId:
    """A sense key of the form lemma.pos.index, e.g. aim.n.02."""

    lemma: str
    pos: str
    index: int

    def __post_init__(self):
        if not self.lemma or not self.pos:
            raise ValueError(f"empty lemma or pos in sense id {self!r}")
        if self.index < 0:
            raise ValueError(f"negative sense index in {self!r}")

    def __str__(self) -> str:
        return f"{self.lemma}.{self.pos}.{self.index:02d}"

    @property
    def word(self) -> tuple[str, str]:
        return (self.lemma, self.pos)

    @classmethod
    def parse(cls, text: str) -> "SenseId":
        # lemmas may themselves contain dots, so split from the right
        parts = text.rsplit(".", 2)
        if len(parts) != 3:
            raise ValueError(f"malformed sense id {text!r}, want lemma.pos.index")
        lemma, pos, idx = parts
        if not idx.isdigit():
            raise ValueError(f"malformed sense index in {text!r}")
        return cls(lemma, pos, int(idx))


class Taxonomy:
    """Parent/child structure over SenseId nodes."""

    def __init__(self, parent: dict[SenseId, SenseId | None]):
        self._parent = dict(parent)
        self._children: dict[SenseId, list[SenseId]] = {n: [] for n in self._parent}
        for node, par in self._parent.items():
            if par is not None:
                if par not in self._parent:
                    raise TaxonomyError(f"parent {par} of {node} is not a node")
                self._children[par].append(node)
        for kids in self._children.values():
            kids.sort()
        self._nodes = sorted(self._parent)
        self._roots = [n for n in self._nodes if self._parent[n] is None]
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        state: dict[SenseId, int] = {}  # 1 = on current walk, 2 = done
        for start in self._parent:
            node, trail = start, []
            while node is not None and state.get(node) != 2:
                if state.get(node) == 1:
                    raise TaxonomyError(f"cycle through {node}")
                state[node] = 1
                trail.append(node)
                node = self._parent[node]
            for n in trail:
                state[n] = 2

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: SenseId) -> bool:
        return node in self._parent

    def nodes(self) -> list[SenseId]:
        return list(self._nodes)

    def roots(self) -> list[SenseId]:
        return list(self._roots)

    def parent_of(self, node: SenseId) -> SenseId | None:
        if node not in self._parent:
            raise KeyError(f"unknown sense {node}")
        return self._parent[node]

    def children_of(self, node: SenseId) -> list[SenseId]:
        if node not in self._parent:
            raise KeyError(f"unknown sense {node}")
        return list(self._children[node])


@dataclass
class Inventory:
    """Taxonomy plus the grouping of senses by surface word (lemma, pos)."""

    taxonomy: Taxonomy
    dropped_edges: list[tuple[SenseId, SenseId]] = field(default_factory=list)

    def __post_init__(self):
        self._by_word: dict[tuple[str, str], list[SenseId]] = {}
        for node in self.taxonomy.nodes():
            self._by_word.setdefault(node.word, []).append(node)
        for senses in self._by_word.values():
            senses.sort(key=lambda s: s.index)

    def words(self) -> list[tuple[str, str]]:
        return sorted(self._by_word)

    def senses_of(self, lemma: str, pos: str) -> list[SenseId]:
        return list(self._by_word.get((lemma, pos), []))


def load_inventory(path) -> Inventory:
    """Read an edge file: one `child<TAB>parent` pair per line.

    A parent of `-` marks an explicit root; nodes that only ever appear on
    the right-hand side are implicit roots.  `#` starts a comment line.
    If a child is listed with several parents, the first edge wins and the
    rest are dropped (kept in Inventory.dropped_edges).
    """
    parent: dict[SenseId, SenseId | None] = {}
    defined: set[SenseId] = set()  # children whose edge has been seen explicitly
    dropped: list[tuple[SenseId, SenseId]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise TaxonomyError(f"{path}:{lineno}: expected `child<TAB>parent`, got {line!r}")
            try:
                child = SenseId.parse(fields[0])
                par = None if fields[1] == "-" else SenseId.parse(fields[1])
            except ValueError as exc:
                raise TaxonomyError(f"{path}:{lineno}: {exc}") from None
            if par is not None and par not in parent:
                parent[par] = None  # provisional root until its own edge shows up
            if child in defined:
                if par is not None:
                    dropped.append((child, par))
                continue
            parent[child] = par
            defined.add(child)
    if dropped:
        log.warning("%s: %d extra parent edges dropped, first %s -> %s (keeping %s)",
                    path, len(dropped), *dropped[0], parent[dropped[0][0]] or "-")
    try:
        taxonomy = Taxonomy(parent)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None
    return Inventory(taxonomy=taxonomy, dropped_edges=dropped)


def hypernym_at(taxonomy: Taxonomy, sense: SenseId, level: int) -> SenseId | None:
    """The level-th hypernym of a sense; level 0 is the sense itself.

    Returns None once the walk runs past a root.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if sense not in taxonomy:
        raise KeyError(f"unknown sense {sense}")
    cur: SenseId | None = sense
    for _ in range(level):
        cur = taxonomy.parent_of(cur)
        if cur is None:
            return None
    return cur


def check_distinct_hypernym_assumption(inventory: Inventory) -> list[tuple[SenseId, SenseId]]:
    """Find sense pairs of the same word that share a direct hypernym.

    The selection rule keys candidates by their hypernym anchor, so such
    pairs collapse to a tie; callers surface them in reports.
    Returned pairs are ordered (lower sense index first) and sorted.
    """
    collisions: list[tuple[SenseId, SenseId]] = []
    tax = inventory.taxonomy
    for word in inventory.words():
        senses = inventory.senses_of(*word)
        by_parent: dict[SenseId, list[SenseId]] = {}
        for s in senses:
            par = tax.parent_of(s)
            if par is not None:
                by_parent.setdefault(par, []).append(s)
        for group in by_parent.values():
            group.sort(key=lambda s: s.index)
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    collisions.append((group[i], group[j]))
    return sorted(collisions)
