"""Sense inventory: sense identifiers, the hypernym taxonomy, and lookups.

The taxonomy is a forest: every sense has at most one hypernym.  Input
edge files may disagree; extra parents for a node are dropped (first edge
wins) and recorded so callers can report them.  A file with no edge, or
a taxonomy with no node, is an error.  `Taxonomy` walks the forest once,
in pre-order from its roots: that walk is construction's row order and
the cycle check.
"""

from __future__ import annotations

import logging
from collections import Counter, namedtuple
from dataclasses import dataclass, field

log = logging.getLogger(__name__)


class TaxonomyError(ValueError):
    pass


class SenseId(namedtuple("SenseId", "lemma pos index")):
    """A sense key of the form lemma.pos.index, e.g. aim.n.02; a tuple, so
    it hashes, compares and sorts as `(lemma, pos, index)`."""

    __slots__ = ()

    def __new__(cls, lemma: str, pos: str, index: int):
        self = super().__new__(cls, lemma, pos, index)
        if not lemma or not pos:
            raise ValueError(f"empty lemma or pos in sense id {self!r}")
        if index < 0:
            raise ValueError(f"negative sense index in {self!r}")
        return self

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
        if not (idx.isascii() and idx.isdigit()):  # "١" and "²" are digits too
            raise ValueError(f"malformed sense index in {text!r}")
        return cls(lemma, pos, int(idx))


class Taxonomy:
    """Parent/child structure over SenseId nodes, each list in SenseId order."""

    def __init__(self, parent: dict[SenseId, SenseId | None]):
        self._parent = dict(parent)
        if not self._parent:
            raise TaxonomyError("empty taxonomy")
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
        # an explicit stack, so depth is bounded by memory, not recursion;
        # a node that no root reaches hangs off a cycle
        self._preorder: list[tuple[SenseId, int]] = []
        stack = [(root, 0) for root in self._roots]
        while stack:
            node, depth = stack.pop()
            self._preorder.append((node, depth))
            stack.extend((kid, depth + 1) for kid in self._children[node])
        if len(self._preorder) < len(self._parent):
            reached = {node for node, _ in self._preorder}
            node = next(n for n in self._parent if n not in reached)
            seen = set()
            while node not in seen:
                seen.add(node)
                node = self._parent[node]
            raise TaxonomyError(f"cycle through {node}")

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: SenseId) -> bool:
        return node in self._parent

    def nodes(self) -> list[SenseId]:
        return list(self._nodes)

    def roots(self) -> list[SenseId]:
        return list(self._roots)

    def preorder(self) -> list[tuple[SenseId, int]]:
        """(node, depth) for every node, each parent before its children and
        each subtree one contiguous run."""
        return list(self._preorder)

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
        # nodes() is in SenseId order, so words come sorted and each word's
        # senses in index order
        for node in self.taxonomy.nodes():
            self._by_word.setdefault(node.word, []).append(node)

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
            try:
                if len(fields) != 2:
                    raise ValueError(f"expected `child<TAB>parent`, got {line!r}")
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
    if not parent:
        raise TaxonomyError(f"{path}: empty inventory")
    if dropped:
        log.warning("%s: %d extra parent edges dropped, first %s -> %s (keeping %s)",
                    path, len(dropped), *dropped[0], parent[dropped[0][0]] or "-")
    try:
        taxonomy = Taxonomy(parent)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None
    return Inventory(taxonomy=taxonomy, dropped_edges=dropped)


def shared_hypernym_pairs(inventory: Inventory) -> int:
    """How many sense pairs of one word share a direct hypernym.

    The selection rule keys candidates by their hypernym anchor, so such
    pairs collapse to a tie; `eval` reports the count.
    """
    tax = inventory.taxonomy
    groups = Counter((s.word, p) for s in tax.nodes() if (p := tax.parent_of(s)) is not None)
    return sum(k * (k - 1) // 2 for k in groups.values())
