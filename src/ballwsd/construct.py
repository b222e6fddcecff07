"""Deterministic construction of nested sense balls from a taxonomy.

Center vectors have two blocks.  The prefix block holds a positive
multiple of the node's static word embedding and is fixed the moment a
ball is created; nothing later touches it, so embedding preservation is
exact by construction.  The extension block is a one-hot-style path
code: each (depth, child-index) pair used by the taxonomy owns a slot
(axis), and a node's extension coordinates are the translations it
accumulated along its ancestors' slot axes during packing.

Packing runs bottom-up.  For every parent:

  1. re-center each child subtree so the child ball sits at the origin
     of the extension block,
  2. translate each child subtree along its own slot axis, far enough
     out that all sibling balls are pairwise disconnected with slack
     (closed form; siblings forced onto a shared axis by slot overflow
     are packed along it in descending-radius order),
  3. wrap the children in a parent ball centered at their extension
     centroid on the parent's own prefix ray.

Balls are rows of two arrays in pre-order, where each subtree is one
contiguous run of rows.  Subtrees only ever move rigidly (one
extension-block translation of their rows), so nesting and disconnection
survive every later step exactly.  A final homothety about the origin
scales everything into the unit ball.
"""

from __future__ import annotations

import math

import numpy as np

from .embeddings import EmbeddingTable, hash_unit_vector
from .geometry import BallConfiguration, GeometryConfig
from .inventory import SenseId, Taxonomy

# relative slack added to every separation distance so float noise can
# never flip a verifier comparison
_REL_SLACK = 1e-7


class ConstructionError(RuntimeError):
    pass


def _preorder(taxonomy: Taxonomy) -> list[tuple[SenseId, int]]:
    """(node, depth) for every node, each parent listed before its children.

    An explicit stack instead of recursion, so depth is bounded by memory
    rather than by the interpreter's recursion limit.
    """
    order: list[tuple[SenseId, int]] = []
    stack = [(root, 0) for root in taxonomy.roots()]
    while stack:
        node, depth = stack.pop()
        order.append((node, depth))
        stack.extend((kid, depth + 1) for kid in taxonomy.children_of(node))
    return order


def _slot_map(taxonomy: Taxonomy, order, width: int) -> dict[tuple[int, int], int]:
    """Assign each used (depth, child-index) pair an extension axis.

    Pairs get distinct axes while they fit; overflow wraps around, which
    only costs packing density, never correctness.
    """
    used = {(depth + 1, idx) for node, depth in order
            for idx in range(1, len(taxonomy.children_of(node)) + 1)}
    return {pair: pos % width for pos, pair in enumerate(sorted(used))}


def _unit_prefix(table: EmbeddingTable, lemma: str) -> np.ndarray:
    base = table.vector(lemma)
    norm = float(np.linalg.norm(base))
    if norm == 0.0:
        base = hash_unit_vector(lemma, table.dim)
        norm = 1.0
    return base / norm


def _pack_offsets(radii: list[float], axes: list[int]) -> list[tuple[int, float]]:
    """1-d offsets (axis, distance) separating sibling balls.

    Each ball i goes to distance t_i along its axis.  With distinct axes,
    t_i = (r_i + r_max)/sqrt(2) makes every cross pair disconnected;
    same-axis groups are chained in descending-radius order so the
    first (largest) member alone satisfies the cross-axis bound.
    """
    r_max = max(radii)
    order: dict[int, list[int]] = {}
    for i, axis in enumerate(axes):
        order.setdefault(axis, []).append(i)
    out: list[tuple[int, float] | None] = [None] * len(radii)
    for axis, members in order.items():
        members.sort(key=lambda i: (-radii[i], i))
        pos = 0.0
        prev_r = None
        for i in members:
            if prev_r is None:
                pos = (1.0 + _REL_SLACK) * (radii[i] + r_max) / math.sqrt(2.0)
            else:
                pos += (1.0 + _REL_SLACK) * (prev_r + radii[i])
            out[i] = (axis, pos)
            prev_r = radii[i]
    return out  # type: ignore[return-value]


class _Builder:
    """Centers (N x dim) and radii (N) in `_preorder` row order; the
    subtree of row i is rows `i:end[i]`."""

    def __init__(self, taxonomy: Taxonomy, table: EmbeddingTable, cfg: GeometryConfig):
        self.tax = taxonomy
        self.table = table
        self.cfg = cfg
        self.pdim = table.dim
        self.dim = table.dim + cfg.code_width
        self.order = _preorder(taxonomy)
        self.slots = _slot_map(taxonomy, self.order, cfg.code_width)
        self.row = {node: i for i, (node, _) in enumerate(self.order)}
        self.centers = np.zeros((len(self.order), self.dim))
        self.radii = np.zeros(len(self.order))
        self.end = list(range(1, len(self.order) + 1))

    def pack(self, rows: list[int], axes: list[int]) -> None:
        """Translate each subtree rigidly so its top ball (row) sits at its
        offset along its axis."""
        offsets = _pack_offsets(self.radii[rows].tolist(), axes)
        for i, (axis, dist) in zip(rows, offsets):
            shift = -self.centers[i, self.pdim:]
            shift[axis] += dist
            self.centers[i:self.end[i], self.pdim:] += shift

    def build(self) -> None:
        """Fill every row in reverse pre-order: a node is wrapped once all its
        children are, so every ball receives its ancestors' shifts deepest first."""
        for i in reversed(range(len(self.order))):
            node, depth = self.order[i]
            self.centers[i, :self.pdim] = _unit_prefix(self.table, node.lemma)
            kids = [self.row[kid] for kid in self.tax.children_of(node)]
            if not kids:
                self.radii[i] = self.cfg.leaf_radius
                continue
            self.pack(kids, [self.slots[(depth + 1, idx)] for idx in range(1, len(kids) + 1)])
            self.end[i] = max(self.end[k] for k in kids)
            self.centers[i, self.pdim:] = np.mean(self.centers[kids, self.pdim:], axis=0)
            reach = max(float(np.linalg.norm(self.centers[k] - self.centers[i])) + self.radii[k]
                        for k in kids)
            self.radii[i] = self.cfg.margin * reach


def construct_balls(taxonomy: Taxonomy, table: EmbeddingTable,
                    cfg: GeometryConfig | None = None) -> BallConfiguration:
    """Build one ball per taxonomy node.

    Deterministic: identical inputs give bit-identical output.  The result
    is not verified here; `verify_configuration` checks it.  Raises
    ConstructionError if the taxonomy has no roots.
    """
    cfg = cfg or GeometryConfig()
    roots = taxonomy.roots()
    if not roots:
        raise ConstructionError("taxonomy has no roots")

    builder = _Builder(taxonomy, table, cfg)
    builder.build()
    if len(roots) > 1:
        # co-roots have no covering parent but still must be disjoint
        builder.pack([builder.row[r] for r in roots],
                     [i % cfg.code_width for i in range(len(roots))])

    # final homothety into the unit ball
    outer = max(float(np.linalg.norm(c)) + r for c, r in zip(builder.centers, builder.radii))
    scale = 1.0 / outer
    return BallConfiguration([str(node) for node, _ in builder.order], builder.centers * scale,
                             builder.radii * scale, builder.pdim)
