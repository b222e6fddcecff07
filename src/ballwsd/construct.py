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

Subtrees only ever move rigidly (extension-block translations), so
nesting and disconnection survive every later step exactly.  A final
homothety about the origin scales everything into the unit ball.
"""

from __future__ import annotations

import math

import numpy as np

from .embeddings import EmbeddingTable, hash_unit_vector
from .geometry import Ball, BallConfiguration, GeometryConfig
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
    def __init__(self, taxonomy: Taxonomy, table: EmbeddingTable, cfg: GeometryConfig):
        self.tax = taxonomy
        self.table = table
        self.cfg = cfg
        self.pdim = table.dim
        self.width = cfg.code_width
        self.dim = table.dim + cfg.code_width
        self.order = _preorder(taxonomy)
        self.slots = _slot_map(taxonomy, self.order, cfg.code_width)

    def pack(self, subtrees, axes: list[int]) -> dict[SenseId, list]:
        """Translate each (top, balls) subtree rigidly so its top ball sits
        at its offset along its axis, and merge the subtrees."""
        radii = [balls[top][1] for top, balls in subtrees]
        offsets = _pack_offsets(radii, axes)
        merged: dict[SenseId, list] = {}
        for (top, balls), (axis, dist) in zip(subtrees, offsets):
            shift = -balls[top][0][self.pdim:].copy()
            shift[axis] += dist
            for entry in balls.values():
                entry[0][self.pdim:] += shift
            merged.update(balls)
        return merged

    def build(self) -> dict[SenseId, dict[SenseId, list]]:
        """Balls of every root's tree, keyed by root.

        Post-order: a node is wrapped once all its children are, so every
        ball receives its ancestors' shifts deepest first.
        """
        built: dict[SenseId, dict[SenseId, list]] = {}
        for node, depth in reversed(self.order):
            prefix = _unit_prefix(self.table, node.lemma)
            kids = self.tax.children_of(node)
            if not kids:
                center = np.concatenate([prefix, np.zeros(self.width)])
                built[node] = {node: [center, self.cfg.leaf_radius]}
                continue
            axes = [self.slots[(depth + 1, idx)] for idx in range(1, len(kids) + 1)]
            merged = self.pack([(kid, built.pop(kid)) for kid in kids], axes)
            tops = [merged[kid] for kid in kids]
            ext_centroid = np.mean([c[self.pdim:] for c, _ in tops], axis=0)
            center = np.concatenate([prefix, ext_centroid])
            reach = max(float(np.linalg.norm(c - center)) + r for c, r in tops)
            merged[node] = [center, self.cfg.margin * reach]
            built[node] = merged
        return built


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
    forests = builder.build()
    if len(roots) == 1:
        merged = forests[roots[0]]
    else:
        # co-roots have no covering parent but still must be disjoint
        merged = builder.pack([(r, forests[r]) for r in roots],
                              [i % builder.width for i in range(len(roots))])

    # final homothety into the unit ball
    outer = max(float(np.linalg.norm(c)) + r for c, r in merged.values())
    scale = 1.0 / outer
    balls = {
        str(node): Ball(str(node), c * scale, r * scale)
        for node, (c, r) in merged.items()
    }
    return BallConfiguration(dim=builder.dim, embedding_prefix_dim=builder.pdim, balls=balls)
