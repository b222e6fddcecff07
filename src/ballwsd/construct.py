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

Balls are rows of two arrays in `Taxonomy.preorder()` order, where each
subtree is one contiguous run of rows.  Subtrees only ever move rigidly
(one extension-block translation of their rows), so nesting and
disconnection survive every later step exactly.  A final homothety about the origin
scales everything into the unit ball.
"""

from __future__ import annotations

import math

import numpy as np

from .embeddings import EmbeddingTable, hash_unit_vector
from .geometry import BallConfiguration, GeometryConfig, gaps
from .inventory import Taxonomy

# relative slack added to every separation distance so float noise can
# never flip a verifier comparison
_REL_SLACK = 1e-7


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


def _pack_offsets(radii: list[float], axes: list[int]) -> list[float]:
    """Distance of each sibling ball along its axis, separating the balls.

    With distinct axes, t_i = (r_i + r_max)/sqrt(2) makes every cross pair
    disconnected; same-axis groups are chained in descending-radius order
    so the first (largest) member alone satisfies the cross-axis bound.
    """
    r_max = max(radii)
    last: dict[int, int] = {}  # axis -> the member placed last on it
    out = [0.0] * len(radii)
    for i in sorted(range(len(radii)), key=lambda i: (-radii[i], i)):
        prev = last.get(axes[i])
        if prev is None:
            out[i] = (1.0 + _REL_SLACK) * (radii[i] + r_max) / math.sqrt(2.0)
        else:
            out[i] = out[prev] + (1.0 + _REL_SLACK) * (radii[prev] + radii[i])
        last[axes[i]] = i
    return out


def construct_balls(taxonomy: Taxonomy, table: EmbeddingTable,
                    cfg: GeometryConfig | None = None) -> BallConfiguration:
    """Build one ball per taxonomy node.

    Deterministic: identical inputs give bit-identical output.  The result
    is not verified here; `verify_configuration` checks it.
    """
    cfg = cfg or GeometryConfig()
    # centers (N x dim) and radii (N) in `Taxonomy.preorder()` row order;
    # the subtree of row i is rows `i:end[i]`
    order = taxonomy.preorder()
    row = {node: i for i, (node, _) in enumerate(order)}
    slots = _slot_map(taxonomy, order, cfg.code_width)
    pdim = table.dim
    centers = np.zeros((len(order), pdim + cfg.code_width))
    radii = np.zeros(len(order))
    end = list(range(1, len(order) + 1))

    def pack(rows: list[int], axes: list[int]) -> None:
        """Translate each subtree rigidly so its top ball (row) sits at its
        offset along its axis."""
        offsets = _pack_offsets(radii[rows].tolist(), axes)
        for i, axis, dist in zip(rows, axes, offsets):
            shift = -centers[i, pdim:]
            shift[axis] += dist
            centers[i:end[i], pdim:] += shift

    # reverse pre-order: a node is wrapped once all its children are, so
    # every ball receives its ancestors' shifts deepest first
    for i in reversed(range(len(order))):
        node, depth = order[i]
        centers[i, :pdim] = _unit_prefix(table, node.lemma)
        kids = [row[kid] for kid in taxonomy.children_of(node)]
        if not kids:
            radii[i] = cfg.leaf_radius
            continue
        pack(kids, [slots[(depth + 1, idx)] for idx in range(1, len(kids) + 1)])
        end[i] = max(end[k] for k in kids)
        centers[i, pdim:] = np.mean(centers[kids, pdim:], axis=0)
        reach = np.max(gaps(centers[kids], centers[i]) + radii[kids])
        radii[i] = cfg.margin * reach
    roots = taxonomy.roots()
    if len(roots) > 1:
        # co-roots have no covering parent but still must be disjoint
        pack([row[r] for r in roots], [i % cfg.code_width for i in range(len(roots))])

    # final homothety into the unit ball
    scale = 1.0 / np.max(gaps(centers, 0.0) + radii)
    return BallConfiguration([node for node, _ in order], centers * scale, radii * scale, pdim)
