"""Shared test helpers: random taxonomies and embedding tables, table
files, ball configurations from balls and with faults, ball file rows,
the cosine reference, ancestor chains and gradient checks."""

import base64
import copy

import numpy as np

from ballwsd.embeddings import EmbeddingTable
from ballwsd.geometry import BallConfiguration
from ballwsd.inventory import SenseId, Taxonomy


def random_taxonomy(rng: np.random.Generator, n_nodes: int,
                    forest_prob: float = 0.2) -> Taxonomy:
    """Uniform random recursive tree (occasionally a forest) over n_nodes.

    Lemmas are drawn from a pool smaller than the node count so some
    words carry several senses.
    """
    n_lemmas = max(3, n_nodes // 4)
    counts: dict[str, int] = {}
    nodes: list[SenseId] = []
    for _ in range(n_nodes):
        lemma = f"w{int(rng.integers(0, n_lemmas))}"
        counts[lemma] = counts.get(lemma, 0) + 1
        nodes.append(SenseId(lemma, "n", counts[lemma]))
    n_roots = 1
    if n_nodes >= 3 and rng.random() < forest_prob:
        n_roots = int(rng.integers(2, min(4, n_nodes)))
    parent: dict[SenseId, SenseId | None] = {}
    for i, node in enumerate(nodes):
        if i < n_roots:
            parent[node] = None
        else:
            parent[node] = nodes[int(rng.integers(0, i))]
    return Taxonomy(parent)


def random_table(rng: np.random.Generator, taxonomy: Taxonomy, dim: int,
                 zero_prob: float = 0.05) -> EmbeddingTable:
    """Embeddings for every lemma; a few are zero to hit the hash fallback."""
    vectors = {}
    for node in taxonomy.nodes():
        if node.lemma in vectors:
            continue
        if rng.random() < zero_prob:
            vectors[node.lemma] = np.zeros(dim)
        else:
            vectors[node.lemma] = rng.standard_normal(dim)
    return EmbeddingTable(vectors)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write `table` in the `word v1 ... vd` text format, `%.17g` per value."""
    with open(path, "w", encoding="utf-8") as fh:
        for word in table.words():
            coords = " ".join("%.17g" % c for c in table.get(word))
            fh.write(f"{word} {coords}\n")


def sense(sid) -> SenseId:
    """`sid` as a SenseId: text is parsed, a SenseId passes through."""
    return SenseId.parse(sid) if isinstance(sid, str) else sid


def configuration(balls, prefix: int | None = None, dim: int | None = None) -> BallConfiguration:
    """The configuration whose rows are `balls`, an iterable of
    `(sense_id, center, radius)` triples, in order; a sense id is a
    SenseId or its text.  `dim` is needed only when there are no balls;
    the embedding prefix spans `prefix` dimensions, or all of them."""
    balls = list(balls)
    dim = dim or len(balls[0][1])
    centers = np.array([c for _, c, _ in balls], dtype=np.float64).reshape(len(balls), dim)
    return BallConfiguration([sense(sid) for sid, _, _ in balls], centers,
                             [r for _, _, r in balls], prefix or dim)


def with_faults(rng, config, n_faults):
    """A copy of `config` in which some radii are inflated, some centers
    are moved next to another ball's, and some rows are dropped."""
    n = len(config)
    centers, radii = config.centers.copy(), config.radii.copy()
    keep = np.ones(n, dtype=bool)
    for i in rng.choice(n, size=min(n, n_faults), replace=False):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            radii[i] *= rng.uniform(1.5, 50.0)
        elif kind == 1:
            centers[i] = centers[int(rng.integers(0, n))] + 1e-3 * rng.standard_normal(config.dim)
        else:
            keep[i] = False
    rows = np.flatnonzero(keep)
    return BallConfiguration([config.ids[i] for i in rows], centers[rows], radii[rows],
                             config.embedding_prefix_dim)


def ball_row(sid: str, radius: str, center) -> str:
    """One ball file row: `sid`, the radius text as given, and base64 of
    `center`'s little-endian float64 bytes."""
    data = base64.b64encode(np.asarray(center, dtype="<f8").tobytes()).decode("ascii")
    return f"{sid}\t{radius}\t{data}"


def cos_ref(v, c) -> float:
    """The cosine of two vectors, written from `np.dot` and `np.linalg.norm`
    alone: the reference that selection scores must equal bit for bit."""
    return float(np.dot(v, c) / (np.linalg.norm(v) * np.linalg.norm(c)))


def ancestors(taxonomy: Taxonomy, node: SenseId) -> list[SenseId]:
    """Chain of hypernyms from direct parent up to a root."""
    out = []
    cur = taxonomy.parent_of(node)
    while cur is not None:
        out.append(cur)
        cur = taxonomy.parent_of(cur)
    return out


def ancestor_or_self(taxonomy: Taxonomy, a: SenseId, b: SenseId) -> bool:
    """True when b is a (or an ancestor of a)."""
    node: SenseId | None = a
    while node is not None:
        if node == b:
            return True
        node = taxonomy.parent_of(node)
    return False


def gradient_check(params, T, C, Y, h: float, n_coords: int,
                   rng: np.random.Generator, atol: float = 1e-8):
    """Compare analytic gradients with central differences.

    Perturbing a parameter can flip relu units on or off between the two
    probe points, in which case the difference quotient measures a
    different piecewise-linear branch than the analytic gradient.  Such
    coordinates are detected by comparing relu sign patterns at both
    probes and skipped; the caller gets (checked, skipped, worst_rel).

    Differences below `atol` count as exact agreement: a dead-path
    coordinate has an analytic gradient of exactly zero while its
    difference quotient is pure rounding noise of order eps/h.  The
    returned worst_rel covers only coordinates above that floor;
    worst_abs is the largest difference seen anywhere.
    """
    from ballwsd.encoder import LAYERS, _forward, batch_loss_and_grads

    def relu_signs(p):
        # on/off pattern of every relu unit: the transformer feed-forwards
        # (item 8 of a layer's cache, now the post-relu activation) and the
        # output head (item 1 of its cache, also post-relu); relu(x) > 0
        # exactly where x > 0
        _, cache = _forward(p, T, C, keep=True)
        parts = [(cache[f"l{l}"][8] > 0.0).ravel() for l in range(LAYERS)]
        parts.append((cache["head"][1] > 0.0).ravel())
        return np.concatenate(parts)

    _, grads = batch_loss_and_grads(params, T, C, Y)
    names = sorted(grads)
    checked = skipped = 0
    worst_rel = worst_abs = 0.0
    attempts = 0
    while checked < n_coords and attempts < 50 * n_coords:
        attempts += 1
        name = names[int(rng.integers(0, len(names)))]
        idx = int(rng.integers(0, params.arrays[name].size))
        probes = []
        for delta in (h, -h):
            p = copy.deepcopy(params)
            p.arrays[name].flat[idx] += delta
            probes.append(p)
        signs = [relu_signs(p) for p in probes]
        if not np.array_equal(signs[0], signs[1]):
            skipped += 1
            continue
        values = [batch_loss_and_grads(p, T, C, Y)[0] for p in probes]
        fd = (values[0] - values[1]) / (2.0 * h)
        analytic = float(grads[name].flat[idx])
        diff = abs(analytic - fd)
        worst_abs = max(worst_abs, diff)
        if diff > atol:
            worst_rel = max(worst_rel, diff / max(abs(analytic) + abs(fd), 1e-8))
        checked += 1
    return checked, skipped, worst_rel, worst_abs
