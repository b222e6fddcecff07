"""Seeded input generators for the benchmark workloads.

Every generator writes the same four files into a directory and returns
an `Inputs` record with what the benchmark needs to check answers and
describe the shape.  The program only ever sees the files:

    inventory.tsv     child<TAB>parent edges (a few extra parents that the
                      loader drops, as multiple inheritance in WordNet)
    embeddings.txt    `word v1 ... vd`, padded with distractor rows
    corpus-train.tsv  sense-annotated training records
    corpus-test.tsv   held-out records, scored per level

Same seed, same bytes.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from ballwsd.evaluator import make_synthetic_fixture, split_records


@dataclass
class Inputs:
    """What a workload's files encode, as the generator knows it."""

    parent: dict[str, str | None]  # true hypernym of each sense id
    train_config: dict             # `--set` pairs passed to `train`
    levels: str                    # levels passed to `prepare` and `eval`
    shape: dict                    # generated shape, printed next to results


def ancestors_or_self(parent: dict[str, str | None], node: str) -> list[str]:
    out = []
    cur: str | None = node
    while cur is not None:
        out.append(cur)
        cur = parent[cur]
    return out


def draw_queries(rng, parent, n: int) -> list[tuple[str, str, bool]]:
    """`n` (hyponym, hypernym, truth) query triples: the hypernym is an
    ancestor-or-self, a sibling or any node, and truth is the generator's."""
    nodes = sorted(parent)
    children = defaultdict(list)
    for node, par in parent.items():
        children[par].append(node)
    out = []
    for _ in range(n):
        a = nodes[int(rng.integers(0, len(nodes)))]
        kind = rng.random()
        if kind < 0.5:
            up = ancestors_or_self(parent, a)
            b = up[int(rng.integers(0, len(up)))]
        elif kind < 0.75 and len(children[parent[a]]) > 1:
            sibs = [s for s in children[parent[a]] if s != a]
            b = sibs[int(rng.integers(0, len(sibs)))]
        else:
            b = nodes[int(rng.integers(0, len(nodes)))]
        out.append((a, b, b in ancestors_or_self(parent, a)))
    return out


def _write_edges(path, parent, extra_edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for child, par in parent.items():
            fh.write(f"{child}\t{par if par is not None else '-'}\n")
        for child, par in extra_edges:
            fh.write(f"{child}\t{par}\n")


def _write_table(path, vectors: dict[str, np.ndarray], fmt: str, rng,
                 n_distractors: int) -> None:
    """The given rows, then random distractor rows `zz<i>` at the five
    decimals of a typical published table."""
    dim = len(next(iter(vectors.values())))
    row, distractor = " ".join([fmt] * dim), " ".join(["%.5f"] * dim)
    noise = rng.standard_normal((n_distractors, dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{w} " + row % tuple(v) + "\n" for w, v in vectors.items()))
        fh.write("".join(f"zz{i} " + distractor % tuple(noise[i]) + "\n"
                         for i in range(n_distractors)))


def _write_corpus(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sense, tokens, pos in records:
            fh.write(f"{sense}\t{pos}\t{' '.join(tokens)}\n")


def _extra_parents(rng, parent, candidates, n: int) -> list[tuple[str, str]]:
    """Second hypernym edges for `n` nodes; the loader keeps the first."""
    nodes = [c for c in parent if parent[c] is not None]
    picks = rng.choice(len(nodes), size=min(n, len(nodes)), replace=False)
    out = []
    for i in sorted(picks):
        child = nodes[i]
        others = [c for c in candidates if c != parent[child] and c != child]
        out.append((child, others[int(rng.integers(0, len(others)))]))
    return out


def _shape(parent, lemma_senses: Counter, extra) -> dict:
    depth = {n: len(ancestors_or_self(parent, n)) - 1 for n in parent}
    fan = Counter(p for p in parent.values() if p is not None)
    leaves = [n for n in parent if n not in fan]
    poly = Counter(lemma_senses.values())
    return {
        "nodes": len(parent),
        "max_depth": max(depth.values()),
        "leaf_depth_histogram": dict(sorted(Counter(depth[n] for n in leaves).items())),
        "largest_fanouts": sorted(fan.values(), reverse=True)[:5],
        "sibling_pairs": sum(k * (k - 1) // 2 for k in fan.values()),
        "lemmas": len(lemma_senses),
        "senses_per_lemma_histogram": dict(sorted(poly.items())),
        "dropped_edges": len(extra),
    }


# ---------------------------------------------------------------------------
# polysemous words from ballwsd.evaluator.make_synthetic_fixture

def polysemy_eval(seed: int, out: str) -> Inputs:
    """8 tops x 8 senses behind 3-node chains, 80 records per sense split
    40/40, and a 48-d table padded with 40k distractor rows.  Twelve epochs
    at lr 0.05 keep held-out F1 steady across seeds (two epochs left it
    near chance and 12% apart)."""
    fx = make_synthetic_fixture(seed=seed, n_top=8, senses_per_parent=8,
                                records_per_sense=80, chain_levels=3, embedding_dim=48)
    rng = np.random.default_rng([seed, 1])
    tax = fx.taxonomy
    parent = {str(n): (str(tax.parent_of(n)) if tax.parent_of(n) else None)
              for n in tax.nodes()}
    extra = _extra_parents(rng, parent, [str(t) for t in fx.tops], 4)
    _write_edges(os.path.join(out, "inventory.tsv"), parent, extra)
    vectors = {w: fx.table.get(w) for w in fx.table.words()}
    _write_table(os.path.join(out, "embeddings.txt"), vectors, "%.17g", rng, 40000)
    train, test = split_records(fx.records, 40, 40)
    for name, recs in (("corpus-train.tsv", train), ("corpus-test.tsv", test)):
        _write_corpus(os.path.join(out, name),
                      [(r.target, r.tokens, r.indices[0]) for r in recs])
    lemma_senses = Counter(str(n).rsplit(".", 2)[0] for n in parent)
    shape = _shape(parent, lemma_senses, extra)
    shape.update(train_records=len(train), test_records=len(test),
                 table_rows=len(vectors) + 40000, embedding_dim=48)
    return Inputs(parent, {"epochs": 12, "lr": 0.05}, "0,1,2,3,4", shape)


# ---------------------------------------------------------------------------
# WordNet-shaped taxonomy

# Nodes per depth 1..18 before scaling: few near the root, most at 8-12,
# a thin tail down to 18, as in the WordNet noun hierarchy.
_DEPTH_PROFILE = (3, 8, 20, 45, 90, 170, 300, 480, 700, 880, 950, 880, 700,
                  480, 300, 170, 90, 45)
_HUBS = ((4, 400), (6, 400), (8, 400))  # (depth, children), like person.n.01
_NODES = 5000          # senses in the tree
_TABLE_ROWS = 10000    # embedding rows, distractors included
_DIM = 100
_CORPUS_LEMMAS = 150   # two-sense lemmas with annotated occurrences
_PER_SENSE = 4         # records per sense in each corpus
_SIGNATURE = 8         # context words near each annotated sense's hypernym
_SIG_NOISE = 0.5       # per-coordinate noise on those words


def wordnet_taxonomy(seed: int, out: str) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    hub_children = sum(k for _, k in _HUBS)
    budget = _NODES - 1 - hub_children
    scale = (budget - sum(_DEPTH_PROFILE[:2])) / sum(_DEPTH_PROFILE[2:])
    counts = list(_DEPTH_PROFILE[:2]) + [max(1, round(c * scale)) for c in _DEPTH_PROFILE[2:]]
    counts[10] += budget - sum(counts)

    # structure over integer ids; preferential attachment gives heavy-tailed
    # fan-outs and leaves at every depth
    par: list[int | None] = [None]
    levels: list[list[int]] = [[0]]
    for c in counts:
        above = levels[-1]
        kids = np.zeros(len(above))
        layer = []
        for _ in range(c):
            w = kids + 0.5
            j = int(rng.choice(len(above), p=w / w.sum()))
            kids[j] += 1
            par.append(above[j])
            layer.append(len(par) - 1)
        levels.append(layer)
    for depth, k in _HUBS:
        hub = levels[depth][int(rng.integers(0, len(levels[depth])))]
        for _ in range(k):
            par.append(hub)
            levels[depth + 1].append(len(par) - 1)

    # polysemous lemmas: a sense reuses an existing lemma with probability
    # 0.3, picked in proportion to the senses it already has
    names = ["entity.n.01"]
    lemma_senses: Counter = Counter(entity=1)
    pool: list[str] = []
    for _ in par[1:]:
        if pool and rng.random() < 0.3:
            lemma = pool[int(rng.integers(0, len(pool)))]
        else:
            lemma = f"w{len(lemma_senses)}"
        lemma_senses[lemma] += 1
        pool.append(lemma)
        names.append(f"{lemma}.n.{lemma_senses[lemma]:02d}")
    parent = {names[i]: (names[p] if p is not None else None) for i, p in enumerate(par)}

    extra = _extra_parents(rng, parent, [names[i] for i in levels[3]], _NODES // 100)
    _write_edges(os.path.join(out, "inventory.tsv"), parent, extra)
    lemmas = sorted(lemma_senses)
    vectors = dict(zip(lemmas, rng.standard_normal((len(lemmas), _DIM))))

    # annotated occurrences of both senses of two-sense lemmas whose senses
    # have different hypernyms, so that every seed asks the same question.
    # As in make_synthetic_fixture, context words come from a signature
    # vocabulary around the embedding of the sense's hypernym, among filler
    # words, so the context tells the senses apart.  Held-out F1 still sits
    # at chance on this tree: the final homothety shrinks every prefix block
    # to about 1e-8 against extension blocks of about 0.5, and the centres
    # of a lemma's two senses differ by 1 - cos of about 1e-3, which the
    # encoder does not resolve.  F1 here shows the program's limit on a
    # deep tree; it cannot tell a working selector from a broken one.
    pairs = sorted(w for w, k in lemma_senses.items()
                   if k == 2 and parent[f"{w}.n.01"] != parent[f"{w}.n.02"])
    chosen = [pairs[i] for i in sorted(rng.choice(len(pairs), _CORPUS_LEMMAS, replace=False))]
    senses = [f"{w}.n.{i:02d}" for w in chosen for i in (1, 2)]
    signature: dict[str, list[str]] = {}
    for hyper in sorted({parent[s] for s in senses}):
        words = [f"sig{len(signature)}_{i}" for i in range(_SIGNATURE)]
        base = vectors[hyper.rsplit(".", 2)[0]]
        for w in words:
            vectors[w] = base + _SIG_NOISE * rng.standard_normal(_DIM)
        signature[hyper] = words
    n_fillers = _TABLE_ROWS - len(vectors)
    _write_table(os.path.join(out, "embeddings.txt"), vectors, "%.5f", rng, n_fillers)
    train, test = [], []
    for sense in senses:
        sig = signature[parent[sense]]
        for r in range(2 * _PER_SENSE):
            pos = int(rng.integers(0, 9))
            tokens = []
            for slot in range(9):
                if slot == pos:
                    tokens.append(sense.rsplit(".", 2)[0])
                elif rng.random() < 0.75:
                    tokens.append(sig[int(rng.integers(0, len(sig)))])
                else:
                    tokens.append(f"zz{int(rng.integers(0, n_fillers))}")
            (train if r % 2 == 0 else test).append((sense, tokens, pos))
    _write_corpus(os.path.join(out, "corpus-train.tsv"), train)
    _write_corpus(os.path.join(out, "corpus-test.tsv"), test)
    shape = _shape(parent, lemma_senses, extra)
    shape.update(train_records=len(train), test_records=len(test),
                 table_rows=_TABLE_ROWS, embedding_dim=_DIM)
    return Inputs(parent, {"epochs": 2}, "0,1", shape)


WORKLOADS = {
    "wordnet-taxonomy": wordnet_taxonomy,
    "polysemy-eval": polysemy_eval,
}
