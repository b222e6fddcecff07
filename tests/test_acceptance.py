"""Acceptance gate: one test per criterion, each recording a PASS/FAIL line.

The criteria pin the package's core guarantees: construction invariants,
containment-as-deduction, gradient correctness, selection and scoring
oracles, the characteristic sense-level vs hypernym-level quality gap on
a synthetic corpus, worked-example pipeline fidelity, and byte-level
determinism of the command-line artifacts.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ballwsd.cli import main
from ballwsd.construct import construct_balls
from ballwsd.corpus import parse_annotated_corpus, save_records
from ballwsd.encoder import init_params
from ballwsd.evaluator import make_synthetic_fixture, score, split_records
from ballwsd.geometry import GeometryConfig, verify_configuration
from ballwsd.inventory import SenseId, Taxonomy
from ballwsd.selector import Candidate, deduction_query, select_sense

from conftest import acceptance_lines
from helpers import (ancestor_or_self, configuration, cos_ref, gradient_check, random_table,
                     random_taxonomy, save_embeddings, table)


def check(criterion: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {criterion} - {detail}"
    acceptance_lines.append(line)
    assert ok, line


def test_criterion_1_geometry_invariants():
    """50 random taxonomies construct with zero verifier violations and
    pass an independent exhaustive containment/disconnection check."""
    t0 = time.time()
    rng = np.random.default_rng(1000)
    bad = 0
    containment_pairs = disconnection_pairs = 0
    for trial in range(50):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(8, 65))
        tax = random_taxonomy(rng, n)
        table = random_table(rng, tax, dim)
        cfg = GeometryConfig()
        balls = construct_balls(tax, table, cfg)
        report = verify_configuration(balls, tax, cfg)
        if not report.ok:
            bad += 1
            continue
        # independent re-check with raw norm arithmetic; the tolerance is
        # relative to the smaller radius of each pair
        centers, radii, row = balls.centers, balls.radii, balls.row
        for node in tax.nodes():
            par = tax.parent_of(node)
            if par is not None:
                p, k = row[par], row[node]
                gap = float(np.linalg.norm(centers[k] - centers[p]))
                containment_pairs += 1
                if gap + radii[k] > radii[p] + cfg.epsilon * min(radii[p], radii[k]):
                    bad += 1
            kids = [row[k] for k in tax.children_of(node)]
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    a, b = kids[i], kids[j]
                    gap = float(np.linalg.norm(centers[a] - centers[b]))
                    disconnection_pairs += 1
                    if gap < radii[a] + radii[b] - cfg.epsilon * min(radii[a], radii[b]):
                        bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60.0
    check(1, ok,
          f"50 taxonomies, {containment_pairs} containment + "
          f"{disconnection_pairs} disconnection pairs, {bad} violations, "
          f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_deduction_soundness():
    """Ball containment agrees with taxonomy ancestry on every ordered
    sense pair of a 200-node taxonomy."""
    t0 = time.time()
    chain = [SenseId(x, "n", 1) for x in
             ("entity", "animal", "mammal", "human", "greek")]
    parent: dict[SenseId, SenseId | None] = {chain[0]: None}
    for i in range(1, len(chain)):
        parent[chain[i]] = chain[i - 1]
    rng = np.random.default_rng(1001)
    nodes = list(chain)
    counts: dict[str, int] = {}
    while len(nodes) < 200:
        lemma = f"w{int(rng.integers(0, 60))}"
        counts[lemma] = counts.get(lemma, 0) + 1
        node = SenseId(lemma, "n", counts[lemma])
        parent[node] = nodes[int(rng.integers(0, len(nodes)))]
        nodes.append(node)
    tax = Taxonomy(parent)
    table = random_table(rng, tax, 20)
    cfg = GeometryConfig()
    balls = construct_balls(tax, table, cfg)
    mism = 0
    for a in nodes:
        for b in nodes:
            got = deduction_query(a, b, balls, cfg)
            if got != ancestor_or_self(tax, a, b):
                mism += 1
    greek, human, mammal = chain[4], chain[3], chain[2]
    chain_ok = (deduction_query(greek, human, balls, cfg)
                and deduction_query(human, mammal, balls, cfg)
                and deduction_query(greek, mammal, balls, cfg)
                and not deduction_query(mammal, greek, balls, cfg))
    elapsed = time.time() - t0
    ok = mism == 0 and chain_ok and elapsed < 10.0
    check(2, ok,
          f"200-node taxonomy, {len(nodes) ** 2} ordered pairs, "
          f"{mism} mismatches, chain query {'ok' if chain_ok else 'BAD'}, "
          f"{elapsed:.1f}s (< 10s)")


def test_criterion_3_gradient_check():
    """Analytic gradients match central differences at h=1e-4 to relative
    error <= 1e-3 on at least 100 random coordinates.

    Coordinates where the probe pair straddles a relu kink are excluded:
    there the difference quotient measures a different linear branch, not
    the local gradient."""
    params = init_params(16, 12, seed=1002)
    rng = np.random.default_rng(1003)
    T = rng.standard_normal((8, 16))
    C = rng.standard_normal((8, 16))
    Y = rng.standard_normal((8, 12))
    checked, skipped, worst, worst_abs = gradient_check(
        params, T, C, Y, h=1e-4, n_coords=120, rng=rng)
    ok = checked >= 100 and worst <= 1e-3
    check(3, ok,
          f"{checked} coordinates checked ({skipped} kink-straddling skipped), "
          f"worst relative error {worst:.2e} (<= 1e-3), "
          f"largest absolute gap {worst_abs:.2e}")


def test_criterion_4_selector_oracle():
    """select_sense equals brute-force argmax with lowest-index
    tie-breaking on 10,000 random candidate sets, and the choice is
    invariant under positive scaling of the query vector."""
    rng = np.random.default_rng(1004)
    mism = scale_mism = 0
    for trial in range(10_000):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(1, 7))
        centers, radii = [], []
        for i in range(n):
            center = rng.standard_normal(dim)
            while float(np.linalg.norm(center)) < 1e-6:
                center = rng.standard_normal(dim)
            centers.append(center)
            radii.append(float(rng.uniform(0.1, 2.0)))
        if n > 1 and rng.random() < 0.25:
            # duplicate an anchor center to force an exact tie
            src = int(rng.integers(0, n - 1))
            centers[int(rng.integers(1, n))] = centers[src].copy()
        anchors = [SenseId("p", "n", i + 1) for i in range(n)]
        balls = configuration(zip(anchors, centers, radii))
        cands = [Candidate(SenseId("w", "n", i + 1), anchors[i]) for i in range(n)]
        v = rng.standard_normal(dim)
        while float(np.linalg.norm(v)) < 1e-6:
            v = rng.standard_normal(dim)
        pred = select_sense([v], cands, balls)[0]
        scores = [cos_ref(v, balls.centers[balls.row[c.anchor]]) for c in cands]
        best = max(scores)
        want = min(i for i, s in enumerate(scores) if s == best)
        if pred.chosen != cands[want].sense:
            mism += 1
        scale = float(10.0 ** rng.uniform(-3, 3))
        if select_sense([scale * v], cands, balls)[0].chosen != pred.chosen:
            scale_mism += 1
    ok = mism == 0 and scale_mism == 0
    check(4, ok,
          f"10000 trials, {mism} argmax mismatches, "
          f"{scale_mism} scale-invariance failures")


def test_criterion_5_scorer_correctness():
    """score matches hand-computed P/R/F1 on golden fixtures and a
    Fraction-exact brute-force tally on 1,000 random prediction sets."""
    s = lambda i: SenseId(f"g{i}", "n", 1)
    failures = []

    def golden(name, predicted, gold, want_p, want_r, want_f1):
        report = score(predicted, gold)
        got = (report.precision, report.recall, report.f1)
        want = (float(want_p), float(want_r), float(want_f1))
        if any(abs(a - b) > 1e-9 for a, b in zip(got, want)):
            failures.append(f"{name}: got {got}, want {want}")

    # rows: predicted[k] is None when instance k is not attempted
    gold5 = [s(k) for k in range(5)]
    golden("3-of-4-attempted-of-5",
           [s(0), s(1), s(2), s(9), None],
           gold5, Fraction(3, 4), Fraction(3, 5), Fraction(2, 3))
    golden("all-correct", list(gold5), gold5, 1, 1, 1)
    golden("none-attempted", [None] * 5, gold5, 0, 0, 0)
    golden("all-wrong", [s(9)] * 5, gold5, 0, 0, 0)
    golden("one-of-one", [s(0)], [s(0)], 1, 1, 1)
    golden("half-attempted-all-correct",
           [s(0), s(1), None, None], [s(k) for k in range(4)],
           1, Fraction(1, 2), Fraction(2, 3))
    golden("two-of-three-of-three",
           [s(0), s(1), s(9)],
           [s(k) for k in range(3)],
           Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))
    golden("one-of-two-of-four",
           [s(0), s(9), None, None], [s(k) for k in range(4)],
           Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    golden("empty-gold", [], [], 0, 0, 0)
    golden("perfect-with-skip",
           [s(0), s(1), s(2), None, None, None],
           [s(k) for k in range(6)],
           1, Fraction(1, 2), Fraction(2, 3))
    n_golden_failures = len(failures)

    rng = np.random.default_rng(1005)
    random_mism = 0
    for _ in range(1000):
        n_gold = int(rng.integers(1, 30))
        gold = [s(int(rng.integers(0, 4))) for _ in range(n_gold)]
        predicted = [s(int(rng.integers(0, 4))) if rng.random() < 0.7 else None
                     for _ in range(n_gold)]
        report = score(predicted, gold)
        attempted = [k for k in range(n_gold) if predicted[k] is not None]
        correct = sum(1 for k in attempted if predicted[k] == gold[k])
        p = Fraction(correct, len(attempted)) if attempted else Fraction(0)
        r = Fraction(correct, n_gold)
        f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
        if (report.precision, report.recall, report.f1) != (float(p), float(r), float(f1)):
            random_mism += 1
    ok = n_golden_failures == 0 and random_mism == 0
    check(5, ok,
          f"10 golden fixtures ({n_golden_failures} off"
          + (": " + "; ".join(failures) if failures else "")
          + f"), 1000 random sets ({random_mism} mismatches)")


def test_criterion_6_level_gap_and_flatness(tmp_path):
    """Experiment suite on the synthetic fixture, run through the CLI
    stages: hypernym-level selection is nearly solved while sense-level
    selection is capped by twin senses, and the F1 landscape is flat
    across training level, data size, and levels 2-4."""
    t0 = time.time()
    fx = make_synthetic_fixture(seed=21, n_top=4, senses_per_parent=4,
                                vocab_size=200, records_per_sense=450,
                                chain_levels=3, embedding_dim=32)
    train200, test = split_records(fx.records, 200, 50)
    train400, _ = split_records(fx.records, 400, 50)
    assert len(train200) == 3200 and len(test) == 800
    tax = fx.taxonomy
    inventory, embeddings = tmp_path / "inventory.tsv", tmp_path / "embeddings.txt"
    inventory.write_text("".join(f"{n}\t{tax.parent_of(n) or '-'}\n" for n in tax.nodes()))
    save_embeddings(fx.table, embeddings)
    for name, recs in (("train200", train200), ("train400", train400), ("test", test)):
        save_records(recs, tmp_path / f"{name}.tsv")

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0

    balls = tmp_path / "build" / "balls.tsv"
    cli("build-balls", "--inventory", inventory, "--embeddings", embeddings,
        "--out", balls.parent)

    def prepare(name, levels):
        cli("prepare", "--corpus", tmp_path / f"{name}.tsv", "--inventory", inventory,
            "--balls", balls, "--out", tmp_path / name, "--set", f"levels={levels}")
        return tmp_path / name

    test_data = prepare("test", "0,1,2,3,4")
    data200, data400 = prepare("train200", "0,1"), prepare("train400", "1")
    tc = ("--set", "window_k=4", "--set", "lr=0.05", "--set", "epochs=30",
          "--set", "batch_size=32", "--set", "seed=1")

    def run(data, train_level, eval_levels):
        model, out = data / f"model-l{train_level}", data / f"eval-l{train_level}"
        cli("train", "--corpus", data / f"dataset-l{train_level}.tsv",
            "--embeddings", embeddings, "--balls", balls, "--out", model, *tc)
        cli("eval", "--data", test_data, "--checkpoint", model / "checkpoint.json",
            "--inventory", inventory, "--embeddings", embeddings, "--balls", balls,
            "--out", out, "--set", f"levels={eval_levels}")
        rows = [line.split("\t") for line in (out / "report.tsv").read_text().splitlines()[1:]]
        return {int(row[1]): float(row[4]) for row in rows}

    base = run(data200, 1, "0,1,2,3,4")
    trained_l0 = run(data200, 0, "1")
    doubled = run(data400, 1, "1")

    gap = base[1] - base[0]
    diff_train_level = abs(trained_l0[1] - base[1])
    diff_doubled = abs(doubled[1] - base[1])
    diff_deep = max(abs(base[lvl] - base[1]) for lvl in (2, 3, 4))
    elapsed = time.time() - t0

    a = base[1] >= 0.90 and gap >= 0.20
    b = diff_train_level <= 0.02
    c = diff_doubled <= 0.02
    d = diff_deep <= 0.03
    ok = a and b and c and d and elapsed < 600.0
    check(6, ok,
          f"L1 F1 {base[1]:.3f} (>= 0.90), L0 gap {gap:.3f} (>= 0.20), "
          f"train-level diff {diff_train_level:.4f} (<= 0.02), "
          f"doubling diff {diff_doubled:.4f} (<= 0.02), "
          f"L2-4 max diff {diff_deep:.4f} (<= 0.03), {elapsed:.0f}s (< 600s)")


def test_criterion_7_pipeline_fidelity(tmp_path):
    """Preparing the worked example yields the exact lifted 4-tuple at
    level 1 and the second-level hypernym target at level 2."""
    edges = (
        "aim.n.02\tgoal.n.01\n"
        "goal.n.01\tcontent.n.05\n"
        "content.n.05\tcognition.n.01\n"
        "cognition.n.01\tpsychological_feature.n.01\n"
        "psychological_feature.n.01\tabstraction.n.06\n"
        "abstraction.n.06\tentity.n.01\n"
        "entity.n.01\t-\n"
    )
    tokens = ("have", "you", "set", "specific", "objectives", "for",
              "your", "career")
    (tmp_path / "inventory.tsv").write_text(edges)
    (tmp_path / "corpus.tsv").write_text("aim.n.02\t4\t" + " ".join(tokens) + "\n")
    rng = np.random.default_rng(1006)
    lemmas = ["aim", "goal", "content", "cognition", "psychological_feature",
              "abstraction", "entity", *tokens]
    save_embeddings(table({w: rng.standard_normal(16) for w in lemmas}),
                    tmp_path / "embeddings.txt")
    code_build = main(["build-balls", "--inventory", str(tmp_path / "inventory.tsv"),
                       "--embeddings", str(tmp_path / "embeddings.txt"),
                       "--out", str(tmp_path / "build")])
    code_prep = main(["prepare", "--corpus", str(tmp_path / "corpus.tsv"),
                      "--inventory", str(tmp_path / "inventory.tsv"),
                      "--balls", str(tmp_path / "build" / "balls.tsv"),
                      "--out", str(tmp_path / "data")])
    (l1,) = parse_annotated_corpus(tmp_path / "data" / "dataset-l1.tsv")
    (l2,) = parse_annotated_corpus(tmp_path / "data" / "dataset-l2.tsv")
    l1_want = (str(l1.target), str(l1.original), l1.tokens, l1.indices) == (
        "goal.n.01", "aim.n.02", tokens, (4,))
    l2_want = str(l2.target) == "content.n.05" and str(l2.original) == "aim.n.02"
    ok = code_build == 0 and code_prep == 0 and l1_want and l2_want
    check(7, ok,
          f"level-1 record {'exact' if l1_want else 'WRONG'} "
          f"(goal.n.01, aim.n.02, tokens, [4]); "
          f"level-2 target {'content.n.05' if l2_want else str(l2.target)}")


def test_criterion_8_determinism(tmp_path):
    """build-balls, train and eval are byte-identical across reruns."""
    edges = (
        "entity.n.01\t-\n"
        "move.n.01\tentity.n.01\n"
        "make.n.01\tentity.n.01\n"
        "fly.n.01\tmove.n.01\n"
        "fly.n.02\tmake.n.01\n"
    )
    (tmp_path / "inventory.tsv").write_text(edges)
    lines = []
    for _ in range(6):
        lines.append("fly.n.01\t0\tfly wing air sky glide soar")
        lines.append("fly.n.02\t0\tfly factory tool seam stitch navigator")
    (tmp_path / "corpus.tsv").write_text("\n".join(lines) + "\n")
    rng = np.random.default_rng(1007)
    lemmas = ["entity", "move", "make", "fly", "wing", "air", "sky", "glide",
              "soar", "factory", "tool", "seam", "stitch", "navigator"]
    save_embeddings(table({w: rng.standard_normal(12) for w in lemmas}),
                    tmp_path / "embeddings.txt")

    def run_all(tag):
        out = tmp_path / tag
        assert main(["build-balls", "--inventory", str(tmp_path / "inventory.tsv"),
                     "--embeddings", str(tmp_path / "embeddings.txt"),
                     "--out", str(out / "build")]) == 0
        balls = out / "build" / "balls.tsv"
        assert main(["prepare", "--corpus", str(tmp_path / "corpus.tsv"),
                     "--inventory", str(tmp_path / "inventory.tsv"),
                     "--balls", str(balls), "--out", str(out / "data"),
                     "--set", "levels=0,1"]) == 0
        assert main(["train", "--corpus", str(out / "data" / "dataset-l1.tsv"),
                     "--embeddings", str(tmp_path / "embeddings.txt"),
                     "--balls", str(balls), "--out", str(out / "model"),
                     "--set", "epochs=4", "--set", "lr=0.05"]) == 0
        assert main(["eval", "--data", str(out / "data"),
                     "--checkpoint", str(out / "model" / "checkpoint.json"),
                     "--inventory", str(tmp_path / "inventory.tsv"),
                     "--embeddings", str(tmp_path / "embeddings.txt"),
                     "--balls", str(balls), "--out", str(out / "eval"),
                     "--set", "levels=0,1"]) == 0
        return out

    run_a = run_all("run-a")
    run_b = run_all("run-b")
    targets = ["build/balls.tsv", "data/dataset-l0.tsv", "data/dataset-l1.tsv",
               "model/checkpoint.json", "model/curve.tsv", "eval/report.tsv",
               "eval/predictions-l0.tsv", "eval/predictions-l1.tsv"]
    differing = [t for t in targets
                 if (run_a / t).read_bytes() != (run_b / t).read_bytes()]
    ok = not differing
    check(8, ok,
          f"{len(targets)} artifacts byte-compared across reruns, "
          + ("all identical" if ok else f"differing: {differing}"))
