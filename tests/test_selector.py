import math

import numpy as np
import pytest

from ballwsd.construct import construct_balls
from ballwsd.evaluator import make_synthetic_fixture
from ballwsd.geometry import containment_rule, load_balls, save_balls
from ballwsd.inventory import Inventory, SenseId, Taxonomy
from ballwsd.selector import (Candidate, Prediction, candidate_set,
                              deduction_query, save_predictions,
                              select_sense)

from helpers import configuration, cos_ref, random_table, random_taxonomy, with_faults


def make_candidates(centers, radii=None, indices=None, lemma="w"):
    """Candidates for the senses `lemma.n.<index>` (indices 1, 2, ... by
    default), each anchored at `<lemma>par.n.<index>`, and the
    configuration whose rows are those anchors' balls, in order."""
    indices = indices or range(1, len(centers) + 1)
    radii = radii or [0.5] * len(centers)
    anchors = [SenseId(f"{lemma}par", "n", i) for i in indices]
    config = configuration((a, np.asarray(c, dtype=float), r)
                           for a, c, r in zip(anchors, centers, radii))
    cands = [Candidate(SenseId(lemma, "n", i), a) for i, a in zip(indices, anchors)]
    return cands, config


def random_rows(rng, n, dim):
    centers, radii = [], []
    for _ in range(n):
        center = rng.standard_normal(dim)
        while np.linalg.norm(center) < 1e-6:
            center = rng.standard_normal(dim)
        centers.append(center)
        radii.append(float(rng.uniform(0.1, 2.0)))
    return centers, radii


def select_one(v, candidates, balls):
    """select_sense on the one-row block [v]."""
    return select_sense([v], candidates, balls)[0]


class TestSelectSense:
    def test_picks_highest_cosine(self):
        cands, config = make_candidates([[1.0, 0.0], [0.0, 1.0]])
        pred = select_one([0.1, 0.9], cands, config)
        assert pred.chosen == SenseId("w", "n", 2)
        assert pred.score == pytest.approx(cos_ref([0.1, 0.9], [0.0, 1.0]))

    def test_tie_breaks_to_lowest_index(self):
        shared = [1.0, 1.0]
        cands, config = make_candidates([shared, shared], indices=[3, 7])
        pred = select_one([2.0, 2.0], cands, config)
        assert pred.chosen == SenseId("w", "n", 3)
        assert pred.margin == 0.0

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(20)
        for _ in range(800):
            dim = int(rng.integers(2, 7))
            centers, radii = random_rows(rng, int(rng.integers(1, 6)), dim)
            if rng.random() < 0.3 and len(centers) > 1:
                # force a tie by duplicating the first anchor center
                centers[1] = centers[0].copy()
            cands, config = make_candidates(centers, radii)
            v = rng.standard_normal(dim)
            pred = select_one(v, cands, config)
            scores = [cos_ref(v, config.centers[config.row[c.anchor]]) for c in cands]
            best = max(scores)
            want = min(i for i, s in enumerate(scores) if s == best)
            assert pred.chosen == cands[want].sense
            assert pred.score == scores[want]

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            cands, config = make_candidates(*random_rows(rng, 4, dim))
            v = rng.standard_normal(dim)
            for scale in (1e-3, 7.3, 1e4):
                assert (select_one(v, cands, config).chosen
                        == select_one(scale * v, cands, config).chosen)

    def test_margin_is_top_gap(self):
        cands, config = make_candidates([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        v = [3.0, 1.0]
        pred = select_one(v, cands, config)
        scores = sorted((cos_ref(v, c) for c in config.centers), reverse=True)
        assert pred.margin == pytest.approx(scores[0] - scores[1])

    def test_lone_candidate_margin_is_inf(self):
        pred = select_one([1.0, 0.0], *make_candidates([[1.0, 0.1]]))
        assert pred.margin == math.inf

    def test_empty_candidates_raise(self):
        _, config = make_candidates([[1.0]])
        with pytest.raises(ValueError):
            select_sense([[1.0]], [], config)

    def test_bad_inputs_raise(self):
        cands, config = make_candidates([[1.0, 0.0]])
        for V in ([[0.0, 0.0]], [[1.0, float("nan")]], [[1.0, float("inf")]],
                  [[1.0, 0.0, 0.0]], [1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(ValueError):
                select_sense(V, cands, config)
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            select_sense([1.0, 0.0], cands, config)
        with pytest.raises(ValueError, match="width 2, got shape \\(2, 3\\)"):
            select_sense(np.ones((2, 3)), cands, config)
        with pytest.raises(ValueError, match="zero-norm"):
            select_one([1.0, 0.0], *make_candidates([[0.0, 0.0]]))

    def test_scores_and_margins_equal_cos_sim_bit_for_bit(self):
        # candidates are rows of one configuration, as in eval
        rng = np.random.default_rng(22)
        for _ in range(300):
            dim = int(rng.integers(2, 120))
            n = int(rng.integers(1, 10))
            anchors = [SenseId("p", "n", i + 1) for i in range(n)]
            config = configuration((a, rng.standard_normal(dim), 0.5) for a in anchors)
            cands = [Candidate(SenseId("w", "n", i + 1), a) for i, a in enumerate(anchors)]
            v = rng.standard_normal((3, dim))[1]  # a row of a matrix, like encoder output
            pred = select_one(v, cands, config)
            scores = [cos_ref(v, config.centers[config.row[c.anchor]]) for c in cands]
            best = scores.index(max(scores))
            assert pred.chosen == cands[best].sense
            assert pred.score == scores[best]
            rest = scores[:best] + scores[best + 1:]
            assert pred.margin == (scores[best] - max(rest) if rest else math.inf)

    def test_rows_equal_one_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(23)
        lone = tie = 0
        for _ in range(400):
            dim = int(rng.integers(2, 40))
            k = int(rng.integers(1, 7))
            centers = [rng.integers(-4, 5, dim).astype(float) for _ in range(k)]
            for c in centers:
                c[0] = rng.integers(1, 5)  # no zero-norm center
            if k > 1 and rng.random() < 0.3:
                centers[int(rng.integers(1, k))] = centers[0].copy()
                tie += 1
            lone += k == 1
            cands, config = make_candidates(centers)
            V = rng.standard_normal((int(rng.integers(1, 12)), dim))
            batch = select_sense(V, cands, config)
            singles = [select_one(v, cands, config) for v in V]
            assert batch == singles
        assert lone and tie

    def test_reads_rows_from_the_balls_it_is_given(self, tmp_path):
        # construct_balls gives rows in pre-order, a loaded file in sorted text order
        fx = make_synthetic_fixture(seed=0)
        built = construct_balls(fx.taxonomy, fx.table)
        save_balls(built, tmp_path / "b.tsv")
        loaded = load_balls(tmp_path / "b.tsv")
        assert built.ids != loaded.ids
        rng = np.random.default_rng(24)
        for lemma in sorted({leaf.lemma for leaf in fx.leaves}):
            for level in (0, 1):
                cands = candidate_set(lemma, "n", level, fx.inventory, built)
                V = rng.standard_normal((5, built.dim))
                assert select_sense(V, cands, loaded) == select_sense(V, cands, built)

class TestCandidateSet:
    def fixture(self):
        root = SenseId("entity", "n", 1)
        top1, top2 = SenseId("move", "v", 1), SenseId("make", "v", 1)
        f1, f2, f9 = (SenseId("fly", "v", i) for i in (1, 2, 9))
        tax = Taxonomy({root: None, top1: root, top2: root,
                        f1: top1, f2: top2, f9: top1})
        balls = {}
        for i, sid in enumerate([root, top1, top2, f1, f2]):
            c = np.zeros(3)
            c[0] = i + 1.0
            balls[sid] = (sid, c, 0.1)
        config = configuration(balls.values())
        return Inventory(taxonomy=tax), config

    def test_level0_uses_own_balls(self):
        inv, config = self.fixture()
        cands = candidate_set("fly", "v", 0, inv, config)
        # fly.v.09 has no ball, so only two candidates survive
        assert [c.sense.index for c in cands] == [1, 2]
        assert all(c.anchor == c.sense for c in cands)

    def test_level1_anchors_are_parents(self):
        inv, config = self.fixture()
        cands = candidate_set("fly", "v", 1, inv, config)
        assert [str(c.anchor) for c in cands] == ["move.v.01", "make.v.01", "move.v.01"]
        assert [c.sense.index for c in cands] == [1, 2, 9]

    def test_level_past_root_gives_empty(self):
        inv, config = self.fixture()
        assert candidate_set("fly", "v", 9, inv, config) == []

    def test_unknown_word_gives_empty(self):
        inv, config = self.fixture()
        assert candidate_set("zzz", "n", 0, inv, config) == []


class TestDeductionQuery:
    def fixture(self):
        return configuration([
            ("mammal.n.01", [0.0, 0.0], 4.0),
            ("human.n.01", [1.0, 0.0], 2.0),
            ("greek.n.01", [1.5, 0.0], 0.5),
            ("dog.n.01", [-2.0, 0.0], 1.0),
        ])

    def test_chain_is_transitive(self):
        config = self.fixture()
        g, h, m = (SenseId(x, "n", 1) for x in ("greek", "human", "mammal"))
        assert deduction_query(g, h, config)
        assert deduction_query(h, m, config)
        assert deduction_query(g, m, config)

    def test_not_symmetric(self):
        config = self.fixture()
        g, h = SenseId("greek", "n", 1), SenseId("human", "n", 1)
        assert not deduction_query(h, g, config)

    def test_siblings_fail_both_ways(self):
        config = self.fixture()
        h, d = SenseId("human", "n", 1), SenseId("dog", "n", 1)
        assert not deduction_query(h, d, config) and not deduction_query(d, h, config)

    def test_reflexive(self):
        config = self.fixture()
        h = SenseId("human", "n", 1)
        assert deduction_query(h, h, config)

    def test_unknown_sense_raises(self):
        config = self.fixture()
        with pytest.raises(KeyError):
            deduction_query(SenseId("ghost", "n", 1), SenseId("human", "n", 1), config)
        with pytest.raises(KeyError):
            deduction_query(SenseId("human", "n", 1), SenseId("ghost", "n", 1), config)

    def test_every_ordered_pair_of_faulted_balls_against_norm_rule(self):
        rng = np.random.default_rng(24)
        verdicts = set()
        for _ in range(6):
            tax = random_taxonomy(rng, int(rng.integers(10, 60)), forest_prob=0.5)
            built = construct_balls(tax, random_table(rng, tax, int(rng.integers(2, 9))))
            balls = with_faults(rng, built, int(rng.integers(1, 12)))
            eps = float(rng.choice([0.0, 1e-9, 0.3]))
            for i, hypo in enumerate(balls.ids):
                for o, hyper in enumerate(balls.ids):
                    gap = float(np.linalg.norm(balls.centers[i] - balls.centers[o]))
                    want = containment_rule(gap, balls.radii[o], balls.radii[i], eps) <= 0.0
                    got = deduction_query(hypo, hyper, balls, epsilon=eps)
                    assert type(got) is bool and got == want, (hypo, hyper)
                    verdicts.add(got)
        assert verdicts == {True, False}


class TestPredictionFiles:
    def sample(self):
        return [
            Prediction(SenseId("fly", "v", 1), 0.912345678901234567, 0.25),
            None,
            Prediction(SenseId("aim", "n", 2), -0.125, math.inf),
        ]

    def test_round_trip(self, tmp_path):
        preds = self.sample()
        path = tmp_path / "p.tsv"
        save_predictions(preds, 2, path)
        back = [None] * len(preds)
        for line in path.read_text().splitlines():
            iid, chosen, score, margin = line.split("\t")
            level, row = iid[1:].split(".")
            assert level == "2" and len(row) == 6
            back[int(row)] = Prediction(SenseId.parse(chosen), float(score), float(margin))
        assert back == preds

    def test_record_order_past_six_digits(self, tmp_path):
        preds = [None] * 1_000_001
        preds[999_999] = preds[1_000_000] = self.sample()[0]
        path = tmp_path / "p.tsv"
        save_predictions(preds, 0, path)
        ids = [line.split("\t")[0] for line in path.read_text().splitlines()]
        assert ids == ["l0.999999", "l0.1000000"]

    def test_deterministic_bytes(self, tmp_path):
        save_predictions(self.sample(), 0, tmp_path / "a.tsv")
        save_predictions(self.sample(), 0, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
