import math

import numpy as np
import pytest

from ballwsd.geometry import Ball, GeometryConfig, cos_sim, point_inside
from ballwsd.inventory import Inventory, SenseId, Taxonomy
from ballwsd.selector import (Candidate, Prediction, candidate_set,
                              deduction_query, save_predictions,
                              select_sense)

from helpers import configuration


def make_candidate(lemma, index, center, radius=0.5, anchor=None):
    sense = SenseId(lemma, "n", index)
    anchor = anchor or SenseId(f"{lemma}par", "n", index)
    return Candidate(sense=sense, anchor=anchor,
                     ball=Ball(str(anchor), np.asarray(center, dtype=float), radius))


def random_candidates(rng, n, dim):
    cands = []
    for i in range(n):
        center = rng.standard_normal(dim)
        while np.linalg.norm(center) < 1e-6:
            center = rng.standard_normal(dim)
        cands.append(make_candidate("w", i + 1, center, float(rng.uniform(0.1, 2.0))))
    return cands


class TestSelectSense:
    def test_picks_highest_cosine(self):
        cands = [make_candidate("w", 1, [1.0, 0.0]),
                 make_candidate("w", 2, [0.0, 1.0])]
        pred = select_sense([0.1, 0.9], cands)
        assert pred.chosen == SenseId("w", "n", 2)
        assert pred.score == pytest.approx(cos_sim([0.1, 0.9], [0.0, 1.0]))

    def test_tie_breaks_to_lowest_index(self):
        shared = [1.0, 1.0]
        cands = [make_candidate("w", 3, shared), make_candidate("w", 7, shared)]
        pred = select_sense([2.0, 2.0], cands)
        assert pred.chosen == SenseId("w", "n", 3)
        assert pred.margin == 0.0

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(20)
        for _ in range(800):
            dim = int(rng.integers(2, 7))
            cands = random_candidates(rng, int(rng.integers(1, 6)), dim)
            if rng.random() < 0.3 and len(cands) > 1:
                # force a tie by duplicating the first anchor center
                dup = cands[0]
                cands[1] = Candidate(cands[1].sense, cands[1].anchor,
                                     Ball(str(cands[1].anchor), dup.ball.center.copy(),
                                          cands[1].ball.radius))
            v = rng.standard_normal(dim)
            pred = select_sense(v, cands)
            scores = [cos_sim(v, c.ball.center) for c in cands]
            best = max(scores)
            want = min(i for i, s in enumerate(scores) if s == best)
            assert pred.chosen == cands[want].sense
            assert pred.score == scores[want]

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            cands = random_candidates(rng, 4, dim)
            v = rng.standard_normal(dim)
            for scale in (1e-3, 7.3, 1e4):
                assert select_sense(v, cands).chosen == select_sense(scale * v, cands).chosen

    def test_margin_is_top_gap(self):
        cands = [make_candidate("w", 1, [1.0, 0.0]),
                 make_candidate("w", 2, [0.0, 1.0]),
                 make_candidate("w", 3, [-1.0, 0.0])]
        v = [3.0, 1.0]
        pred = select_sense(v, cands)
        scores = sorted((cos_sim(v, c.ball.center) for c in cands), reverse=True)
        assert pred.margin == pytest.approx(scores[0] - scores[1])

    def test_lone_candidate_margin_is_inf(self):
        pred = select_sense([1.0, 0.0], [make_candidate("w", 1, [1.0, 0.1])])
        assert pred.margin == math.inf

    def test_inside_flag_matches_point_inside(self):
        near = make_candidate("w", 1, [1.0, 0.0], radius=0.5)
        pred = select_sense([1.2, 0.0], [near])
        assert pred.inside_anchor_ball == point_inside([1.2, 0.0], near.ball)
        assert pred.inside_anchor_ball
        far = make_candidate("w", 1, [10.0, 0.0], radius=0.5)
        assert not select_sense([1.0, 0.0], [far]).inside_anchor_ball

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            select_sense([1.0], [])

    def test_bad_inputs_raise(self):
        cands = [make_candidate("w", 1, [1.0, 0.0])]
        for v in ([0.0, 0.0], [1.0, float("nan")], [1.0, float("inf")], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                select_sense(v, cands)
        with pytest.raises(ValueError, match="zero-norm"):
            select_sense([1.0, 0.0], [make_candidate("w", 1, [0.0, 0.0])])

    def test_scores_and_margins_equal_cos_sim_bit_for_bit(self):
        # candidates whose balls view rows of one configuration, as in eval
        rng = np.random.default_rng(22)
        for _ in range(300):
            dim = int(rng.integers(2, 120))
            n = int(rng.integers(1, 10))
            anchors = [SenseId("p", "n", i + 1) for i in range(n)]
            config = configuration(Ball(str(a), rng.standard_normal(dim), 0.5) for a in anchors)
            cands = [Candidate(SenseId("w", "n", i + 1), a, config.get(str(a)))
                     for i, a in enumerate(anchors)]
            v = rng.standard_normal((3, dim))[1]  # a row of a matrix, like encoder output
            pred = select_sense(v, cands)
            scores = [cos_sim(v, c.ball.center) for c in cands]
            best = scores.index(max(scores))
            assert pred.chosen == cands[best].sense
            assert pred.score == scores[best]
            rest = scores[:best] + scores[best + 1:]
            assert pred.margin == (scores[best] - max(rest) if rest else math.inf)


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
            balls[str(sid)] = Ball(str(sid), c, 0.1)
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
        balls = {
            "mammal.n.01": Ball("mammal.n.01", np.array([0.0, 0.0]), 4.0),
            "human.n.01": Ball("human.n.01", np.array([1.0, 0.0]), 2.0),
            "greek.n.01": Ball("greek.n.01", np.array([1.5, 0.0]), 0.5),
            "dog.n.01": Ball("dog.n.01", np.array([-2.0, 0.0]), 1.0),
        }
        return configuration(balls.values())

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


class TestPredictionFiles:
    def sample(self):
        return {
            "e2.0001": Prediction(SenseId("fly", "v", 1), 0.912345678901234567, True, 0.25),
            "e2.0002": Prediction(SenseId("aim", "n", 2), -0.125, False, math.inf),
        }

    def test_round_trip(self, tmp_path):
        preds = self.sample()
        path = tmp_path / "p.tsv"
        save_predictions(preds, path)
        back = {}
        for line in path.read_text().splitlines():
            iid, chosen, score, inside, margin = line.split("\t")
            back[iid] = Prediction(SenseId.parse(chosen), float(score),
                                   {"inside:1": True, "inside:0": False}[inside],
                                   float(margin))
        assert back == preds

    def test_deterministic_bytes(self, tmp_path):
        save_predictions(self.sample(), tmp_path / "a.tsv")
        save_predictions(self.sample(), tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
