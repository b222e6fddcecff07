import math

import numpy as np
import pytest

from ballwsd.geometry import cos_sim, point_inside
from ballwsd.inventory import Inventory, SenseId, Taxonomy
from ballwsd.selector import (Candidate, Prediction, candidate_set,
                              deduction_query, save_predictions,
                              select_sense)

from helpers import configuration


def make_candidates(centers, radii=None, indices=None, lemma="w"):
    """Candidates for the senses `lemma.n.<index>` (indices 1, 2, ... by
    default), each anchored at `<lemma>par.n.<index>`, and the
    configuration whose rows are those anchors' balls, in order."""
    indices = indices or range(1, len(centers) + 1)
    radii = radii or [0.5] * len(centers)
    anchors = [SenseId(f"{lemma}par", "n", i) for i in indices]
    config = configuration((str(a), np.asarray(c, dtype=float), r)
                           for a, c, r in zip(anchors, centers, radii))
    cands = [Candidate(SenseId(lemma, "n", i), a, config.row[str(a)])
             for i, a in zip(indices, anchors)]
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


class TestSelectSense:
    def test_picks_highest_cosine(self):
        cands, config = make_candidates([[1.0, 0.0], [0.0, 1.0]])
        pred = select_sense([0.1, 0.9], cands, config)
        assert pred.chosen == SenseId("w", "n", 2)
        assert pred.score == pytest.approx(cos_sim([0.1, 0.9], [0.0, 1.0]))

    def test_tie_breaks_to_lowest_index(self):
        shared = [1.0, 1.0]
        cands, config = make_candidates([shared, shared], indices=[3, 7])
        pred = select_sense([2.0, 2.0], cands, config)
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
            pred = select_sense(v, cands, config)
            scores = [cos_sim(v, config.centers[c.row]) for c in cands]
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
                assert (select_sense(v, cands, config).chosen
                        == select_sense(scale * v, cands, config).chosen)

    def test_margin_is_top_gap(self):
        cands, config = make_candidates([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        v = [3.0, 1.0]
        pred = select_sense(v, cands, config)
        scores = sorted((cos_sim(v, c) for c in config.centers), reverse=True)
        assert pred.margin == pytest.approx(scores[0] - scores[1])

    def test_lone_candidate_margin_is_inf(self):
        pred = select_sense([1.0, 0.0], *make_candidates([[1.0, 0.1]]))
        assert pred.margin == math.inf

    def test_inside_flag_matches_point_inside(self):
        near, config = make_candidates([[1.0, 0.0]], radii=[0.5])
        pred = select_sense([1.2, 0.0], near, config)
        assert pred.inside_anchor_ball == point_inside([1.2, 0.0], config, str(near[0].anchor))
        assert pred.inside_anchor_ball
        far, config = make_candidates([[10.0, 0.0]], radii=[0.5])
        assert not select_sense([1.0, 0.0], far, config).inside_anchor_ball

    def test_empty_candidates_raise(self):
        _, config = make_candidates([[1.0]])
        with pytest.raises(ValueError):
            select_sense([1.0], [], config)

    def test_bad_inputs_raise(self):
        cands, config = make_candidates([[1.0, 0.0]])
        for v in ([0.0, 0.0], [1.0, float("nan")], [1.0, float("inf")], [1.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                select_sense(v, cands, config)
        with pytest.raises(ValueError, match="zero-norm"):
            select_sense([1.0, 0.0], *make_candidates([[0.0, 0.0]]))

    def test_scores_and_margins_equal_cos_sim_bit_for_bit(self):
        # candidates are rows of one configuration, as in eval
        rng = np.random.default_rng(22)
        for _ in range(300):
            dim = int(rng.integers(2, 120))
            n = int(rng.integers(1, 10))
            anchors = [SenseId("p", "n", i + 1) for i in range(n)]
            config = configuration((str(a), rng.standard_normal(dim), 0.5) for a in anchors)
            cands = [Candidate(SenseId("w", "n", i + 1), a, config.row[str(a)])
                     for i, a in enumerate(anchors)]
            v = rng.standard_normal((3, dim))[1]  # a row of a matrix, like encoder output
            pred = select_sense(v, cands, config)
            scores = [cos_sim(v, config.centers[c.row]) for c in cands]
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
            balls[str(sid)] = (str(sid), c, 0.1)
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
        assert all(config.ids[c.row] == str(c.anchor) for c in cands)

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
