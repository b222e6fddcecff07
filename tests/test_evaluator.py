from fractions import Fraction

import numpy as np
import pytest

from ballwsd.construct import construct_balls
from ballwsd.corpus import TrainingRecord, lift_to_level
from ballwsd.evaluator import (EvalReport, make_synthetic_fixture, predict_records,
                               save_reports, score, split_records)
from ballwsd.inventory import Inventory, SenseId, Taxonomy, shared_hypernym_pairs

from helpers import ancestors, configuration


def sid(i):
    return SenseId(f"s{i}", "n", 1)


class TestScore:
    def test_three_of_four_attempted_five_gold(self):
        gold = [sid(k) for k in range(5)]
        predicted = [sid(0), sid(1), sid(2), sid(99), None]
        report = score(predicted, gold)
        assert (report.correct, report.attempted, report.total_gold) == (3, 4, 5)
        assert report.precision == float(Fraction(3, 4))
        assert report.recall == float(Fraction(3, 5))
        assert abs(report.f1 - float(Fraction(2, 3))) <= 1e-9
        assert report.skipped == 1

    def test_all_correct(self):
        gold = [sid(k) for k in range(4)]
        report = score(list(gold), gold)
        assert report.f1 == 1.0 and report.skipped == 0

    def test_nothing_attempted(self):
        report = score([None], [sid(0)])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        assert report.skipped == 1

    def test_empty_gold(self):
        report = score([], [])
        assert report.total_gold == 0 and report.f1 == 0.0

    def test_all_wrong(self):
        report = score([sid(9), sid(9)], [sid(0), sid(1)])
        assert report.f1 == 0.0 and report.attempted == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError) as info:
            score([sid(0), None], [sid(0)])
        assert str(info.value) == "2 predictions for 1 gold senses"
        with pytest.raises(ValueError):
            score([sid(0)], [])

    def test_matches_fraction_tally_on_random_sets(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            n_gold = int(rng.integers(1, 40))
            gold = [sid(int(rng.integers(0, 5))) for _ in range(n_gold)]
            predicted = [sid(int(rng.integers(0, 5))) if rng.random() < 0.7 else None
                         for _ in range(n_gold)]
            report = score(predicted, gold)
            attempted = [k for k in range(n_gold) if predicted[k] is not None]
            correct = sum(1 for k in attempted if predicted[k] == gold[k])
            p = Fraction(correct, len(attempted)) if attempted else Fraction(0)
            r = Fraction(correct, n_gold)
            f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
            assert report.precision == float(p)
            assert report.recall == float(r)
            assert report.f1 == float(f1)

    def test_report_render_mentions_counts(self):
        report = EvalReport.from_counts(3, 4, 5)
        assert report.render() == ("P=0.7500 R=0.6000 F1=0.6667 "
                                   "attempted=4 correct=3 total=5 skipped=1")


class TestSaveReports:
    def test_file_shape(self, tmp_path):
        reports = {0: EvalReport.from_counts(1, 2, 4),
                   1: EvalReport.from_counts(0, 0, 4)}
        path = tmp_path / "report.tsv"
        save_reports(reports, path, dataset="toy")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#dataset\tlevel")
        assert lines[1].split("\t") == ["toy", "0", "0.5", "0.25", "0.33333333333333331",
                                         "2", "1", "4", "2"]
        assert lines[2].split("\t")[5:] == ["0", "0", "4", "4"]   # all skipped
        assert len(lines) == 3


class TestSyntheticFixture:
    def test_twin_layout_even_spp(self):
        fx = make_synthetic_fixture(seed=0, n_top=4, senses_per_parent=4,
                                    records_per_sense=2)
        tax = fx.taxonomy
        assert len(fx.leaves) == 16 and len(fx.tops) == 4
        # every word has four senses, two per top, twins sharing a parent
        for j in range(4):
            senses = fx.inventory.senses_of(f"word{j}", "n")
            assert [s.index for s in senses] == [1, 2, 3, 4]
            parents = [tax.parent_of(s) for s in senses]
            assert parents[0] == parents[1] and parents[2] == parents[3]
            assert parents[0] != parents[2]

    def test_odd_spp_has_distinct_parents(self):
        fx = make_synthetic_fixture(seed=0, n_top=4, senses_per_parent=3,
                                    records_per_sense=2)
        assert len(fx.leaves) == 12
        assert shared_hypernym_pairs(fx.inventory) == 0

    @pytest.mark.parametrize("n_top, spp", [(2, 2), (4, 4), (8, 8)])
    def test_even_spp_pairs_twins(self, n_top, spp):
        # polysemy-eval's shape (8, 8) gives the 32 pairs its eval prints
        fx = make_synthetic_fixture(seed=0, n_top=n_top, senses_per_parent=spp,
                                    records_per_sense=1)
        assert shared_hypernym_pairs(fx.inventory) == n_top * spp // 2

    def test_chain_levels_deepen_taxonomy(self):
        fx = make_synthetic_fixture(seed=0, n_top=3, senses_per_parent=2,
                                    records_per_sense=1, chain_levels=3)
        tax = fx.taxonomy
        for leaf in fx.leaves:
            assert len(ancestors(tax, leaf)) == 1 + 3 + 1   # top + chain + root
        flat = make_synthetic_fixture(seed=0, n_top=3, senses_per_parent=2,
                                      records_per_sense=1, chain_levels=0)
        assert all(len(ancestors(flat.taxonomy, leaf)) == 2 for leaf in flat.leaves)

    def test_record_counts_and_targets(self):
        fx = make_synthetic_fixture(seed=1, n_top=2, senses_per_parent=2,
                                    records_per_sense=5)
        assert len(fx.records) == 2 * 2 * 5
        for r in fx.records:
            assert r.target == r.original
            assert r.tokens[r.indices[0]] == r.target.lemma
            assert len(r.tokens) == 9

    def test_deterministic(self):
        a = make_synthetic_fixture(seed=5, records_per_sense=3)
        b = make_synthetic_fixture(seed=5, records_per_sense=3)
        assert a.records == b.records
        for w in a.table.words():
            assert np.array_equal(a.table.vector(w), b.table.vector(w))

    def test_word_vectors_orthogonal_to_scaffold(self):
        fx = make_synthetic_fixture(seed=2, records_per_sense=1)
        w = fx.table.vector("word0")
        for t in range(4):
            dom = fx.table.vector(f"domain{t}")
            assert abs(float(np.dot(w, dom))) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_fixture(n_top=1)
        with pytest.raises(ValueError):
            make_synthetic_fixture(embedding_dim=4)
        with pytest.raises(ValueError):
            make_synthetic_fixture(vocab_size=3)


class TestSplitRecords:
    def test_split_sizes_and_disjointness(self):
        fx = make_synthetic_fixture(seed=3, n_top=2, senses_per_parent=2,
                                    records_per_sense=10)
        train, test = split_records(fx.records, 6, 3)
        assert len(train) == 4 * 6 and len(test) == 4 * 3
        assert not set(map(id, train)) & set(map(id, test))

    def test_growing_train_keeps_test_fixed(self):
        fx = make_synthetic_fixture(seed=3, n_top=2, senses_per_parent=2,
                                    records_per_sense=10)
        _, test_small = split_records(fx.records, 4, 3)
        _, test_big = split_records(fx.records, 7, 3)
        assert test_small == test_big

    def test_overdraw_raises(self):
        fx = make_synthetic_fixture(seed=3, n_top=2, senses_per_parent=2,
                                    records_per_sense=10)
        with pytest.raises(ValueError):
            split_records(fx.records, 9, 3)


class TestPredictRecords:
    ENTITY, MOVE, MAKE, HIDDEN = (SenseId(w, "n", 1) for w in ("entity", "move", "make", "hidden"))
    FLY1, FLY2, SOLO = SenseId("fly", "n", 1), SenseId("fly", "n", 2), SenseId("solo", "n", 1)

    def inputs(self):
        """fly.n.01 < move.n.01 and fly.n.02 < make.n.01 have balls; solo.n.01's
        hypernym hidden.n.01 has none."""
        tax = Taxonomy({self.ENTITY: None, self.MOVE: self.ENTITY, self.MAKE: self.ENTITY,
                        self.HIDDEN: self.ENTITY, self.FLY1: self.MOVE, self.FLY2: self.MAKE,
                        self.SOLO: self.HIDDEN})
        balls = configuration([
            ("entity.n.01", [0.0, 0.0, 1.0], 0.9),
            ("move.n.01", [1.0, 0.0, 0.0], 0.3),
            ("make.n.01", [0.0, 1.0, 0.0], 0.3),
            ("fly.n.01", [1.0, 0.0, 0.1], 0.1),
            ("fly.n.02", [0.0, 1.0, 0.1], 0.1),
            ("solo.n.01", [0.0, 0.0, 0.5], 0.1),
        ])
        return Inventory(taxonomy=tax), balls

    def record(self, target, original, token=None):
        """A record whose annotated token is `token`, or the original's lemma."""
        return TrainingRecord(target, original, ("a", token or original.lemma, "c"), (1,))

    def test_row_count_must_match_records(self):
        inventory, balls = self.inputs()
        records = [self.record(self.MOVE, self.FLY1), self.record(self.MAKE, self.FLY2)]
        with pytest.raises(ValueError) as info:
            predict_records(np.ones((3, 3)), records, 1, inventory, balls)
        assert str(info.value) == "3 encoded rows for 2 records"

    def test_level1_anchors_and_skipped_word(self):
        inventory, balls = self.inputs()
        records = [self.record(self.MOVE, self.FLY1),    # aimed at move: right
                   self.record(self.HIDDEN, self.SOLO),  # no anchor ball: unattempted
                   self.record(self.MAKE, self.FLY2)]    # aimed at move: wrong
        V = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]])
        report, preds = predict_records(V, records, 1, inventory, balls)
        assert (report.attempted, report.correct, report.total_gold, report.skipped) == (2, 1, 3, 1)
        assert len(preds) == 3 and preds[1] is None
        # the prediction names a sense; it scores by that sense's level-1 anchor
        assert preds[0].chosen == preds[2].chosen == self.FLY1

    def test_word_is_the_annotated_token_not_gold(self):
        inventory, balls = self.inputs()
        records = [self.record(self.MOVE, self.SOLO, token="fly"),   # fly's senses offered
                   self.record(self.MOVE, self.FLY1, token="ghost")]  # no sense: unattempted
        V = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        report, preds = predict_records(V, records, 1, inventory, balls)
        assert preds[0].chosen == self.FLY1 and preds[0].anchor == self.MOVE
        assert preds[1] is None
        assert (report.attempted, report.correct, report.total_gold) == (1, 1, 2)

    def test_interleaved_words_equal_one_record_per_call(self):
        fx = make_synthetic_fixture(seed=5, n_top=4, senses_per_parent=3,
                                    records_per_sense=6, embedding_dim=16)
        balls = construct_balls(fx.taxonomy, fx.table)
        rng = np.random.default_rng(9)
        records = [fx.records[i] for i in rng.permutation(len(fx.records))]
        assert len({r.original.word for r in records[:6]}) > 1  # words interleave
        for level in (0, 1, 2):
            lifted = lift_to_level(records, fx.taxonomy, level, balls)
            V = rng.standard_normal((len(lifted), balls.dim))
            report, preds = predict_records(V, lifted, level, fx.inventory, balls)
            singles = []
            correct = attempted = 0
            for i, rec in enumerate(lifted):
                one, pred = predict_records(V[i:i + 1], [rec], level, fx.inventory, balls)
                singles += pred
                correct, attempted = correct + one.correct, attempted + one.attempted
            assert preds == singles and len(preds) == len(lifted)
            assert report == EvalReport.from_counts(correct, attempted, len(lifted))
