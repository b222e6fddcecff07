from fractions import Fraction

import numpy as np
import pytest

from ballwsd.construct import construct_balls
from ballwsd.encoder import TrainConfig
from ballwsd.evaluator import (EvalReport, ExperimentEnv, ExperimentSpec,
                               make_synthetic_fixture, run_experiment,
                               save_reports, score, split_records)
from ballwsd.geometry import GeometryConfig
from ballwsd.inventory import SenseId


def sid(i):
    return SenseId(f"s{i}", "n", 1)


class TestScore:
    def test_three_of_four_attempted_five_gold(self):
        gold = {f"i{k}": sid(k) for k in range(5)}
        predicted = {"i0": sid(0), "i1": sid(1), "i2": sid(2), "i3": sid(99)}
        report = score(predicted, gold)
        assert (report.correct, report.attempted, report.total_gold) == (3, 4, 5)
        assert report.precision == float(Fraction(3, 4))
        assert report.recall == float(Fraction(3, 5))
        assert abs(report.f1 - float(Fraction(2, 3))) <= 1e-9
        assert report.skipped == 1

    def test_all_correct(self):
        gold = {f"i{k}": sid(k) for k in range(4)}
        report = score(dict(gold), gold)
        assert report.f1 == 1.0 and report.skipped == 0

    def test_nothing_attempted(self):
        gold = {"i0": sid(0)}
        report = score({}, gold)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        assert report.skipped == 1

    def test_empty_gold(self):
        report = score({}, {})
        assert report.total_gold == 0 and report.f1 == 0.0

    def test_all_wrong(self):
        gold = {"i0": sid(0), "i1": sid(1)}
        report = score({"i0": sid(9), "i1": sid(9)}, gold)
        assert report.f1 == 0.0 and report.attempted == 2

    def test_inside_rate(self):
        gold = {"i0": sid(0), "i1": sid(1), "i2": sid(2)}
        predicted = {"i0": sid(0), "i1": sid(9)}
        inside = {"i0": True, "i1": False}
        report = score(predicted, gold, inside)
        assert report.inside_rate == 0.5
        assert score(predicted, gold).inside_rate is None

    def test_unknown_instance_id_rejected(self):
        with pytest.raises(ValueError):
            score({"ghost": sid(0)}, {"i0": sid(0)})

    def test_matches_fraction_tally_on_random_sets(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            n_gold = int(rng.integers(1, 40))
            gold = {f"i{k}": sid(int(rng.integers(0, 5))) for k in range(n_gold)}
            predicted = {}
            for k in range(n_gold):
                if rng.random() < 0.7:
                    predicted[f"i{k}"] = sid(int(rng.integers(0, 5)))
            report = score(predicted, gold)
            correct = sum(1 for k, p in predicted.items() if p == gold[k])
            p = Fraction(correct, len(predicted)) if predicted else Fraction(0)
            r = Fraction(correct, n_gold)
            f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
            assert report.precision == float(p)
            assert report.recall == float(r)
            assert report.f1 == float(f1)

    def test_report_render_mentions_counts(self):
        report = EvalReport.from_counts(3, 4, 5, inside_count=2)
        text = report.render()
        assert "attempted=4" in text and "correct=3" in text and "inside=0.5000" in text


class TestSaveReports:
    def test_file_shape(self, tmp_path):
        reports = {0: EvalReport.from_counts(1, 2, 4, 1),
                   1: EvalReport.from_counts(2, 2, 4)}
        path = tmp_path / "report.tsv"
        save_reports(reports, path, dataset="toy")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#dataset\tlevel")
        assert lines[1].split("\t")[0:2] == ["toy", "0"]
        assert lines[2].split("\t")[9] == "-"   # no inside info at level 1
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
        from ballwsd.inventory import check_distinct_hypernym_assumption
        fx = make_synthetic_fixture(seed=0, n_top=4, senses_per_parent=3,
                                    records_per_sense=2)
        assert len(fx.leaves) == 12
        assert check_distinct_hypernym_assumption(fx.inventory) == []

    def test_chain_levels_deepen_taxonomy(self):
        fx = make_synthetic_fixture(seed=0, n_top=3, senses_per_parent=2,
                                    records_per_sense=1, chain_levels=3)
        tax = fx.taxonomy
        for leaf in fx.leaves:
            assert len(tax.ancestors(leaf)) == 1 + 3 + 1   # top + chain + root
        flat = make_synthetic_fixture(seed=0, n_top=3, senses_per_parent=2,
                                      records_per_sense=1, chain_levels=0)
        assert all(len(flat.taxonomy.ancestors(leaf)) == 2 for leaf in flat.leaves)

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


class TestRunExperiment:
    def test_small_end_to_end(self):
        fx = make_synthetic_fixture(seed=4, n_top=2, senses_per_parent=2,
                                    vocab_size=40, records_per_sense=30,
                                    embedding_dim=16)
        cfg = GeometryConfig()
        balls = construct_balls(fx.taxonomy, fx.table, cfg)
        train_recs, test_recs = split_records(fx.records, 20, 10)
        env = ExperimentEnv(inventory=fx.inventory, table=fx.table, balls=balls,
                            train_records=train_recs, test_records=test_recs,
                            geometry=cfg)
        tc = TrainConfig(window_k=4, lr=0.05, epochs=6, batch_size=16, seed=0)
        spec = ExperimentSpec(train_level=1, eval_levels=(0, 1), train_config=tc,
                              name="tiny")
        result = run_experiment(spec, env)
        assert set(result.reports) == {0, 1}
        assert result.reports[1].total_gold == 40
        assert len(result.curve) == 6
        assert result.curve[-1][1] < result.curve[0][1]
        # each word's sense pair shares one top, so both pairs are listed
        assert len(result.collisions) == 2
        assert result.reports[1].f1 >= result.reports[0].f1
        text = result.render()
        assert "level 1" in text and "trained at level 1" in text

    def test_missing_train_data_raises(self):
        fx = make_synthetic_fixture(seed=4, n_top=2, senses_per_parent=2,
                                    vocab_size=40, records_per_sense=5,
                                    embedding_dim=16)
        cfg = GeometryConfig()
        balls = construct_balls(fx.taxonomy, fx.table, cfg)
        env = ExperimentEnv(inventory=fx.inventory, table=fx.table, balls=balls,
                            train_records=fx.records, test_records=fx.records,
                            geometry=cfg)
        spec = ExperimentSpec(train_level=9, eval_levels=(0,),
                              train_config=TrainConfig(epochs=1))
        with pytest.raises(ValueError):
            run_experiment(spec, env)
