import numpy as np
import pytest

from ballwsd.corpus import (CorpusError, TrainingRecord, anchor_at, dataset_report,
                            lift_to_level, parse_annotated_corpus,
                            save_records)
from ballwsd.inventory import SenseId, Taxonomy

from helpers import ancestors, configuration, random_taxonomy

AIM = SenseId("aim", "n", 2)
GOAL = SenseId("goal", "n", 1)
CONTENT = SenseId("content", "n", 5)
COGNITION = SenseId("cognition", "n", 1)
TOKENS = ("have", "you", "set", "specific", "objectives", "for", "your", "career")


def aim_taxonomy():
    return Taxonomy({COGNITION: None, CONTENT: COGNITION, GOAL: CONTENT, AIM: GOAL})


def ball_config(senses, dim=3):
    balls = {}
    for i, s in enumerate(senses):
        center = np.zeros(dim)
        center[0] = float(i + 1)
        balls[str(s)] = (str(s), center, 0.25)
    return configuration(balls.values(), dim=dim)


class TestTrainingRecord:
    def test_valid_record(self):
        r = TrainingRecord(AIM, AIM, TOKENS, (4,))
        assert r.tokens[4] == "objectives"
        assert r.indices == (4,)

    def test_sequences_coerced_to_tuples(self):
        r = TrainingRecord(AIM, AIM, list(TOKENS), [4, 5])
        assert isinstance(r.tokens, tuple) and isinstance(r.indices, tuple)

    def test_empty_tokens_rejected(self):
        with pytest.raises(CorpusError):
            TrainingRecord(AIM, AIM, (), (0,))

    def test_empty_indices_rejected(self):
        with pytest.raises(CorpusError):
            TrainingRecord(AIM, AIM, TOKENS, ())

    def test_index_out_of_range_rejected(self):
        with pytest.raises(CorpusError):
            TrainingRecord(AIM, AIM, TOKENS, (8,))
        with pytest.raises(CorpusError):
            TrainingRecord(AIM, AIM, TOKENS, (-1,))


# a malformed corpus line and the message its error gives after `path:lineno: `
MALFORMED = {
    "aim.n.02\t4": "expected 3 or 4 tab-separated fields, got 2",
    "aim.n.02\ta\tb\tc\td\te": "expected 3 or 4 tab-separated fields, got 6",
    "notasense\t0\ttok": "malformed sense id 'notasense', want lemma.pos.index",
    "goal.n.01\taim.n.x\t0\ttok": "malformed sense index in 'aim.n.x'",
    "aim.n.02\tx\ttok": "bad index list 'x'",
    "aim.n.02\t0,\ttok": "bad index list '0,'",
    "aim.n.02\t5\tshort sentence": "target index 5 out of range for 2 tokens",
    "aim.n.02\t0\t ": "record has no tokens",
}


class TestParsing:
    def test_three_column_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("aim.n.02\t4\thave you set specific objectives for your career\n")
        (r,) = parse_annotated_corpus(p)
        assert r.target == AIM and r.original == AIM
        assert r.tokens == TOKENS and r.indices == (4,)

    def test_four_column_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("goal.n.01\taim.n.02\t4\t" + " ".join(TOKENS) + "\n")
        (r,) = parse_annotated_corpus(p)
        assert r.target == GOAL and r.original == AIM

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("# header\n\naim.n.02\t0,1\ta b\n")
        (r,) = parse_annotated_corpus(p)
        assert r.indices == (0, 1)

    def test_multi_index(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("aim.n.02\t1,2\tnew york city\n")
        (r,) = parse_annotated_corpus(p)
        assert r.indices == (1, 2)

    @pytest.mark.parametrize("line", list(MALFORMED))
    def test_malformed_lines_raise(self, tmp_path, line):
        p = tmp_path / "c.tsv"
        p.write_text("# header\naim.n.02\t0\tok\n" + line + "\n")
        with pytest.raises(CorpusError) as info:
            parse_annotated_corpus(p)
        assert str(info.value) == f"{p}:3: {MALFORMED[line]}"

    def test_tokens_are_shared_across_files_and_records(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("aim.n.02\t4\t" + " ".join(TOKENS) + "\n")
        b.write_text("goal.n.01\taim.n.02\t4\t" + " ".join(TOKENS) + "\n"
                     "aim.n.02\t0\tcareer objectives\n")
        (ra,), (rb, rc) = parse_annotated_corpus(a), parse_annotated_corpus(b)
        assert ra.tokens == rb.tokens == TOKENS
        assert all(x is y for x, y in zip(ra.tokens, rb.tokens))
        assert rc.tokens[0] is ra.tokens[7] and rc.tokens[1] is ra.tokens[4]

    def test_empty_file_gives_no_records(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("")
        assert parse_annotated_corpus(p) == []


class TestSaveRecords:
    def test_round_trip_level0(self, tmp_path):
        recs = [TrainingRecord(AIM, AIM, TOKENS, (4,)),
                TrainingRecord(GOAL, GOAL, ("a", "b"), (0, 1))]
        p = tmp_path / "c.tsv"
        save_records(recs, p)
        assert parse_annotated_corpus(p) == recs
        assert "\t".join(p.read_text().splitlines()[0].split("\t")[:2]) == "aim.n.02\t4"

    def test_round_trip_lifted(self, tmp_path):
        recs = [TrainingRecord(GOAL, AIM, TOKENS, (4,))]
        p = tmp_path / "c.tsv"
        save_records(recs, p)
        line = p.read_text().rstrip("\n")
        assert line.split("\t")[:2] == ["goal.n.01", "aim.n.02"]
        assert parse_annotated_corpus(p) == recs

    def test_forced_column_count(self, tmp_path):
        # one lifted record gives every line the original-sense column
        recs = [TrainingRecord(AIM, AIM, TOKENS, (4,)), TrainingRecord(GOAL, AIM, TOKENS, (4,))]
        p = tmp_path / "c.tsv"
        save_records(recs, p)
        assert [len(line.split("\t")) for line in p.read_text().splitlines()] == [4, 4]
        assert parse_annotated_corpus(p) == recs


class TestLifting:
    def test_worked_chain(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL, CONTENT, COGNITION])
        rec = TrainingRecord(AIM, AIM, TOKENS, (4,))
        (l1,) = lift_to_level([rec], tax, 1, balls)
        assert (l1.target, l1.original) == (GOAL, AIM)
        assert l1.tokens == TOKENS and l1.indices == (4,)
        (l2,) = lift_to_level([rec], tax, 2, balls)
        assert l2.target == CONTENT
        (l3,) = lift_to_level([rec], tax, 3, balls)
        assert l3.target == COGNITION

    def test_level0_equals_coverage_filter(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL])
        recs = [TrainingRecord(AIM, AIM, TOKENS, (4,)),
                TrainingRecord(CONTENT, CONTENT, ("x",), (0,))]
        assert lift_to_level(recs, tax, 0, balls) == [recs[0]]

    def test_drops_when_hypernym_missing_ball(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, CONTENT])  # goal.n.01 has no ball
        rec = TrainingRecord(AIM, AIM, TOKENS, (4,))
        assert lift_to_level([rec], tax, 1, balls) == []
        assert len(lift_to_level([rec], tax, 2, balls)) == 1

    def test_drops_past_root(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL, CONTENT, COGNITION])
        rec = TrainingRecord(AIM, AIM, TOKENS, (4,))
        assert lift_to_level([rec], tax, 4, balls) == []

    def test_drops_unknown_original(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL])
        rec = TrainingRecord(SenseId("zz", "n", 1), SenseId("zz", "n", 1), ("a",), (0,))
        assert lift_to_level([rec], tax, 1, balls) == []

    def test_negative_level_raises(self):
        with pytest.raises(ValueError):
            lift_to_level([], aim_taxonomy(), -1, ball_config([AIM]))

    def test_lift_preserves_payload_on_random_taxonomies(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tax = random_taxonomy(rng, 40)
            nodes = tax.nodes()
            balls = ball_config(nodes, dim=2)
            recs = []
            for _ in range(30):
                s = nodes[int(rng.integers(0, len(nodes)))]
                n_tok = int(rng.integers(1, 8))
                toks = tuple(f"t{j}" for j in range(n_tok))
                recs.append(TrainingRecord(s, s, toks, (int(rng.integers(0, n_tok)),)))
            level = int(rng.integers(0, 4))
            for out in lift_to_level(recs, tax, level, balls):
                assert out.target == ([out.original] + ancestors(tax, out.original))[level]
                src = [r for r in recs if r.original == out.original]
                assert any(r.tokens == out.tokens and r.indices == out.indices for r in src)


class TestAnchorAt:
    """On configurations with a ball on every node, `anchor_at` is the
    plain level walk."""

    def test_walks_chain(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL, CONTENT, COGNITION])
        assert [anchor_at(tax, AIM, lvl, balls) for lvl in range(6)] == \
            [AIM, GOAL, CONTENT, COGNITION, None, None]
        assert anchor_at(tax, AIM, 99, balls) is None

    def test_errors(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL, CONTENT, COGNITION])
        with pytest.raises(ValueError):
            anchor_at(tax, COGNITION, -1, balls)
        assert anchor_at(tax, SenseId("zz", "n", 1), 1, balls) is None

    def test_matches_ancestor_list(self):
        rng = np.random.default_rng(6)
        tax = random_taxonomy(rng, 50)
        balls = ball_config(tax.nodes(), dim=2)
        for node in tax.nodes():
            chain = [node] + ancestors(tax, node)
            for lvl in range(len(chain) + 2):
                want = chain[lvl] if lvl < len(chain) else None
                assert anchor_at(tax, node, lvl, balls) == want


class TestDatasetReport:
    def test_counts_match_hand_tally(self):
        tax = aim_taxonomy()
        balls = ball_config([AIM, GOAL])   # content has no ball
        recs = [TrainingRecord(AIM, AIM, TOKENS, (4,))] * 3 + \
               [TrainingRecord(GOAL, GOAL, ("x",), (0,))] * 2
        kept = lift_to_level(recs, tax, 1, balls)
        # aim lifts to goal (ball), goal lifts to content (no ball)
        assert dataset_report("d", 1, recs, kept) == \
            "d L1: senses 1/2 (50.00%), records 3/5 (60.00%)"

    def test_empty_corpus(self):
        assert dataset_report("d", 0, [], []) == \
            "d L0: senses 0/0 (0.00%), records 0/0 (0.00%)"

    def test_covered_senses_are_those_with_an_anchor(self):
        """Counting the kept records' originals gives the senses that have
        an anchor at the level, on random taxonomies and ball subsets."""
        rng = np.random.default_rng(12)
        for _ in range(60):
            tax = random_taxonomy(rng, int(rng.integers(1, 50)))
            nodes = tax.nodes()
            with_ball = [n for n in nodes if rng.random() < 0.7]
            balls = ball_config(with_ball, dim=2)
            stray = SenseId("stray", "n", 1)   # not in the taxonomy
            pool = nodes + [stray]
            recs = [TrainingRecord(s, s, ("t",), (0,))
                    for s in (pool[int(rng.integers(0, len(pool)))] for _ in range(40))]
            level = int(rng.integers(0, 5))
            seen = {r.original for r in recs}
            want = sum(1 for s in seen if anchor_at(tax, s, level, balls) is not None)
            line = dataset_report("d", level, recs, lift_to_level(recs, tax, level, balls))
            assert f"senses {want}/{len(seen)} " in line
