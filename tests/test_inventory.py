import numpy as np
import pytest

from ballwsd.inventory import (Inventory, SenseId, Taxonomy, TaxonomyError, load_inventory,
                               shared_hypernym_pairs)

from helpers import ancestors, random_taxonomy


class TestSenseId:
    def test_str_pads_index(self):
        assert str(SenseId("goal", "n", 1)) == "goal.n.01"
        assert str(SenseId("fly", "v", 6)) == "fly.v.06"
        assert str(SenseId("x", "n", 123)) == "x.n.123"

    def test_parse_round_trip(self):
        for text in ("aim.n.02", "fly.v.06", "entity.n.01"):
            assert str(SenseId.parse(text)) == text

    def test_parse_dotted_lemma(self):
        s = SenseId.parse("u.s.a.n.01")
        assert s.lemma == "u.s.a" and s.pos == "n" and s.index == 1

    def test_parse_rejects_malformed(self):
        for bad in ("goal", "goal.n", "goal.n.xx", ".n.01", "dog.n.\u0661", "dog.n.\u00b2"):
            with pytest.raises(ValueError):
                SenseId.parse(bad)

    def test_validation(self):
        for args, message in [
            (("", "n", 1), "empty lemma or pos in sense id SenseId(lemma='', pos='n', index=1)"),
            (("a", "", 1), "empty lemma or pos in sense id SenseId(lemma='a', pos='', index=1)"),
            (("a", "n", -1), "negative sense index in SenseId(lemma='a', pos='n', index=-1)"),
        ]:
            with pytest.raises(ValueError) as info:
                SenseId(*args)
            assert str(info.value) == message

    def test_word_and_order(self):
        s = SenseId("aim", "n", 2)
        assert s.word == ("aim", "n")
        assert SenseId("aim", "n", 1) < SenseId("aim", "n", 2) < SenseId("bet", "n", 1)

    def test_sorts_hashes_and_prints_as_its_fields(self):
        texts = ["u.s.a.n.01", "u.s.n.02", "us.n.01", "aim.v.100", "aim.n.100", "aim.n.99",
                 "aim.n.05", "a.b.n.03", "a.n.03", "a.b.c.v.00"]
        ids = [SenseId.parse(t) for t in texts]
        want = sorted(ids, key=lambda s: (s.lemma, s.pos, s.index))
        assert [str(s) for s in want] == [
            "a.n.03", "a.b.n.03", "a.b.c.v.00", "aim.n.05", "aim.n.99", "aim.n.100",
            "aim.v.100", "u.s.n.02", "u.s.a.n.01", "us.n.01"]
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert sorted(ids[i] for i in rng.permutation(len(ids))) == want
        for s in ids:
            assert hash(s) == hash((s.lemma, s.pos, s.index))
            assert repr(s) == f"SenseId(lemma={s.lemma!r}, pos={s.pos!r}, index={s.index!r})"

    def test_keyword_construction(self):
        s = SenseId(lemma="aim", pos="n", index=2)
        assert s == SenseId("aim", "n", 2) and str(s) == "aim.n.02"
        assert (s.lemma, s.pos, s.index) == ("aim", "n", 2)


def parent_chain_cycle(parent):
    """The node a cycle check names: walk parents from each node in
    insertion order, and name the first node seen twice on one walk.
    None when there is no cycle."""
    state = {}  # 1 = on the current walk, 2 = done
    for start in parent:
        node, trail = start, []
        while node is not None and state.get(node) != 2:
            if state.get(node) == 1:
                return node
            state[node] = 1
            trail.append(node)
            node = parent[node]
        for n in trail:
            state[n] = 2
    return None


def small_chain():
    e = SenseId("entity", "n", 1)
    m = SenseId("mammal", "n", 1)
    h = SenseId("human", "n", 1)
    g = SenseId("greek", "n", 1)
    d = SenseId("dog", "n", 1)
    tax = Taxonomy({e: None, m: e, h: m, g: h, d: m})
    return e, m, h, g, d, tax


class TestTaxonomy:
    def test_structure_queries(self):
        e, m, h, g, d, tax = small_chain()
        assert tax.roots() == [e]
        assert tax.parent_of(g) == h and tax.parent_of(e) is None
        assert tax.children_of(m) == [d, h]
        assert ancestors(tax, g) == [h, m, e]
        assert len(ancestors(tax, e)) == 0
        assert not tax.children_of(g) and tax.children_of(m)
        assert len(tax) == 5 and g in tax

    def test_unknown_node_raises(self):
        *_, tax = small_chain()
        with pytest.raises(KeyError):
            tax.parent_of(SenseId("zz", "n", 1))
        with pytest.raises(KeyError):
            tax.children_of(SenseId("zz", "n", 1))

    def test_empty_taxonomy_raises(self):
        with pytest.raises(TaxonomyError, match="^empty taxonomy$"):
            Taxonomy({})

    def test_unknown_parent_raises(self):
        a, b = SenseId("a", "n", 1), SenseId("b", "n", 1)
        with pytest.raises(TaxonomyError):
            Taxonomy({a: b})

    def test_cycle_detected(self):
        a, b, c, r, t = (SenseId(x, "n", 1) for x in "abcrt")
        for parent, named in [
            ({a: b, b: c, c: a}, a),
            ({a: a}, a),
            ({r: None, a: a}, a),              # a self-loop beside a tree
            ({t: b, a: b, b: a, r: None}, b),  # a tail listed first, into a 2-cycle
        ]:
            with pytest.raises(TaxonomyError) as info:
                Taxonomy(parent)
            assert str(info.value) == f"cycle through {named}"

    def test_cycle_message_matches_parent_chain_walk(self):
        rng = np.random.default_rng(8)
        pool = [SenseId(f"n{i}", "n", 1) for i in range(12)]
        cyclic = 0
        for _ in range(3000):
            nodes = [pool[i] for i in rng.permutation(len(pool))[:int(rng.integers(1, 13))]]
            parent = {n: None if rng.random() < 0.2 else nodes[int(rng.integers(0, len(nodes)))]
                      for n in nodes}
            named = parent_chain_cycle(parent)
            if named is None:
                assert len(Taxonomy(parent)) == len(nodes)
                continue
            cyclic += 1
            with pytest.raises(TaxonomyError) as info:
                Taxonomy(parent)
            assert str(info.value) == f"cycle through {named}"
        assert 1000 < cyclic < 3000

    def test_preorder_lists_each_subtree_as_one_run(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            tax = random_taxonomy(rng, int(rng.integers(1, 60)), forest_prob=0.5)
            order = tax.preorder()
            assert sorted(node for node, _ in order) == tax.nodes()
            pos = {node: i for i, (node, _) in enumerate(order)}
            for i, (node, depth) in enumerate(order):
                assert depth == len(ancestors(tax, node))
                par = tax.parent_of(node)
                assert par is None or pos[par] < i
                below = [m for m, _ in order if node in ancestors(tax, m)]
                assert sorted(pos[m] for m in below) == list(range(i + 1, i + 1 + len(below)))

    def test_random_taxonomies_have_consistent_structure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tax = random_taxonomy(rng, int(rng.integers(2, 60)))
            for node in tax.nodes():
                par = tax.parent_of(node)
                if par is None:
                    assert node in tax.roots()
                else:
                    assert node in tax.children_of(par)
                    assert len(ancestors(tax, node)) == len(ancestors(tax, par)) + 1


class TestLoadInventory:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text(
            "# taxonomy edges\n"
            "greek.n.01\thuman.n.01\n"
            "human.n.01\tmammal.n.01\n"
            "\n"
            "mammal.n.01\t-\n"
        )
        inv = load_inventory(p)
        tax = inv.taxonomy
        assert len(tax) == 3
        assert tax.roots() == [SenseId("mammal", "n", 1)]
        assert inv.dropped_edges == []

    def test_right_side_only_node_is_implicit_root(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("a.n.01\tb.n.01\n")
        tax = load_inventory(p).taxonomy
        assert tax.roots() == [SenseId("b", "n", 1)]

    def test_first_edge_wins_and_extras_recorded(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text(
            "a.n.01\tb.n.01\n"
            "a.n.01\tc.n.01\n"
            "b.n.01\t-\n"
            "c.n.01\t-\n"
        )
        inv = load_inventory(p)
        assert inv.taxonomy.parent_of(SenseId("a", "n", 1)) == SenseId("b", "n", 1)
        assert inv.dropped_edges == [(SenseId("a", "n", 1), SenseId("c", "n", 1))]

    def test_dropped_edges_logged_once_per_file(self, tmp_path, caplog):
        p = tmp_path / "inv.tsv"
        p.write_text(
            "a.n.01\tb.n.01\n"
            "a.n.01\tc.n.01\n"
            "a.n.01\td.n.01\n"
            "b.n.01\t-\n"
            "b.n.01\t-\n"
            "b.n.01\tc.n.01\n"
        )
        with caplog.at_level("WARNING", logger="ballwsd.inventory"):
            inv = load_inventory(p)
        assert len(inv.dropped_edges) == 3
        assert len(caplog.records) == 1
        assert "3 extra parent edges dropped, first a.n.01 -> c.n.01" in caplog.records[0].message

    def test_explicit_root_not_overridden(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("a.n.01\t-\na.n.01\tb.n.01\nb.n.01\t-\n")
        inv = load_inventory(p)
        assert inv.taxonomy.parent_of(SenseId("a", "n", 1)) is None

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "inv.tsv"
        for line, message in [
            ("a.n.01", "expected `child<TAB>parent`, got 'a.n.01'"),
            ("a.n.01 b.n.01", "expected `child<TAB>parent`, got 'a.n.01 b.n.01'"),
            ("a.n.01\tb.n.01\tc.n.01", "expected `child<TAB>parent`, got 'a.n.01\\tb.n.01\\tc.n.01'"),
            ("bad\ta.n.01", "malformed sense id 'bad', want lemma.pos.index"),
            ("a.n.01\tb.n", "malformed sense id 'b.n', want lemma.pos.index"),
            ("a.n.x\t-", "malformed sense index in 'a.n.x'"),
            ("a.n.-1\t-", "malformed sense index in 'a.n.-1'"),
            (".n.01\t-", "empty lemma or pos in sense id SenseId(lemma='', pos='n', index=1)"),
        ]:
            p.write_text("# edges\nroot.n.01\t-\n" + line + "\n")
            with pytest.raises(TaxonomyError) as info:
                load_inventory(p)
            assert str(info.value) == f"{p}:3: {message}"

    def test_senses_grouped_by_word(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text(
            "fly.v.06\ttravel.v.01\n"
            "fly.v.01\ttravel.v.01\n"
            "travel.v.01\t-\n"
        )
        inv = load_inventory(p)
        assert inv.senses_of("fly", "v") == [SenseId("fly", "v", 1), SenseId("fly", "v", 6)]
        assert inv.senses_of("nope", "n") == []


class TestDistinctHypernymAssumption:
    def test_twins_found(self):
        top = SenseId("travel", "v", 1)
        f1, f6 = SenseId("fly", "v", 1), SenseId("fly", "v", 6)
        other = SenseId("go", "v", 1)
        tax = Taxonomy({top: None, f1: top, f6: top, other: top})
        assert shared_hypernym_pairs(Inventory(taxonomy=tax)) == 1

    def test_distinct_parents_clean(self):
        e, m, h, g, d, tax = small_chain()
        assert shared_hypernym_pairs(Inventory(taxonomy=tax)) == 0

    def test_triple_yields_three_pairs(self):
        top = SenseId("p", "n", 1)
        s = [SenseId("w", "n", i) for i in (1, 2, 3)]
        tax = Taxonomy({top: None, s[0]: top, s[1]: top, s[2]: top})
        assert shared_hypernym_pairs(Inventory(taxonomy=tax)) == 3

    def test_count_matches_pairwise_loop(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 20, 80, 200):
            for _ in range(10):
                tax = random_taxonomy(rng, n)
                nodes = tax.nodes()
                want = sum(1 for i, a in enumerate(nodes) for b in nodes[i + 1:]
                           if a.word == b.word and tax.parent_of(a) is not None
                           and tax.parent_of(a) == tax.parent_of(b))
                assert shared_hypernym_pairs(Inventory(taxonomy=tax)) == want
