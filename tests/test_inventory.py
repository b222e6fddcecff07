import numpy as np
import pytest

from ballwsd.inventory import (Inventory, SenseId, Taxonomy, TaxonomyError,
                               check_distinct_hypernym_assumption,
                               hypernym_at, load_inventory)

from helpers import random_taxonomy


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
        for bad in ("goal", "goal.n", "goal.n.xx", ".n.01"):
            with pytest.raises(ValueError):
                SenseId.parse(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            SenseId("", "n", 1)
        with pytest.raises(ValueError):
            SenseId("a", "n", -1)

    def test_word_and_order(self):
        s = SenseId("aim", "n", 2)
        assert s.word == ("aim", "n")
        assert SenseId("aim", "n", 1) < SenseId("aim", "n", 2) < SenseId("bet", "n", 1)


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
        assert tax.ancestors(g) == [h, m, e]
        assert len(tax.ancestors(e)) == 0
        assert not tax.children_of(g) and tax.children_of(m)
        assert len(tax) == 5 and g in tax

    def test_unknown_node_raises(self):
        *_, tax = small_chain()
        with pytest.raises(KeyError):
            tax.parent_of(SenseId("zz", "n", 1))
        with pytest.raises(KeyError):
            tax.children_of(SenseId("zz", "n", 1))

    def test_unknown_parent_raises(self):
        a, b = SenseId("a", "n", 1), SenseId("b", "n", 1)
        with pytest.raises(TaxonomyError):
            Taxonomy({a: b})

    def test_cycle_detected(self):
        a, b, c = (SenseId(x, "n", 1) for x in "abc")
        with pytest.raises(TaxonomyError):
            Taxonomy({a: b, b: c, c: a})
        with pytest.raises(TaxonomyError):
            Taxonomy({a: a})

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
                    assert len(tax.ancestors(node)) == len(tax.ancestors(par)) + 1


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

    def test_explicit_root_not_overridden(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("a.n.01\t-\na.n.01\tb.n.01\nb.n.01\t-\n")
        inv = load_inventory(p)
        assert inv.taxonomy.parent_of(SenseId("a", "n", 1)) is None

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "inv.tsv"
        p.write_text("a.n.01 b.n.01\n")
        with pytest.raises(TaxonomyError):
            load_inventory(p)

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
        assert ("fly", "v") in inv.words()


class TestHypernymAt:
    def test_walks_chain(self):
        e, m, h, g, d, tax = small_chain()
        assert hypernym_at(tax, g, 0) == g
        assert hypernym_at(tax, g, 1) == h
        assert hypernym_at(tax, g, 2) == m
        assert hypernym_at(tax, g, 3) == e
        assert hypernym_at(tax, g, 4) is None
        assert hypernym_at(tax, g, 99) is None

    def test_errors(self):
        *_, tax = small_chain()
        with pytest.raises(ValueError):
            hypernym_at(tax, SenseId("entity", "n", 1), -1)
        with pytest.raises(KeyError):
            hypernym_at(tax, SenseId("zz", "n", 1), 1)

    def test_matches_ancestor_list(self):
        rng = np.random.default_rng(6)
        tax = random_taxonomy(rng, 50)
        for node in tax.nodes():
            chain = [node] + tax.ancestors(node)
            for lvl in range(len(chain) + 2):
                want = chain[lvl] if lvl < len(chain) else None
                assert hypernym_at(tax, node, lvl) == want


class TestDistinctHypernymAssumption:
    def test_twins_found(self):
        top = SenseId("travel", "v", 1)
        f1, f6 = SenseId("fly", "v", 1), SenseId("fly", "v", 6)
        other = SenseId("go", "v", 1)
        tax = Taxonomy({top: None, f1: top, f6: top, other: top})
        pairs = check_distinct_hypernym_assumption(Inventory(taxonomy=tax))
        assert pairs == [(f1, f6)]

    def test_distinct_parents_clean(self):
        e, m, h, g, d, tax = small_chain()
        assert check_distinct_hypernym_assumption(Inventory(taxonomy=tax)) == []

    def test_triple_yields_three_pairs(self):
        top = SenseId("p", "n", 1)
        s = [SenseId("w", "n", i) for i in (1, 2, 3)]
        tax = Taxonomy({top: None, s[0]: top, s[1]: top, s[2]: top})
        pairs = check_distinct_hypernym_assumption(Inventory(taxonomy=tax))
        assert pairs == [(s[0], s[1]), (s[0], s[2]), (s[1], s[2])]
