import numpy as np
import pytest

from ballwsd.construct import construct_balls
from ballwsd.embeddings import EmbeddingTable, hash_unit_vector
from ballwsd.geometry import (BallConfiguration, GeometryConfig, containment_rule,
                              gaps, load_balls, save_balls, verify_configuration)
from ballwsd.inventory import SenseId, Taxonomy
from ballwsd.selector import deduction_query

from helpers import ancestor_or_self, random_table, random_taxonomy


def build_random(seed, n_nodes, dim, **cfg_kwargs):
    rng = np.random.default_rng(seed)
    tax = random_taxonomy(rng, n_nodes)
    table = random_table(rng, tax, dim)
    cfg = GeometryConfig(**cfg_kwargs)
    return tax, table, construct_balls(tax, table, cfg), cfg


class TestInvariants:
    def test_random_taxonomies_verify_clean(self):
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(2, 120))
            dim = int(rng.integers(4, 40))
            tax, table, balls, cfg = build_random(100 + seed, n, dim)
            report = verify_configuration(balls, tax, cfg)
            assert report.ok, f"seed {seed}: {report.render()}"
            assert len(balls) == len(tax)

    def test_dimension_layout(self):
        tax, table, balls, cfg = build_random(0, 30, 10)
        assert balls.embedding_prefix_dim == table.dim == 10
        assert balls.dim == table.dim + cfg.code_width

    def test_prefix_is_positive_multiple_of_word_vector(self):
        tax, table, balls, _ = build_random(1, 50, 12)
        for node in tax.nodes():
            base = table.vector(node.lemma)
            if np.linalg.norm(base) == 0.0:
                base = hash_unit_vector(node.lemma, table.dim)
            prefix = balls.centers[balls.row[node], :table.dim]
            norm = float(np.linalg.norm(prefix))
            assert norm > 0.0
            cos = float(np.dot(prefix, base) / (norm * np.linalg.norm(base)))
            assert cos >= 1.0 - 1e-6

    def test_everything_inside_unit_ball(self):
        for seed in (2, 3):
            tax, table, balls, _ = build_random(seed, 80, 16)
            for node in tax.nodes():
                i = balls.row[node]
                assert float(np.linalg.norm(balls.centers[i])) + balls.radii[i] <= 1.0 + 1e-9

    def test_radii_positive_and_finite(self):
        tax, table, balls, _ = build_random(4, 100, 8)
        for node in tax.nodes():
            i = balls.row[node]
            assert 0.0 < balls.radii[i] < 1.0
            assert np.all(np.isfinite(balls.centers[i]))


class TestContainmentSemantics:
    def test_containment_iff_ancestry(self):
        tax, table, balls, cfg = build_random(5, 60, 8)
        nodes = tax.nodes()
        for a in nodes:
            for b in nodes:
                got = deduction_query(a, b, balls, cfg)
                assert got == ancestor_or_self(tax, a, b), (a, b)

    @staticmethod
    def build_chain(depth):
        """A one-word chain w.n.1 > w.n.2 > ... and its balls."""
        nodes = [SenseId("w", "n", i + 1) for i in range(depth)]
        tax = Taxonomy({node: nodes[i - 1] if i else None for i, node in enumerate(nodes)})
        cfg = GeometryConfig()
        balls = construct_balls(tax, EmbeddingTable({"w": np.ones(6)}), cfg)
        assert verify_configuration(balls, tax, cfg).ok
        return nodes, balls, cfg

    def test_deep_chain(self):
        nodes, balls, cfg = self.build_chain(12)
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                assert deduction_query(nodes[i], nodes[j], balls, cfg) == (j <= i)

    def test_deep_chain_containment_direction(self):
        nodes, balls, cfg = self.build_chain(120)
        wrong = [str(a) for a in nodes[:-1] if deduction_query(a, nodes[-1], balls, cfg)]
        assert wrong == []

    def test_1200_deep_chain_every_ordered_pair(self):
        # radii fall to 3e-117 here, far below epsilon: only a tolerance
        # relative to the balls keeps the deep ones from containing their
        # ancestors
        nodes, balls, cfg = self.build_chain(1200)
        rows = [balls.row[node] for node in nodes]
        centers, radii = balls.centers[rows], balls.radii[rows]
        depth = np.arange(len(nodes))
        for j in range(len(nodes)):  # ball j holds ball i iff j is i or above it
            got = containment_rule(gaps(centers, centers[j]), radii[j], radii, cfg.epsilon)
            assert np.array_equal(got <= 0.0, depth >= j), j

    def test_wide_star_overflows_code_width(self):
        center = SenseId("hub", "n", 1)
        parent = {center: None}
        for i in range(40):
            parent[SenseId(f"leaf{i}", "n", 1)] = center
        tax = Taxonomy(parent)
        rng = np.random.default_rng(6)
        table = random_table(rng, tax, 8)
        cfg = GeometryConfig(code_width=16)
        balls = construct_balls(tax, table, cfg)
        assert verify_configuration(balls, tax, cfg).ok

    @pytest.mark.parametrize("code_width", [16, 2])
    def test_forest_roots_disconnected(self, code_width):
        # 5 co-roots: with code_width=2 they wrap around and share axes
        roots = [SenseId(f"r{i}", "n", 1) for i in range(5)]
        k1, k2 = SenseId("k", "n", 1), SenseId("k", "n", 2)
        tax = Taxonomy({**{r: None for r in roots}, k1: roots[0], k2: roots[1]})
        rng = np.random.default_rng(7)
        table = random_table(rng, tax, 5)
        cfg = GeometryConfig(code_width=code_width)
        balls = construct_balls(tax, table, cfg)
        assert verify_configuration(balls, tax, cfg).ok

    def test_single_node(self):
        only = SenseId("solo", "n", 1)
        tax = Taxonomy({only: None})
        table = EmbeddingTable({"solo": np.array([1.0, 2.0])})
        balls = construct_balls(tax, table, GeometryConfig())
        assert balls.ids == [only] and balls.radii[0] > 0


def comb(leaf_counts):
    """A spine spine.n.1 > spine.n.2 > ... whose k-th node also has
    leaf_counts[k] leaf children."""
    parent, above = {}, None
    for k, n_leaves in enumerate(leaf_counts):
        node = SenseId("spine", "n", k + 1)
        parent[node], above = above, node
        parent.update({SenseId(f"leaf{k}x{j}", "n", 1): node for j in range(n_leaves)})
    return Taxonomy(parent)


def overlap_nearest_sibling(balls, taxonomy, node, share):
    """`balls` with `node` moved straight toward its nearest sibling (least
    clearance) until the two overlap by `share` of the smaller radius; also
    returns that sibling's id.  The nearest one, so no third ball is hit."""
    sibs = [s for s in taxonomy.children_of(taxonomy.parent_of(node)) if s != node]
    a, rows = balls.row[node], [balls.row[s] for s in sibs]
    ca, ra = balls.centers[a], balls.radii[a]
    b = rows[int(np.argmin(gaps(balls.centers[rows], ca) - balls.radii[rows]))]
    cb, rb = balls.centers[b], balls.radii[b]
    centers = balls.centers.copy()
    centers[a] = cb + (ca - cb) * ((ra + rb - share * min(ra, rb)) / float(gaps(ca, cb)))
    return (BallConfiguration(balls.ids, centers, balls.radii, balls.embedding_prefix_dim),
            balls.ids[b])


class TestRelativeTolerance:
    @pytest.mark.parametrize("leaf_counts, n_nodes, below_epsilon", [
        ([8] * 18, 162, True),                # an 18-level spine, 8 leaves per level
        ([2000], 2001, False),                # a 2,000-child star
        ([0] * 69 + [2000], 2070, True),      # the same star under a 69-deep chain
    ], ids=["spine-18x8", "star-2000", "deep-star-2000"])
    def test_one_percent_sibling_overlap_is_flagged(self, leaf_counts, n_nodes, below_epsilon):
        tax = comb(leaf_counts)
        cfg = GeometryConfig()
        balls = construct_balls(tax, random_table(np.random.default_rng(3), tax, 12), cfg)
        assert len(balls) == n_nodes
        assert verify_configuration(balls, tax, cfg).ok
        leaf = SenseId(f"leaf{len(leaf_counts) - 1}x0", "n", 1)
        r = float(balls.radii[balls.row[leaf]])
        # where r < epsilon, a tolerance of epsilon itself would swallow the
        # whole overlap below
        assert (r < cfg.epsilon) == below_epsilon
        moved, sib = overlap_nearest_sibling(balls, tax, leaf, 0.01)
        found = verify_configuration(moved, tax, cfg).violations
        assert [(v.kind, {v.subject, v.other}) for v in found] == [
            ("disconnection", {leaf, sib})]
        assert found[0].slack / r == pytest.approx(0.01, abs=1e-6)


class TestDeterminism:
    def test_identical_reruns(self, tmp_path):
        tax1, table1, balls1, _ = build_random(8, 70, 10)
        tax2, table2, balls2, _ = build_random(8, 70, 10)
        assert balls1.ids == balls2.ids
        assert np.array_equal(balls1.radii, balls2.radii)
        assert np.array_equal(balls1.centers, balls2.centers)

    def test_file_round_trip_preserves_verification(self, tmp_path):
        tax, table, balls, cfg = build_random(9, 40, 8)
        path = tmp_path / "balls.tsv"
        save_balls(balls, path)
        back = load_balls(path)
        assert verify_configuration(back, tax, cfg).ok
        for sid in balls.ids:
            assert np.array_equal(back.centers[back.row[sid]], balls.centers[balls.row[sid]])
            assert back.radii[back.row[sid]] == balls.radii[balls.row[sid]]


class TestConfigKnobs:
    def test_wider_code_width_works(self):
        tax, table, balls, cfg = build_random(10, 60, 8, code_width=32)
        assert balls.dim == 8 + 32
        assert verify_configuration(balls, tax, cfg).ok

    def test_larger_margin_still_verifies(self):
        tax, table, balls, cfg = build_random(11, 60, 8, margin=2.0)
        assert verify_configuration(balls, tax, cfg).ok

    def test_prefix_weight_scales_prefix_share(self):
        rng = np.random.default_rng(12)
        tax = random_taxonomy(rng, 20)
        table = random_table(rng, tax, 6, zero_prob=0.0)
        cfg = GeometryConfig()
        # prefixes are unit vectors, so leaf_radius alone sets the
        # leaf-to-prefix scale: a small leaf radius is a heavy prefix
        large = construct_balls(tax, table, GeometryConfig(leaf_radius=0.01))
        small = construct_balls(tax, table, GeometryConfig(leaf_radius=0.9))
        assert verify_configuration(small, tax, cfg).ok
        assert verify_configuration(large, tax, cfg).ok

        def prefix_share(cfgb, node):
            c = cfgb.centers[cfgb.row[node]]
            return np.linalg.norm(c[:6]) / np.linalg.norm(c)

        leaf = [n for n in tax.nodes() if not tax.children_of(n)][0]
        assert prefix_share(large, leaf) > prefix_share(small, leaf)
