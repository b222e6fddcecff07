import numpy as np
import pytest

from ballwsd.construct import construct_balls
from ballwsd.embeddings import EmbeddingTable, hash_unit_vector
from ballwsd.geometry import GeometryConfig, contains, save_balls, load_balls, verify_configuration
from ballwsd.inventory import SenseId, Taxonomy

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
            prefix = balls.centers[balls.row[str(node)], :table.dim]
            norm = float(np.linalg.norm(prefix))
            assert norm > 0.0
            cos = float(np.dot(prefix, base) / (norm * np.linalg.norm(base)))
            assert cos >= 1.0 - 1e-6

    def test_everything_inside_unit_ball(self):
        for seed in (2, 3):
            tax, table, balls, _ = build_random(seed, 80, 16)
            for node in tax.nodes():
                i = balls.row[str(node)]
                assert float(np.linalg.norm(balls.centers[i])) + balls.radii[i] <= 1.0 + 1e-9

    def test_radii_positive_and_finite(self):
        tax, table, balls, _ = build_random(4, 100, 8)
        for node in tax.nodes():
            i = balls.row[str(node)]
            assert 0.0 < balls.radii[i] < 1.0
            assert np.all(np.isfinite(balls.centers[i]))


class TestContainmentSemantics:
    def test_containment_iff_ancestry(self):
        tax, table, balls, cfg = build_random(5, 60, 8)
        nodes = tax.nodes()
        for a in nodes:
            for b in nodes:
                got = contains(balls, str(b), str(a), cfg.epsilon)
                assert got == ancestor_or_self(tax, a, b), (a, b)

    def test_deep_chain(self):
        nodes = [SenseId("w", "n", i + 1) for i in range(12)]
        parent = {nodes[0]: None}
        for i in range(1, len(nodes)):
            parent[nodes[i]] = nodes[i - 1]
        tax = Taxonomy(parent)
        table = EmbeddingTable({"w": np.ones(6)})
        cfg = GeometryConfig()
        balls = construct_balls(tax, table, cfg)
        assert verify_configuration(balls, tax, cfg).ok
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                got = contains(balls, str(nodes[j]), str(nodes[i]), cfg.epsilon)
                assert got == (j <= i)

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
        assert balls.ids == [str(only)] and balls.radii[0] > 0


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
            c = cfgb.centers[cfgb.row[str(node)]]
            return np.linalg.norm(c[:6]) / np.linalg.norm(c)

        leaf = [n for n in tax.nodes() if not tax.children_of(n)][0]
        assert prefix_share(large, leaf) > prefix_share(small, leaf)
