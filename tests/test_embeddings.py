import numpy as np
import pytest

from ballwsd.embeddings import (EmbeddingTable, context_vector, embed_tokens,
                                hash_unit_vector, load_embeddings)

from helpers import save_embeddings


class TestHashVector:
    def test_deterministic(self):
        a = hash_unit_vector("objectives", 16)
        b = hash_unit_vector("objectives", 16)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for tok in ("a", "b", "longer-token", ""):
            v = hash_unit_vector(tok, 9)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_tokens_differ(self):
        assert not np.array_equal(hash_unit_vector("a", 8), hash_unit_vector("b", 8))

    def test_dim_respected(self):
        assert hash_unit_vector("x", 3).shape == (3,)


class TestTable:
    def test_lookup_exact_then_lowercase(self):
        t = EmbeddingTable({"paris": np.ones(2), "Quebec": np.zeros(2)})
        assert np.array_equal(t.vector("paris"), np.ones(2))
        assert np.array_equal(t.vector("Paris"), np.ones(2))   # lowercase fallback
        assert np.array_equal(t.vector("Quebec"), np.zeros(2))  # exact beats fallback
        assert np.array_equal(t.get("PARIS"), np.ones(2))

    def test_oov_falls_back_to_hash(self):
        t = EmbeddingTable({"a": np.zeros(4)})
        v = t.vector("never-seen")
        assert np.array_equal(v, hash_unit_vector("never-seen", 4))
        assert t.get("never-seen") is None

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable({})

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable({"a": np.zeros(2), "b": np.zeros(3)})

    def test_words_sorted(self):
        t = EmbeddingTable({"b": np.zeros(1), "a": np.zeros(1)})
        assert t.words() == ["a", "b"]


class TestFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        table = EmbeddingTable({f"w{i}": rng.standard_normal(5) * 10.0 ** rng.integers(-6, 6)
                                for i in range(30)})
        p = tmp_path / "emb.txt"
        save_embeddings(table, p)
        back = load_embeddings(p)
        assert back.dim == 5 and back.words() == table.words()
        for w in table.words():
            assert np.array_equal(back.vector(w), table.vector(w))

    def test_load_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(ValueError):
            load_embeddings(p)

    def test_load_rejects_bad_float(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 zz\n")
        with pytest.raises(ValueError):
            load_embeddings(p)


class TestEmbedTokens:
    def test_shape_and_rows(self):
        t = EmbeddingTable({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        m = embed_tokens(("a", "b", "a"), t)
        assert m.shape == (3, 2)
        assert np.array_equal(m[0], m[2])


class TestContextVector:
    def test_mean_of_window_neighbors(self):
        vecs = np.arange(10.0).reshape(5, 2)
        got = context_vector(vecs, 2, 1)
        assert np.array_equal(got, (vecs[1] + vecs[3]) / 2.0)

    def test_excludes_target_itself(self):
        vecs = np.stack([np.zeros(2), np.full(2, 100.0), np.ones(2)])
        got = context_vector(vecs, 1, 5)
        assert np.array_equal(got, (vecs[0] + vecs[2]) / 2.0)

    def test_window_clipped_at_edges(self):
        vecs = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(context_vector(vecs, 0, 2), (vecs[1] + vecs[2]) / 2.0)
        assert np.array_equal(context_vector(vecs, 3, 2), (vecs[1] + vecs[2]) / 2.0)

    def test_single_token_gives_zero(self):
        vecs = np.ones((1, 3))
        assert np.array_equal(context_vector(vecs, 0, 4), np.zeros(3))

    def test_matches_manual_mean_on_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 6))
            vecs = rng.standard_normal((n, d))
            i = int(rng.integers(0, n))
            k = int(rng.integers(1, 6))
            lo, hi = max(0, i - k), min(n, i + k + 1)
            rows = [j for j in range(lo, hi) if j != i]
            want = vecs[rows].mean(axis=0) if rows else np.zeros(d)
            assert np.allclose(context_vector(vecs, i, k), want, atol=1e-15)

    def test_zero_window_gives_zero_vector(self):
        vecs = np.ones((3, 2))
        assert np.array_equal(context_vector(vecs, 1, 0), np.zeros(2))

    def test_bad_index_raises(self):
        vecs = np.ones((3, 2))
        with pytest.raises(ValueError):
            context_vector(vecs, 3, 1)
        with pytest.raises(ValueError):
            context_vector(vecs, -1, 1)
        with pytest.raises(ValueError):
            context_vector(vecs, 0, -1)
