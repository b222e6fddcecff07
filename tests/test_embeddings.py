import numpy as np
import pytest

from ballwsd import embeddings
from ballwsd.corpus import CorpusError, TrainingRecord, parse_annotated_corpus
from ballwsd.embeddings import hash_unit_vector, load_embeddings
from ballwsd.encoder import embed_records, prepare_arrays
from ballwsd.inventory import SenseId

from helpers import configuration, save_embeddings, table


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
        t = table({"paris": np.ones(2), "Quebec": np.zeros(2)})
        assert np.array_equal(t.vector("paris"), np.ones(2))
        assert np.array_equal(t.vector("Paris"), np.ones(2))   # lowercase fallback
        assert np.array_equal(t.vector("Quebec"), np.zeros(2))  # exact beats fallback
        assert np.array_equal(t.get("PARIS"), np.ones(2))

    def test_oov_falls_back_to_hash(self):
        t = table({"a": np.zeros(4)})
        v = t.vector("never-seen")
        assert np.array_equal(v, hash_unit_vector("never-seen", 4))
        assert t.get("never-seen") is None

    def test_words_sorted(self):
        t = table({"b": np.zeros(1), "a": np.zeros(1)})
        assert t.words() == ["a", "b"]


class TestFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        t = table({f"w{i}": rng.standard_normal(5) * 10.0 ** rng.integers(-6, 6)
                   for i in range(30)})
        p = tmp_path / "emb.txt"
        save_embeddings(t, p)
        back = load_embeddings(p, t.words())
        assert back.dim == 5 and back.words() == t.words()
        for w in t.words():
            assert np.array_equal(back.vector(w), t.vector(w))

    def test_load_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(ValueError):
            load_embeddings(p, ["a", "b"])

    def test_load_rejects_bad_float(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 zz\n")
        with pytest.raises(ValueError):
            load_embeddings(p, ["a"])

    @pytest.mark.parametrize("value, message", [
        ("zz", "could not convert string to float: 'zz'"),
        ("nan", "'b' has a non-finite value"),
        ("inf", "'b' has a non-finite value"),
        ("-1e999", "'b' has a non-finite value"),
    ])
    def test_load_error_names_file_and_line(self, tmp_path, value, message):
        p = tmp_path / "emb.txt"
        p.write_text(f"a 1.0 2.0\nb 1.0 {value}\nc 3.0 4.0\n")
        with pytest.raises(ValueError) as exc:
            load_embeddings(p, ["a", "b", "c"])
        assert str(exc.value) == f"{p}:2: {message}"

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        plain.write_text("a 1.0 2.0\nb 3.0 4.0\n")
        spaced.write_text("\n  \na 1.0 2.0\n\t \nb 3.0 4.0\n \n")
        want, got = load_embeddings(plain, ["a", "b"]), load_embeddings(spaced, ["a", "b"])
        assert got.words() == want.words() == ["a", "b"]
        assert all(np.array_equal(got.vector(w), want.vector(w)) for w in "ab")

    def test_large_finite_values_load(self, tmp_path):
        # their squares overflow; the values themselves are finite
        p = tmp_path / "emb.txt"
        p.write_text("a 1e200 -1.5e300\n")
        assert np.array_equal(load_embeddings(p, ["a"]).vector("a"), [1e200, -1.5e300])


def load_row_by_row(path):
    """Reference loader: every row converted by its own np.array call.

    Returns (words in file order, matrix) or the error message.
    """
    words, rows, dim = [], [], None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            word, *coords = line.split(" ")
            try:
                if not coords:
                    raise ValueError(f"no coordinates for {word!r}")
                dim = len(coords) if dim is None else dim
                if len(coords) != dim:
                    raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
                if word in words:
                    raise ValueError(f"duplicate word {word!r}")
                v = np.array(coords, dtype=np.float64)
                if not np.isfinite(v).all():
                    raise ValueError(f"{word!r} has a non-finite value")
            except ValueError as exc:
                return f"{path}:{lineno}: {exc}"
            words.append(word)
            rows.append(v)
    if not words:
        return f"{path}: empty embedding table"
    return words, np.stack(rows)


class TestBlockLoader:
    """The block loader against row-by-row conversion, with blocks of a few
    lines so that block edges fall inside small files."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK", 3)

    def test_table_is_one_matrix_with_row_views(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("".join(f"w{i} {i} {-i}.5\n" for i in range(7)))
        table = load_embeddings(p, [f"w{i}" for i in range(7)])
        assert table.matrix.shape == (7, 2) and table.row == {f"w{i}": i for i in range(7)}
        assert np.shares_memory(table.get("w5"), table.matrix)
        assert np.array_equal(table.vector("W5"), [5.0, -5.5])

    def test_bad_token_opening_second_block_is_named(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2\nb 3 4\nc 5 6\nd 7 zz\ne 9 10\n")
        with pytest.raises(ValueError) as exc:
            load_embeddings(p, list("abcde"))
        assert str(exc.value) == f"{p}:4: could not convert string to float: 'zz'"

    @pytest.mark.parametrize("bad, message", [
        ("1e999", "'b' has a non-finite value"),
        ("zz", "could not convert string to float: 'zz'"),
    ])
    def test_bad_value_before_ragged_row_is_reported(self, tmp_path, bad, message):
        p = tmp_path / "emb.txt"
        p.write_text(f"a 1 2\nb 3 {bad}\nc 5\n")
        with pytest.raises(ValueError) as exc:
            load_embeddings(p, list("abcde"))
        assert str(exc.value) == f"{p}:2: {message}"

    @pytest.mark.parametrize("text, lineno", [("a 1\nb \nc 2\n", 2), ("a \n", 1)])
    def test_empty_coordinate_is_not_skipped(self, tmp_path, text, lineno):
        # np.loadtxt reads an empty coordinate text as a blank line
        p = tmp_path / "emb.txt"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_embeddings(p, list("abcde"))
        assert str(exc.value) == f"{p}:{lineno}: could not convert string to float: ''"

    def test_non_finite_value_after_bad_token_is_not_reported(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 zz\nb 3 nan\n")
        with pytest.raises(ValueError) as exc:
            load_embeddings(p, list("abcde"))
        assert str(exc.value) == f"{p}:1: could not convert string to float: 'zz'"

    def test_tokens_only_python_accepts_load_as_row_by_row(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_bytes("a 1_000 2\r\nb \u0663 -0\r\nc 1.5 2.5\r\nd 1e3 .5\n".encode("utf-8"))
        words, matrix = load_row_by_row(p)
        table = load_embeddings(p, words)
        assert table.words() == sorted(words) == ["a", "b", "c", "d"]
        assert table.matrix.tobytes() == matrix.tobytes()
        assert np.array_equal(table.vector("a"), [1000.0, 2.0])
        assert np.array_equal(table.vector("b"), [3.0, 0.0])

    def test_fuzz_matches_row_by_row(self, tmp_path):
        """Random short tokens: the same bytes or the same message."""
        rng = np.random.default_rng(12)
        special = ["1_0", "1__0", "_1", "\u0663", "\u0661\u0662.5", "1e999", "nan", "-inf",
                   "+.5", "1.", "-0", "0x1", "1d3", "", "\t1", "1\u3000", "1 2", "1e-400",
                   "4.9e-324", "2.2250738585072011e-308", "0.1000000000000000055511151231257827"]
        alphabet = list("0123456789012345.-+e_nfE\t\u0663")
        vocab_rng = np.random.default_rng(13)
        p = tmp_path / "emb.txt"
        outcomes = set()
        for case in range(400):
            dim = int(rng.integers(1, 4))
            lines = []
            for r in range(int(rng.integers(1, 9))):
                coords = ["%.6g" % rng.standard_normal() for _ in range(dim)]
                for j in np.flatnonzero(rng.random(dim) < 0.1):
                    if rng.random() < 0.5:
                        coords[j] = special[int(rng.integers(0, len(special)))]
                    else:
                        picks = rng.integers(0, len(alphabet), int(rng.integers(1, 5)))
                        coords[j] = "".join(alphabet[int(i)] for i in picks)
                lines.append(f"w{r} " + " ".join(coords) + "\n")
            p.write_text("".join(lines), encoding="utf-8")
            want = load_row_by_row(p)
            # a random vocabulary: errors do not depend on it, kept rows do
            vocab = [f"w{r}" for r in range(len(lines)) if vocab_rng.random() < 0.5]
            try:
                table = load_embeddings(p, vocab)
            except ValueError as exc:
                assert str(exc) == want, (case, lines)
                outcomes.add("error")
                continue
            assert not isinstance(want, str), (case, lines, want)
            rows = [i for i, w in enumerate(want[0]) if w in vocab]
            assert list(table.row) == [want[0][i] for i in rows], (case, lines)
            assert table.matrix.tobytes() == want[1][rows].tobytes(), (case, lines)
            outcomes.add("loaded")
        assert outcomes == {"error", "loaded"}


class TestKeptRows:
    """The loader keeps only the rows its caller's words can read, yet checks
    every line as a full load does."""

    # mixed case, a word whose only row is its lowercase form's, a word
    # whose exact and lowercase rows both exist, and rows nobody asks for
    LINES = ["dog 1 2", "Cat 3 4", "cat 5 6", "emu 7 8", "Yak 9 10", "owl 11 12"]

    def write(self, tmp_path, lines):
        p = tmp_path / "emb.txt"
        p.write_text("".join(line + "\n" for line in lines))
        return p

    def test_requested_words_read_as_in_the_full_table(self, tmp_path):
        p = self.write(tmp_path, self.LINES)
        full = load_embeddings(p, [line.split(" ")[0] for line in self.LINES])
        words = ["Dog", "dog", "CAT", "Cat", "cat", "Yak", "yak", "gnu", "GNU"]
        kept = load_embeddings(p, words)
        for w in words:
            assert np.array_equal(kept.vector(w), full.vector(w)), w
        assert np.array_equal(kept.vector("Dog"), [1.0, 2.0])   # lowercase fallback
        assert np.array_equal(kept.vector("CAT"), [5.0, 6.0])
        assert np.array_equal(kept.vector("gnu"), hash_unit_vector("gnu", 2))

    def test_unrequested_rows_are_absent(self, tmp_path):
        kept = load_embeddings(self.write(tmp_path, self.LINES), ["Dog", "CAT", "gnu"])
        assert kept.row == {"dog": 0, "cat": 1}
        assert kept.matrix.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert kept.get("Cat") is not None and kept.get("emu") is None

    def test_vocabulary_outside_the_file_gives_zero_rows(self, tmp_path):
        kept = load_embeddings(self.write(tmp_path, self.LINES), ["gnu", "ZEBRA"])
        assert len(kept) == 0 and kept.matrix.shape == (0, 2) and kept.dim == 2
        assert np.array_equal(kept.vector("gnu"), hash_unit_vector("gnu", 2))

    @pytest.mark.parametrize("bad, message", [
        ("owl 11 nan", "'owl' has a non-finite value"),
        ("owl 11", "expected 2 coordinates, got 1"),
        ("emu 11 12", "duplicate word 'emu'"),
    ], ids=["non-finite", "ragged", "duplicate"])
    def test_bad_line_of_unrequested_word_is_reported(self, tmp_path, monkeypatch,
                                                      bad, message):
        monkeypatch.setattr(embeddings, "_BLOCK", 3)
        p = self.write(tmp_path, self.LINES[:5] + [bad])
        for words in (["dog"], [], [line.split(" ")[0] for line in self.LINES]):
            with pytest.raises(ValueError) as exc:
                load_embeddings(p, words)
            assert str(exc.value) == f"{p}:6: {message}"

    def test_underscore_token_block_keeps_requested_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK", 3)
        p = self.write(tmp_path, ["a 1 2", "b 1_0 2", "c 3 4", "d 5 6"])
        kept = load_embeddings(p, ["b", "d"])
        assert kept.row == {"b": 0, "d": 1}
        assert kept.matrix.tolist() == [[10.0, 2.0], [5.0, 6.0]]


def record(tokens, *indices):
    sid = SenseId("w", "n", 1)
    return TrainingRecord(sid, sid, tuple(tokens), indices)


def embed_one(rec, table, k):
    """Reference: one record's (T, C) rows from its own stacked token vectors."""
    vecs = np.stack([table.vector(t) for t in rec.tokens])
    at = rec.indices[0]
    rows = [j for j in range(max(0, at - k), min(len(vecs), at + k + 1)) if j != at]
    c = vecs[rows].mean(axis=0) if rows else np.zeros(table.dim)
    return vecs[list(rec.indices)].mean(axis=0), c


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_matches_reference(records, table, k):
    T, C = embed_records(records, table, k)
    assert T.shape == C.shape == (len(records), table.dim)
    for i, rec in enumerate(records):
        t, c = embed_one(rec, table, k)
        assert same_bits(T[i], t) and same_bits(C[i], c), (rec, k)


class TestEmbedTokens:
    """T rows of `embed_records`: each token looked up once, table rows or
    the OOV hash, averaged over the target indices."""

    def test_shape_and_rows(self):
        t = table({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        T, _ = embed_records([record(("a", "b", "a"), i) for i in range(3)], t, 1)
        assert T.shape == (3, 2)
        assert same_bits(T[0], T[2]) and same_bits(T[1], t.vector("b"))

    def test_oov_token_repeated_across_records(self):
        t = table({"a": np.ones(3)})
        records = [record(("zzz", "a"), 0), record(("a", "zzz"), 1), record(("zzz",), 0)]
        T, C = embed_records(records, t, 2)
        for row in T:
            assert same_bits(row, hash_unit_vector("zzz", 3))
        assert same_bits(C[1], t.vector("a")) and same_bits(C[2], np.zeros(3))
        assert_matches_reference(records, t, 2)

    def test_upper_case_token_uses_lowercase_row(self):
        t = table({"paris": np.array([1.0, 2.0]), "x": np.array([0.5, 0.25])})
        records = [record(("Paris", "x"), 0), record(("x", "PARIS"), 0)]
        T, C = embed_records(records, t, 1)
        assert same_bits(T[0], t.matrix[t.row["paris"]])
        assert same_bits(C[1], t.matrix[t.row["paris"]])
        assert_matches_reference(records, t, 1)

    def test_multi_index_target_in_descending_order(self):
        rng = np.random.default_rng(3)
        t = table({w: rng.standard_normal(4) for w in "abcde"})
        rec = record(("a", "b", "c", "d", "e"), 3, 1, 0)
        T, C = embed_records([rec], t, 1)
        vecs = np.stack([t.vector(w) for w in "abcde"])
        assert same_bits(T[0], vecs[[3, 1, 0]].mean(axis=0))
        assert same_bits(C[0], vecs[[2, 4]].mean(axis=0))  # window around index 3
        assert_matches_reference([rec], t, 1)

    def test_empty_list_gives_empty_arrays(self):
        t = table({"a": np.ones(5)})
        T, C = embed_records([], t, 4)
        assert T.shape == C.shape == (0, 5)
        balls = configuration([("w.n.01", np.ones(2), 0.5)], prefix=1)
        with pytest.raises(ValueError, match="no records to embed"):
            prepare_arrays([], t, balls)


class TestContextVector:
    """C rows of `embed_records`: the mean of up to k token vectors on each
    side of the first target index, that index excluded."""

    @staticmethod
    def rows(n, d=2):
        """A table whose i-th word `t{i}` has the vector (i*d, ..., i*d + d-1)."""
        vecs = np.arange(float(n * d)).reshape(n, d)
        return table({f"t{i}": v for i, v in enumerate(vecs)}), vecs

    def context(self, table, n, i, k):
        return embed_records([record([f"t{j}" for j in range(n)], i)], table, k)[1][0]

    def test_mean_of_window_neighbors(self):
        table, vecs = self.rows(5)
        assert same_bits(self.context(table, 5, 2, 1), (vecs[1] + vecs[3]) / 2.0)

    def test_excludes_target_itself(self):
        t = table({"t0": np.zeros(2), "t1": np.full(2, 100.0), "t2": np.ones(2)})
        assert same_bits(self.context(t, 3, 1, 5), np.full(2, 0.5))

    def test_window_clipped_at_edges(self):
        table, vecs = self.rows(4)
        assert same_bits(self.context(table, 4, 0, 2), (vecs[1] + vecs[2]) / 2.0)
        assert same_bits(self.context(table, 4, 3, 2), (vecs[1] + vecs[2]) / 2.0)

    def test_single_token_gives_zero(self):
        t = table({"t0": np.ones(3)})
        assert same_bits(self.context(t, 1, 0, 4), np.zeros(3))

    def test_matches_manual_mean_on_random_cases(self):
        """Random record sets against the per-record reference, bit for bit:
        OOV and upper-case tokens, multi-index targets, windows 0-6."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            t = table({f"w{j}": rng.standard_normal(d) for j in range(8)})
            vocab = [f"w{j}" for j in range(8)] + ["W3", "W5", "oov", "Oov2"]
            records = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 12))
                tokens = [vocab[int(j)] for j in rng.integers(0, len(vocab), n)]
                indices = rng.permutation(n)[:int(rng.integers(1, min(n, 3) + 1))]
                records.append(record(tokens, *(int(j) for j in indices)))
            assert_matches_reference(records, t, int(rng.integers(0, 7)))

    def test_zero_window_gives_zero_vector(self):
        t = table({"t0": np.ones(2), "t1": np.ones(2), "t2": np.ones(2)})
        assert same_bits(self.context(t, 3, 1, 0), np.zeros(2))

    def test_bad_index_raises(self, tmp_path):
        table, _ = self.rows(3)
        p = tmp_path / "c.tsv"
        for i in (3, -1):
            p.write_text(f"w.n.01\t{i}\tt0 t1 t2\n")
            with pytest.raises(CorpusError, match=f"target index {i} out of range"):
                parse_annotated_corpus(p)
        with pytest.raises(ValueError):
            embed_records([record(("t0", "t1", "t2"), 0)], table, -1)
