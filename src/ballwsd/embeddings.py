"""Static word embeddings: the table, its text file, and the OOV fallback."""

from __future__ import annotations

import hashlib
import warnings

import numpy as np


def hash_unit_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for an out-of-vocabulary token.

    Seeded from a digest of the token so the same token maps to the same
    vector in every process.
    """
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class EmbeddingTable:
    """Word -> vector lookup with a deterministic out-of-vocabulary fallback.

    `EmbeddingTable(matrix, row)` is the one constructor: a table over the
    (N, dim) float64 `matrix` as given, word w's vector being row `row[w]`.
    """

    def __init__(self, matrix: np.ndarray, row: dict[str, int]):
        self.matrix, self.row, self.dim = matrix, row, matrix.shape[1]

    def __len__(self) -> int:
        return len(self.row)

    def get(self, word: str) -> np.ndarray | None:
        i = self.row.get(word)
        if i is None:
            i = self.row.get(word.lower())
        return None if i is None else self.matrix[i]

    def vector(self, word: str) -> np.ndarray:
        """Lookup with fallback: unknown words get a stable hashed direction."""
        v = self.get(word)
        if v is None:
            return hash_unit_vector(word, self.dim)
        return v

    def words(self) -> list[str]:
        return sorted(self.row)


# lines converted per np.loadtxt call
_BLOCK = 1024


def _convert_block(path, lines: list[tuple[int, str, str]], dim: int) -> np.ndarray:
    """The (lineno, word, coordinate text) lines as one (len(lines), dim) block.

    One C-parsed np.loadtxt call converts the block.  Where it raises or
    reads another shape (it skips an empty text as a blank line), the
    block is converted row by row with `np.array(coords, dtype=np.float64)`,
    which also accepts tokens the C reader rejects (`1_000`, Unicode
    digits).  The first bad line in the block is the one reported.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-empty block warns "no data"
            block = np.loadtxt([text for _, _, text in lines], delimiter=" ",
                               comments=None, quotechar=None, ndmin=2)
    except ValueError:
        block = None
    error = None
    if block is None or block.shape != (len(lines), dim):
        rows = []
        for lineno, _, text in lines:
            try:
                rows.append(np.array(text.rstrip("\n").split(" "), dtype=np.float64))
            except ValueError as exc:
                error = f"{path}:{lineno}: {exc}"
                break
        block = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    if bad.size:
        lineno, word, _ = lines[bad[0]]
        error = f"{path}:{lineno}: {word!r} has a non-finite value"
    if error:
        raise ValueError(error)
    return block


def load_embeddings(path, words) -> EmbeddingTable:
    """Read a text table: `word v1 v2 ... vd` per line, space separated.

    Only the rows `vector()` reads for `words` are kept, each word's own
    and its lowercase form's, so the full matrix is never held.  Every
    line is still checked, kept or not: a malformed row or a non-finite
    value raises one ValueError that starts `path:lineno:`, for the first
    bad line in the file.  A file holding none of `words` gives a
    zero-row table of the file's width.
    """
    want = set(words)
    want |= {w.lower() for w in want}
    seen: set[str] = set()
    row: dict[str, int] = {}  # kept word -> its row of the kept matrix
    kept: list[np.ndarray] = []
    pending: list[tuple[int, str, str]] = []  # checked lines not yet converted
    picks: list[int] = []  # the kept lines among them
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            word, _, text = raw.partition(" ")
            n = raw.count(" ")  # as many coordinates as line.split(" ") gives
            if n != dim or word in seen:
                if dim is None and n:
                    dim = n
                else:
                    if pending:  # an earlier bad value comes first
                        _convert_block(path, pending, dim)
                    word = word.rstrip("\n")
                    problem = (f"no coordinates for {word!r}" if not n else
                               f"expected {dim} coordinates, got {n}" if n != dim else
                               f"duplicate word {word!r}")
                    raise ValueError(f"{path}:{lineno}: {problem}")
            seen.add(word)
            if word in want:
                row[word] = len(row)
                picks.append(len(pending))
            pending.append((lineno, word, text))
            if len(pending) == _BLOCK:
                kept.append(_convert_block(path, pending, dim)[picks])
                pending, picks = [], []
    if pending:
        kept.append(_convert_block(path, pending, dim)[picks])
    if not seen:
        raise ValueError(f"{path}: empty embedding table")
    return EmbeddingTable(np.concatenate(kept), row)
