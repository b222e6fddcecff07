"""Static word embeddings: table I/O, OOV fallback, and context windows."""

from __future__ import annotations

import hashlib
import math

import numpy as np


def hash_unit_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for an out-of-vocabulary token.

    Seeded from a digest of the token so the same token maps to the same
    vector in every process.
    """
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    if n == 0.0:  # pragma: no cover - standard_normal never returns all zeros
        v[0] = 1.0
        n = 1.0
    return v / n


class EmbeddingTable:
    """Word -> vector lookup with a deterministic out-of-vocabulary fallback."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise ValueError("embedding table is empty")
        dims = {v.shape[0] for v in vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        self._vectors = {w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()}

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, word: str) -> np.ndarray | None:
        v = self._vectors.get(word)
        if v is None:
            v = self._vectors.get(word.lower())
        return v

    def vector(self, word: str) -> np.ndarray:
        """Lookup with fallback: unknown words get a stable hashed direction."""
        v = self.get(word)
        if v is None:
            return hash_unit_vector(word, self.dim)
        return v

    def words(self) -> list[str]:
        return sorted(self._vectors)


def load_embeddings(path) -> EmbeddingTable:
    """Read a text table: `word v1 v2 ... vd` per line, space separated.

    A malformed row or a non-finite value raises one ValueError that
    starts `path:lineno:`.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    # v @ v overflows quietly; a row whose square is not finite gets the entrywise test
    with open(path, encoding="utf-8") as fh, np.errstate(over="ignore"):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(" ")
            word, coords = parts[0], parts[1:]
            try:
                if not coords:
                    raise ValueError(f"no coordinates for {word!r}")
                if dim is None:
                    dim = len(coords)
                elif len(coords) != dim:
                    raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
                if word in vectors:
                    raise ValueError(f"duplicate word {word!r}")
                v = np.array(coords, dtype=np.float64)
                if not math.isfinite(v @ v) and not np.isfinite(v).all():
                    raise ValueError(f"{word!r} has a non-finite value")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            vectors[word] = v
    if not vectors:
        raise ValueError(f"{path}: empty embedding table")
    return EmbeddingTable(vectors)


def embed_tokens(tokens, table: EmbeddingTable) -> np.ndarray:
    """Stack per-token vectors into a (len(tokens), dim) matrix."""
    if not tokens:
        raise ValueError("no tokens to embed")
    return np.stack([table.vector(t) for t in tokens])


def context_vector(vectors: np.ndarray, i: int, k: int) -> np.ndarray:
    """Mean of up to k neighbor vectors on each side of position i.

    Position i itself is excluded.  A sentence with no neighbors in the
    window yields the zero vector.
    """
    n = vectors.shape[0]
    if not (0 <= i < n):
        raise ValueError(f"target index {i} out of range for {n} tokens")
    if k < 0:
        raise ValueError("window size k must be >= 0")
    lo = max(0, i - k)
    hi = min(n, i + k + 1)
    rows = [j for j in range(lo, hi) if j != i]
    if not rows:
        return np.zeros(vectors.shape[1], dtype=np.float64)
    return vectors[rows].mean(axis=0)
