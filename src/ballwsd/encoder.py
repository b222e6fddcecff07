"""The trainable encoder: word-in-context vector -> sense region direction.

Two input slots (target-word vector, window-averaged context vector) plus
learned role embeddings feed a fixed transformer stack of two layers
(two-head self-attention over the two slots, then a 4x feed-forward,
post-layer-norm residuals).  Both slot outputs are concatenated and a
two-layer relu head maps them to the output space, where training pulls
the prediction toward the center of the target sense's ball by cosine
loss:  loss = 1 - cos(V, center).

Everything is plain numpy with hand-written gradients and plain
mini-batch gradient descent, so runs are bit-reproducible from the seed.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .embeddings import EmbeddingTable
from .geometry import BallConfiguration

_LN_EPS = 1e-5
_NORM_CLAMP = 1e-12
_CHUNK = 256         # most rows forward_batch encodes at once
CHECKPOINT_VERSION = 2


@dataclass
class TrainConfig:
    """Training hyperparameters; `window_k` is the context half-window."""

    window_k: int = 4
    lr: float = 0.01
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("window_k", "epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.lr, (int, float)) or isinstance(self.lr, bool):
            raise ValueError(f"lr must be a number, got {self.lr!r}")
        if self.window_k < 0:
            raise ValueError("window_k must be >= 0")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# The architecture is fixed; a checkpoint's arrays give only the widths.
LAYERS = 2
HEADS = 2            # the model width must be a multiple of this
HEAD_HIDDEN = 2      # head hidden width, as a multiple of the model width


@dataclass
class EncoderParams:
    """All weight arrays, keyed by name; the widths are read off them."""

    arrays: dict[str, np.ndarray]

    @property
    def dim(self) -> int:  # model width = input embedding dimension
        return self.arrays["role"].shape[1]

    @property
    def out_dim(self) -> int:  # ball space dimension
        return self.arrays["head.b2"].shape[0]


def _layout(dim: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every weight array, in initialization order."""
    if dim % HEADS != 0:
        raise ValueError(f"model width {dim} not divisible by {HEADS} heads")
    hidden = HEAD_HIDDEN * dim
    shapes = {"role": (2, dim)}
    for l in range(LAYERS):
        for n in ("q", "k", "v", "o"):
            shapes[f"l{l}.w{n}"], shapes[f"l{l}.b{n}"] = (dim, dim), (dim,)
        shapes.update({f"l{l}.ff1": (dim, 4 * dim), f"l{l}.ff1b": (4 * dim,),
                       f"l{l}.ff2": (4 * dim, dim), f"l{l}.ff2b": (dim,),
                       f"l{l}.ln1.g": (dim,), f"l{l}.ln1.b": (dim,),
                       f"l{l}.ln2.g": (dim,), f"l{l}.ln2.b": (dim,)})
    shapes.update({"head.w1": (2 * dim, hidden), "head.b1": (hidden,),
                   "head.w2": (hidden, out_dim), "head.b2": (out_dim,)})
    return shapes


def init_params(dim: int, out_dim: int, seed: int = 0) -> EncoderParams:
    """Fresh weights at the given widths, drawn in layout order from `seed`:
    role rows 0.02 N(0, 1), matrices N(0, 1/fan_in), gains 1, biases 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = {}
    for name, shape in _layout(dim, out_dim).items():
        if name == "role":
            a[name] = 0.02 * rng.standard_normal(shape)
        elif len(shape) == 2:
            a[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:
            a[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
    return EncoderParams(a)


# ---------------------------------------------------------------------------
# forward / backward

def _ln_forward(x, g, b):
    # x.var's own steps, so the mean is subtracted once; same bits as x.var.
    # Scaled in place, so no second centred copy is held.
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv
    return g * xhat + b, (xhat, inv)


def _ln_backward(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dg, db


def _check_finite(x, where: str):
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite activations in {where}")


def _relu_dense(X, w, b):
    """relu(X @ w + b) in the product's own buffer, the same bits as the
    out-of-place form.  The backward pass masks with its result, since
    relu(x) > 0 exactly where x > 0."""
    Y = X @ w
    Y += b
    return np.maximum(Y, 0.0, out=Y)


# overflow ends up as non-finite activations, which _check_finite reports
@np.errstate(over="ignore", invalid="ignore")
def _forward(p: EncoderParams, T: np.ndarray, C: np.ndarray, keep: bool):
    """Batched forward pass.  T, C: (B, dim).  Returns (V, cache)."""
    a = p.arrays
    B, d = T.shape
    H, dh = HEADS, d // HEADS
    scale = 1.0 / np.sqrt(dh)
    X = np.stack([T, C], axis=1) + a["role"]
    cache = {} if keep else None
    for l in range(LAYERS):
        pre = X
        Qh, Kh, Vh = ((X @ a[f"l{l}.w{n}"] + a[f"l{l}.b{n}"]).reshape(B, 2, H, dh)
                      .transpose(0, 2, 1, 3) for n in "qkv")
        S = Qh @ Kh.transpose(0, 1, 3, 2) * scale
        S = S - S.max(axis=-1, keepdims=True)
        E = np.exp(S)
        P = E / E.sum(axis=-1, keepdims=True)
        Ah = P @ Vh
        A = Ah.transpose(0, 2, 1, 3).reshape(B, 2, d)
        O = A @ a[f"l{l}.wo"] + a[f"l{l}.bo"]
        R1 = pre + O
        N1, ln1_cache = _ln_forward(R1, a[f"l{l}.ln1.g"], a[f"l{l}.ln1.b"])
        Fact = _relu_dense(N1, a[f"l{l}.ff1"], a[f"l{l}.ff1b"])
        F2 = Fact @ a[f"l{l}.ff2"] + a[f"l{l}.ff2b"]
        R2 = N1 + F2
        X, ln2_cache = _ln_forward(R2, a[f"l{l}.ln2.g"], a[f"l{l}.ln2.b"])
        _check_finite(X, f"transformer layer {l}")
        if keep:
            cache[f"l{l}"] = (pre, Qh, Kh, Vh, P, A, ln1_cache, N1, Fact, ln2_cache)
    flat = X.reshape(B, 2 * d)
    Hact = _relu_dense(flat, a["head.w1"], a["head.b1"])
    out = Hact @ a["head.w2"] + a["head.b2"]
    _check_finite(out, "output head")
    if keep:
        cache["head"] = (flat, Hact)
    return out, cache


def _dense_grads(grads, w: str, b: str, X: np.ndarray, dY: np.ndarray) -> None:
    """Record a dense layer's gradients, Y = X @ w + b, with every leading
    axis of X and dY read as rows: grads[w] = Xᵀ·dY, grads[b] = summed dY."""
    X2 = X.reshape(-1, X.shape[-1])
    dY2 = dY.reshape(-1, dY.shape[-1])
    grads[w] = X2.T @ dY2
    grads[b] = dY2.sum(axis=0)


def _backward(p: EncoderParams, cache, dV: np.ndarray) -> dict[str, np.ndarray]:
    a = p.arrays
    B = dV.shape[0]
    d = p.dim
    H, dh = HEADS, d // HEADS
    scale = 1.0 / np.sqrt(dh)
    grads: dict[str, np.ndarray] = {}

    flat, Hact = cache["head"]
    _dense_grads(grads, "head.w2", "head.b2", Hact, dV)
    dH = (dV @ a["head.w2"].T) * (Hact > 0.0)
    _dense_grads(grads, "head.w1", "head.b1", flat, dH)
    dX = (dH @ a["head.w1"].T).reshape(B, 2, d)

    for l in reversed(range(LAYERS)):
        pre, Qh, Kh, Vh, P, A, ln1_cache, N1, Fact, ln2_cache = cache[f"l{l}"]
        dR2, grads[f"l{l}.ln2.g"], grads[f"l{l}.ln2.b"] = _ln_backward(
            dX, a[f"l{l}.ln2.g"], ln2_cache)
        _dense_grads(grads, f"l{l}.ff2", f"l{l}.ff2b", Fact, dR2)
        dFact = (dR2 @ a[f"l{l}.ff2"].T) * (Fact > 0.0)
        _dense_grads(grads, f"l{l}.ff1", f"l{l}.ff1b", N1, dFact)
        dN1 = dR2 + dFact @ a[f"l{l}.ff1"].T
        dR1, grads[f"l{l}.ln1.g"], grads[f"l{l}.ln1.b"] = _ln_backward(
            dN1, a[f"l{l}.ln1.g"], ln1_cache)
        _dense_grads(grads, f"l{l}.wo", f"l{l}.bo", A, dR1)
        dA = (dR1 @ a[f"l{l}.wo"].T).reshape(B, 2, H, dh).transpose(0, 2, 1, 3)
        dP = dA @ Vh.transpose(0, 1, 3, 2)
        dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True))
        dQh = dS @ Kh * scale
        dKh = dS.transpose(0, 1, 3, 2) @ Qh * scale
        dVh = P.transpose(0, 1, 3, 2) @ dA
        dQ, dK, dVv = (g.transpose(0, 2, 1, 3).reshape(B, 2, d) for g in (dQh, dKh, dVh))
        for n, dY in zip("qkv", (dQ, dK, dVv)):
            _dense_grads(grads, f"l{l}.w{n}", f"l{l}.b{n}", pre, dY)
        dX = dR1 + (dQ @ a[f"l{l}.wq"].T + dK @ a[f"l{l}.wk"].T + dVv @ a[f"l{l}.wv"].T)
    grads["role"] = dX.sum(axis=0)
    return grads


def forward_batch(params: EncoderParams, T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Encode (target, context) rows.  T, C: (B, dim) -> (B, out_dim).

    The rows go through in ceil(B / _CHUNK) near-equal chunks, so no
    intermediate holds more than _CHUNK rows however large B is.  Each
    chunk of a batch over _CHUNK rows has at least _CHUNK / 2 rows: BLAS
    gives a small matrix other bits than the same rows inside a larger
    one, so a short tail chunk would change the output.
    """
    T = np.asarray(T, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if T.shape[-1] != params.dim or C.shape[-1] != params.dim:
        raise ValueError(f"input dimension mismatch: model width is {params.dim}, "
                         f"inputs are {T.shape[-1]}-d and {C.shape[-1]}-d")
    parts = max(1, -(-len(T) // _CHUNK))
    return np.concatenate([_forward(params, t, c, keep=False)[0] for t, c in
                           zip(np.array_split(T, parts), np.array_split(C, parts))])


def _cosine_loss_grad(V: np.ndarray, Y: np.ndarray):
    """Mean of 1 - cos(v, y) over the batch, plus d(loss)/dV.

    Zero-norm predictions are clamped; the clamped norm is treated as a
    constant so the gradient stays finite.
    """
    B = V.shape[0]
    nv = np.linalg.norm(V, axis=1, keepdims=True)
    ny = np.linalg.norm(Y, axis=1, keepdims=True)
    if np.any(ny < _NORM_CLAMP):
        raise ValueError("target center with zero norm")
    nvc = np.maximum(nv, _NORM_CLAMP)
    dots = (V * Y).sum(axis=1, keepdims=True)
    cos = dots / (nvc * ny)
    loss = float(np.mean(1.0 - cos))
    live = (nv > _NORM_CLAMP).astype(np.float64)
    dV = -(Y / (nvc * ny) - live * dots * V / (nvc ** 3 * ny)) / B
    return loss, dV


def batch_loss_and_grads(params: EncoderParams, T, C, Y):
    """Loss plus gradients for every parameter array, for one batch."""
    out, cache = _forward(params, T, C, keep=True)
    value, dV = _cosine_loss_grad(out, Y)
    grads = _backward(params, cache, dV)
    return value, grads


# ---------------------------------------------------------------------------
# training

def embed_records(records, table: EmbeddingTable, window_k: int):
    """Embed records into (T, C) input matrices, row i from record i.

    T averages the vectors at the record's indices; C averages up to
    window_k vectors on each side of the first index, that index excluded
    (zero when none).  Each distinct token read is looked up once with
    `table.vector`.
    """
    if window_k < 0:
        raise ValueError("window_k must be >= 0")
    row: dict[str, int] = {}  # token -> its row of vecs
    picks = []                # per record: (target rows, window rows)
    for rec in records:
        tokens, at = rec.tokens, rec.indices[0]
        window = tokens[max(0, at - window_k):at] + tokens[at + 1:at + window_k + 1]
        picks.append(([row.setdefault(tokens[j], len(row)) for j in rec.indices],
                      [row.setdefault(t, len(row)) for t in window]))
    vecs = np.array([table.vector(t) for t in row]).reshape(len(row), table.dim)
    T = np.empty((len(picks), table.dim))
    C = np.zeros((len(picks), table.dim))
    for i, (target, window) in enumerate(picks):
        T[i] = vecs[target].mean(axis=0)
        if window:
            C[i] = vecs[window].mean(axis=0)
    return T, C


def prepare_arrays(records, table: EmbeddingTable, balls: BallConfiguration,
                   window_k: int):
    """Embed records into (T, C, Y) matrices.

    Inputs come from embed_records; Y rows are the target senses' center
    rows, so every record's target must have a ball.
    """
    recs = list(records)
    if not recs:
        raise ValueError("no records to embed")
    T, C = embed_records(recs, table, window_k)
    rows = []
    for rec in recs:
        i = balls.row.get(rec.target)
        if i is None:
            raise ValueError(f"no ball for target sense {rec.target}")
        rows.append(i)
    return T, C, balls.centers[rows]


@dataclass
class TrainResult:
    params: EncoderParams
    curve: list[tuple[int, float]]   # (epoch, mean training loss)


def train(T: np.ndarray, C: np.ndarray, Y: np.ndarray, config: TrainConfig) -> TrainResult:
    """Plain mini-batch gradient descent on the cosine loss, over the rows
    of prepare_arrays' (T, C, Y), built at `config.window_k`.

    Deterministic given the config seed: initialization, shuffling and
    arithmetic order are all fixed by it.
    """
    params = init_params(T.shape[1], Y.shape[1], seed=config.seed)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    n = T.shape[0]
    curve: list[tuple[int, float]] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            value, grads = batch_loss_and_grads(params, T[idx], C[idx], Y[idx])
            for name, g in grads.items():
                params.arrays[name] -= config.lr * g
            total += value * len(idx)
        curve.append((epoch, total / n))
    return TrainResult(params=params, curve=curve)


# ---------------------------------------------------------------------------
# checkpoints

def save_encoder(params: EncoderParams, path, train_config: TrainConfig) -> None:
    """Write a versioned JSON checkpoint: the weight arrays, which round-trip
    exactly, and the training config.  The architecture is not stored."""
    doc = {
        "format": "encoder-checkpoint",
        "version": CHECKPOINT_VERSION,
        "arrays": {
            name: {
                "shape": list(arr.shape),
                "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
            }
            for name, arr in sorted(params.arrays.items())
        },
        "train_config": asdict(train_config),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_encoder(path) -> tuple[EncoderParams, TrainConfig]:
    """Read a checkpoint whose array names and shapes are exactly `_layout`
    at the widths they imply; anything else is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "encoder-checkpoint":
        raise ValueError(f"{path}: not an encoder checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {doc.get('version')} unsupported "
                         f"(expected {CHECKPOINT_VERSION})")
    if not isinstance(doc.get("arrays"), dict):
        raise ValueError(f"{path}: checkpoint has no 'arrays' object")
    arrays = {}
    for name, spec in doc["arrays"].items():
        try:
            raw = base64.b64decode(spec["data"], validate=True)
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(spec["shape"]).copy()
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable array {name!r} "
                             f"({type(exc).__name__}: {exc})") from None
    params = EncoderParams(arrays)
    try:
        want = _layout(params.dim, params.out_dim)
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: no model widths in checkpoint arrays: {exc}") from None
    problems = [f"missing {n}" for n in sorted(want.keys() - arrays.keys())]
    problems += [f"unexpected {n}" for n in sorted(arrays.keys() - want.keys())]
    problems += [f"{n} is {arrays[n].shape}, expected {want[n]}"
                 for n in sorted(want.keys() & arrays.keys()) if arrays[n].shape != want[n]]
    if problems:
        raise ValueError(f"{path}: checkpoint arrays do not fit the encoder: "
                         + "; ".join(problems))
    if not isinstance(doc.get("train_config"), dict):
        raise ValueError(f"{path}: checkpoint has no train_config object")
    missing = [f.name for f in fields(TrainConfig) if f.name not in doc["train_config"]]
    if missing:
        raise ValueError(f"{path}: bad train_config: missing {', '.join(missing)}")
    try:
        tc = TrainConfig(**doc["train_config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad train_config: {exc}") from exc
    return params, tc
