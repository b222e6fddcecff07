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
from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import EmbeddingTable, context_vector, embed_tokens
from .geometry import BallConfiguration

_LN_EPS = 1e-5
_NORM_CLAMP = 1e-12
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
        if self.window_k < 0:
            raise ValueError("window_k must be >= 0")
        if not 0.0 < self.lr < math.inf or self.epochs < 0 or self.batch_size < 1 or self.seed < 0:
            raise ValueError("lr must be finite and > 0, epochs >= 0, batch_size >= 1, seed >= 0")


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
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
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


# overflow ends up as non-finite activations, which _check_finite reports
@np.errstate(over="ignore", invalid="ignore")
def _forward(p: EncoderParams, T: np.ndarray, C: np.ndarray, keep: bool):
    """Batched forward pass.  T, C: (B, dim).  Returns (V, cache)."""
    a = p.arrays
    B, d = T.shape
    H, dh = HEADS, d // HEADS
    scale = 1.0 / np.sqrt(dh)
    X = np.stack([T, C], axis=1) + a["role"]
    cache = {"X0": X} if keep else None
    for l in range(LAYERS):
        pre = X
        Q = X @ a[f"l{l}.wq"] + a[f"l{l}.bq"]
        K = X @ a[f"l{l}.wk"] + a[f"l{l}.bk"]
        V = X @ a[f"l{l}.wv"] + a[f"l{l}.bv"]
        Qh = Q.reshape(B, 2, H, dh).transpose(0, 2, 1, 3)
        Kh = K.reshape(B, 2, H, dh).transpose(0, 2, 1, 3)
        Vh = V.reshape(B, 2, H, dh).transpose(0, 2, 1, 3)
        S = Qh @ Kh.transpose(0, 1, 3, 2) * scale
        S = S - S.max(axis=-1, keepdims=True)
        E = np.exp(S)
        P = E / E.sum(axis=-1, keepdims=True)
        Ah = P @ Vh
        A = Ah.transpose(0, 2, 1, 3).reshape(B, 2, d)
        O = A @ a[f"l{l}.wo"] + a[f"l{l}.bo"]
        R1 = pre + O
        N1, ln1_cache = _ln_forward(R1, a[f"l{l}.ln1.g"], a[f"l{l}.ln1.b"])
        Fpre = N1 @ a[f"l{l}.ff1"] + a[f"l{l}.ff1b"]
        Fact = np.maximum(Fpre, 0.0)
        F2 = Fact @ a[f"l{l}.ff2"] + a[f"l{l}.ff2b"]
        R2 = N1 + F2
        X, ln2_cache = _ln_forward(R2, a[f"l{l}.ln2.g"], a[f"l{l}.ln2.b"])
        _check_finite(X, f"transformer layer {l}")
        if keep:
            cache[f"l{l}"] = (pre, Qh, Kh, Vh, P, A, ln1_cache, N1, Fpre, Fact, ln2_cache)
    flat = X.reshape(B, 2 * d)
    Hpre = flat @ a["head.w1"] + a["head.b1"]
    Hact = np.maximum(Hpre, 0.0)
    out = Hact @ a["head.w2"] + a["head.b2"]
    _check_finite(out, "output head")
    if keep:
        cache["head"] = (flat, Hpre, Hact)
    return out, cache


def _backward(p: EncoderParams, cache, dV: np.ndarray) -> dict[str, np.ndarray]:
    a = p.arrays
    B = dV.shape[0]
    d = p.dim
    H, dh = HEADS, d // HEADS
    scale = 1.0 / np.sqrt(dh)
    grads: dict[str, np.ndarray] = {}

    flat, Hpre, Hact = cache["head"]
    grads["head.w2"] = Hact.T @ dV
    grads["head.b2"] = dV.sum(axis=0)
    dH = (dV @ a["head.w2"].T) * (Hpre > 0.0)
    grads["head.w1"] = flat.T @ dH
    grads["head.b1"] = dH.sum(axis=0)
    dX = (dH @ a["head.w1"].T).reshape(B, 2, d)

    for l in reversed(range(LAYERS)):
        pre, Qh, Kh, Vh, P, A, ln1_cache, N1, Fpre, Fact, ln2_cache = cache[f"l{l}"]
        dR2, dg, db = _ln_backward(dX, a[f"l{l}.ln2.g"], ln2_cache)
        grads[f"l{l}.ln2.g"], grads[f"l{l}.ln2.b"] = dg, db
        dN1 = dR2.copy()
        dF2 = dR2
        grads[f"l{l}.ff2"] = Fact.reshape(-1, Fact.shape[-1]).T @ dF2.reshape(-1, d)
        grads[f"l{l}.ff2b"] = dF2.sum(axis=(0, 1))
        dFact = (dF2 @ a[f"l{l}.ff2"].T) * (Fpre > 0.0)
        grads[f"l{l}.ff1"] = N1.reshape(-1, d).T @ dFact.reshape(-1, dFact.shape[-1])
        grads[f"l{l}.ff1b"] = dFact.sum(axis=(0, 1))
        dN1 += dFact @ a[f"l{l}.ff1"].T
        dR1, dg, db = _ln_backward(dN1, a[f"l{l}.ln1.g"], ln1_cache)
        grads[f"l{l}.ln1.g"], grads[f"l{l}.ln1.b"] = dg, db
        dX = dR1.copy()
        dO = dR1
        grads[f"l{l}.wo"] = A.reshape(-1, d).T @ dO.reshape(-1, d)
        grads[f"l{l}.bo"] = dO.sum(axis=(0, 1))
        dA = (dO @ a[f"l{l}.wo"].T).reshape(B, 2, H, dh).transpose(0, 2, 1, 3)
        dP = dA @ Vh.transpose(0, 1, 3, 2)
        dVh = P.transpose(0, 1, 3, 2) @ dA
        dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True))
        dQh = dS @ Kh * scale
        dKh = dS.transpose(0, 1, 3, 2) @ Qh * scale
        dQ = dQh.transpose(0, 2, 1, 3).reshape(B, 2, d)
        dK = dKh.transpose(0, 2, 1, 3).reshape(B, 2, d)
        dVv = dVh.transpose(0, 2, 1, 3).reshape(B, 2, d)
        pre2 = pre.reshape(-1, d)
        grads[f"l{l}.wq"] = pre2.T @ dQ.reshape(-1, d)
        grads[f"l{l}.bq"] = dQ.sum(axis=(0, 1))
        grads[f"l{l}.wk"] = pre2.T @ dK.reshape(-1, d)
        grads[f"l{l}.bk"] = dK.sum(axis=(0, 1))
        grads[f"l{l}.wv"] = pre2.T @ dVv.reshape(-1, d)
        grads[f"l{l}.bv"] = dVv.sum(axis=(0, 1))
        dX += dQ @ a[f"l{l}.wq"].T + dK @ a[f"l{l}.wk"].T + dVv @ a[f"l{l}.wv"].T
    grads["role"] = dX.sum(axis=0)
    return grads


def forward_batch(params: EncoderParams, T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Encode (target, context) rows.  T, C: (B, dim) -> (B, out_dim)."""
    T = np.asarray(T, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if T.shape[-1] != params.dim or C.shape[-1] != params.dim:
        raise ValueError(f"input dimension mismatch: model width is {params.dim}, "
                         f"inputs are {T.shape[-1]}-d and {C.shape[-1]}-d")
    out, _ = _forward(params, T, C, keep=False)
    return out


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
    """Embed records into (T, C) input matrices.

    The target vector averages the indexed token embeddings; the context
    window is taken around the first target index.
    """
    recs = list(records)
    if not recs:
        raise ValueError("no records to embed")
    T = np.empty((len(recs), table.dim))
    C = np.empty((len(recs), table.dim))
    for i, rec in enumerate(recs):
        vecs = embed_tokens(rec.tokens, table)
        T[i] = vecs[list(rec.indices)].mean(axis=0)
        C[i] = context_vector(vecs, rec.indices[0], window_k)
    return T, C


def prepare_arrays(records, table: EmbeddingTable, balls: BallConfiguration,
                   window_k: int):
    """Embed records into (T, C, Y) matrices.

    Inputs come from embed_records; Y rows are the target senses' center
    rows, so every record's target must have a ball.
    """
    recs = list(records)
    T, C = embed_records(recs, table, window_k)
    rows = []
    for rec in recs:
        i = balls.row.get(str(rec.target))
        if i is None:
            raise ValueError(f"no ball for target sense {rec.target}")
        rows.append(i)
    return T, C, balls.centers[rows]


@dataclass
class TrainResult:
    params: EncoderParams
    curve: list[tuple[int, float]]   # (epoch, mean training loss)


def train(records, table: EmbeddingTable, balls: BallConfiguration,
          config: TrainConfig) -> TrainResult:
    """Plain mini-batch gradient descent on the cosine loss.

    Deterministic given the config seed: initialization, shuffling and
    arithmetic order are all fixed by it.
    """
    T, C, Y = prepare_arrays(records, table, balls, config.window_k)
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
    if "train_config" not in doc:
        raise ValueError(f"{path}: checkpoint has no train_config")
    try:
        tc = TrainConfig(**doc["train_config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad train_config: {exc}") from exc
    return params, tc
