"""Transformer primitives on the autodiff core, plus checkpoint I/O.

Blocks are pre-norm ViT style: self-attention with residual, then a 4x GELU
MLP with residual. The multiply count of one block over a length-L sequence
of width C is exactly ``12*L*C^2 + 2*L^2*C``, which the analytic cost model
relies on; biases, norms, softmax, and GELU are elementwise and uncounted.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_MAGIC = b"MSTR"
CHECKPOINT_VERSION = 1

BLOCK_PARAM_NAMES = (
    "ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
    "ln2_g", "ln2_b", "w1", "b1", "w2", "b2",
)


def init_block_params(rng: np.random.Generator, width: int, std: float = 0.02) -> dict[str, np.ndarray]:
    hidden = 4 * width
    return {
        "ln1_g": np.ones(width), "ln1_b": np.zeros(width),
        "wq": rng.normal(0.0, std, (width, width)), "bq": np.zeros(width),
        "wk": rng.normal(0.0, std, (width, width)), "bk": np.zeros(width),
        "wv": rng.normal(0.0, std, (width, width)), "bv": np.zeros(width),
        "wo": rng.normal(0.0, std, (width, width)), "bo": np.zeros(width),
        "ln2_g": np.ones(width), "ln2_b": np.zeros(width),
        "w1": rng.normal(0.0, std, (width, hidden)), "b1": np.zeros(hidden),
        "w2": rng.normal(0.0, std, (hidden, width)), "b2": np.zeros(width),
    }


def multi_head_attention(x: Tensor, p: dict[str, Tensor], heads: int) -> Tensor:
    length, width = x.shape
    dh = width // heads
    q = (x @ p["wq"] + p["bq"]).reshape(length, heads, dh).transpose(1, 0, 2)
    k = (x @ p["wk"] + p["bk"]).reshape(length, heads, dh).transpose(1, 0, 2)
    v = (x @ p["wv"] + p["bv"]).reshape(length, heads, dh).transpose(1, 0, 2)
    scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    ctx = (attn @ v).transpose(1, 0, 2).reshape(length, width)
    return ctx @ p["wo"] + p["bo"]


def transformer_block(x: Tensor, p: dict[str, Tensor], heads: int) -> Tensor:
    """Pre-norm block; zero weights reduce it to the identity (residuals only)."""
    h = x + multi_head_attention(ad.layer_norm(x, p["ln1_g"], p["ln1_b"]), p, heads)
    z = ad.layer_norm(h, p["ln2_g"], p["ln2_b"])
    return h + (ad.gelu(z @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"])


def block_param_view(params: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    return {name: params[f"{prefix}/{name}"] for name in BLOCK_PARAM_NAMES}


def run_blocks(x: Tensor, params: dict[str, Tensor], prefix: str, depth: int,
               heads: int, first: int = 0) -> Tensor:
    for i in range(first, depth):
        x = transformer_block(x, block_param_view(params, f"{prefix}/blk{i}"), heads)
    return x


def attentive_pool(tokens: Tensor, query: Tensor, value_w: Tensor, value_b: Tensor) -> Tensor:
    """Single-query, single-head cross-attention over a token set -> [C].

    The value projection is linear, so it is applied once to the pooled
    vector rather than to every token.
    """
    length, width = tokens.shape
    scores = (tokens @ query) * (1.0 / np.sqrt(width))
    weights = ad.softmax(scores, axis=-1)
    pooled = weights @ tokens
    return pooled @ value_w + value_b


def block_macs(length: int, width: int) -> int:
    """Analytic multiply count of one transformer block."""
    return 12 * length * width * width + 2 * length * length * width


# -- checkpoint format ----------------------------------------------------------
#
# magic "MSTR", version u16 LE, record count u32 LE, then per record:
# name length u16 LE, UTF-8 name, ndim u8, dims u32 LE each, row-major
# little-endian float32 payload. Records are sorted by name.


def save_checkpoint(path: str | Path, params: dict[str, Tensor | np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<HI", CHECKPOINT_VERSION, len(params)))
        for name in sorted(params):
            arr = params[name]
            data = arr.data if isinstance(arr, Tensor) else arr
            data = np.ascontiguousarray(data, dtype="<f4")
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<I", dim))
            f.write(data.tobytes())


class CheckpointError(ValueError):
    """A checkpoint file that is not a complete, well-formed MSTR record set."""


def _read(f, n: int, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint: short {what} "
                              f"({len(raw)} of {n} bytes)")
    return raw


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<HI", _read(f, 6, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read(f, 2, "name length"))
            try:
                name = _read(f, nlen, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"undecodable checkpoint name: {e}") from None
            (ndim,) = struct.unpack("<B", _read(f, 1, f"{name} ndim"))
            shape = struct.unpack(f"<{ndim}I", _read(f, 4 * ndim, f"{name} dims"))
            n = int(np.prod(shape)) if shape else 1
            payload = _read(f, 4 * n, f"{name} payload")
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
        return out
