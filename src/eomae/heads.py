"""Classification and segmentation heads over encoded tokens.

Classification pools every token of every modality through one attentive
pooling step and projects to class logits. Segmentation first aligns each
modality's token grid onto the common reference grid (integer upsampling by
nearest replication; downscaling by area-overlap weighted averaging, which
also covers rational ratios like a 10-token grid onto an 8-cell reference),
then pools per position and projects with a shared dense layer.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import attentive_pool


def build_head_params(num_classes: int, enc_width: int, seed: int,
                      std: float = 0.02) -> dict[str, Tensor]:
    rng = np.random.default_rng([seed, 0x4EAD])
    arrays = {
        "head/query": rng.normal(0.0, std, (enc_width,)),
        "head/value_w": rng.normal(0.0, std, (enc_width, enc_width)),
        "head/value_b": np.zeros(enc_width),
        "head/out_w": rng.normal(0.0, std, (enc_width, num_classes)),
        "head/out_b": np.zeros(num_classes),
    }
    out = {}
    for k, v in arrays.items():
        t = Tensor(v)
        t.requires_grad = True
        out[k] = t
    return out


def classification_head(token_sets: list[Tensor], params: dict[str, Tensor]) -> Tensor:
    """Concat tokens across modalities/positions/bins -> pool -> class logits."""
    tokens = ad.concat(token_sets, axis=0) if len(token_sets) > 1 else token_sets[0]
    pooled = attentive_pool(tokens, params["head/query"], params["head/value_w"],
                            params["head/value_b"])
    return pooled @ params["head/out_w"] + params["head/out_b"]


def overlap_weights(dst: int, src: int) -> np.ndarray:
    """1-D area-overlap averaging matrix [dst, src]; rows sum to one.

    Both grids span the same extent; dst <= src (downscaling).
    """
    w = np.zeros((dst, src))
    ratio = src / dst
    for r in range(dst):
        lo, hi = r * ratio, (r + 1) * ratio
        for s in range(int(np.floor(lo)), int(np.ceil(hi))):
            w[r, s] = min(hi, s + 1) - max(lo, s)
    return w / ratio


def nearest_index(dst: int, src: int) -> np.ndarray:
    """Source index whose cell contains each destination cell's center."""
    centers = (np.arange(dst) + 0.5) * (src / dst)
    return np.minimum(centers.astype(np.int64), src - 1)


def align_to_reference(tokens: Tensor, grid_side: int, ref_side: int) -> Tensor:
    """Map tokens on a [side^2] grid onto the reference grid [ref^2].

    Finer-than-reference grids are block-averaged (area-overlap weights);
    coarser grids are replicated nearest.
    """
    if grid_side == ref_side:
        return tokens
    width = tokens.shape[1]
    if grid_side > ref_side:
        w = Tensor(overlap_weights(ref_side, grid_side))
        x = tokens.reshape(grid_side, grid_side * width)
        y = (w @ x).reshape(ref_side, grid_side, width)        # rows averaged
        y = y.transpose(1, 0, 2).reshape(grid_side, ref_side * width)
        z = (w @ y).reshape(ref_side, ref_side, width)         # cols averaged
        return z.transpose(1, 0, 2).reshape(ref_side * ref_side, width)
    idx = nearest_index(ref_side, grid_side)
    grid2 = tokens.reshape(grid_side, grid_side, width)
    return grid2[idx][:, idx].reshape(ref_side * ref_side, width)


def segmentation_head(aligned_sets: list[Tensor], params: dict[str, Tensor]) -> Tensor:
    """Per reference position: pool the stacked (modality, bin) tokens, then
    densely project. aligned_sets: tensors [ref^2, C]; returns [ref^2, K]."""
    n = len(aligned_sets)
    width = aligned_sets[0].shape[1]
    positions = aligned_sets[0].shape[0]
    stack = ad.concat([t.reshape(1, positions, width) for t in aligned_sets], axis=0)
    scores = (stack @ params["head/query"]) * (1.0 / np.sqrt(width))   # [n, ref^2]
    weights = ad.softmax(scores.transpose(1, 0), axis=-1)              # [ref^2, n]
    weighted = weights.transpose(1, 0).reshape(n, positions, 1) * stack
    pooled = weighted.sum(axis=0)                                      # [ref^2, C]
    values = pooled @ params["head/value_w"] + params["head/value_b"]
    return values @ params["head/out_w"] + params["head/out_b"]


def upsample_logits(logits: Tensor, ref_side: int, label_side: int) -> Tensor:
    """Nearest-neighbor upsample [ref^2, K] -> [label_side^2, K]."""
    if label_side == ref_side:
        return logits
    if label_side % ref_side == 0 or label_side > ref_side:
        idx = nearest_index(label_side, ref_side)
    else:
        raise ValueError("labels coarser than the reference grid")
    k = logits.shape[1]
    grid = logits.reshape(ref_side, ref_side, k)
    return grid[idx][:, idx].reshape(label_side * label_side, k)
