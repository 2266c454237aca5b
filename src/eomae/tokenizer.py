"""Patchification and linear token embedding.

A patch grid stores flattened patches as ``[positions, bins, P*P*C]`` with a
fixed channel-major flattening (channel, then row, then column inside the
patch); reconstruction targets and the checkpoint format depend on this
order. Token sequences use the canonical order bin-major, then band group
(token-based flavor only), then position, so that every (modality, bin[,
group]) slab is a contiguous range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .specs import ModalitySpec


@dataclass
class PatchGrid:
    """Flattened patches of one modality: data [positions, bins, P*P*C]."""

    modality: str
    patch_size: int
    channels: int
    data: np.ndarray

    @property
    def positions(self) -> int:
        return self.data.shape[0]

    @property
    def bins(self) -> int:
        return self.data.shape[1]


def patchify(image: np.ndarray, patch_size: int, modality: str = "") -> PatchGrid:
    """[D, C, I, I] -> patches [(I/P)^2, D, P*P*C]; lossless rearrangement."""
    d, c, h, w = image.shape
    p = patch_size
    if h != w or h % p != 0:
        raise ValueError(f"patch size {p} does not divide square image {h}x{w}")
    g = h // p
    x = image.reshape(d, c, g, p, g, p)
    x = x.transpose(2, 4, 0, 1, 3, 5)          # [gh, gw, D, C, P, P]
    x = x.reshape(g * g, d, c * p * p)
    return PatchGrid(modality=modality, patch_size=p, channels=c, data=np.ascontiguousarray(x))


def unpatchify(grid: PatchGrid) -> np.ndarray:
    """Exact inverse of :func:`patchify`."""
    pos, d, vec = grid.data.shape
    p, c = grid.patch_size, grid.channels
    if vec != p * p * c:
        raise ValueError(f"patch vector length {vec} != P*P*C = {p * p * c}")
    g = int(round(pos ** 0.5))
    if g * g != pos:
        raise ValueError(f"{pos} patches do not form a square grid")
    x = grid.data.reshape(g, g, d, c, p, p)
    x = x.transpose(2, 3, 0, 4, 1, 5)          # [D, C, gh, P, gw, P]
    return np.ascontiguousarray(x.reshape(d, c, g * p, g * p))


def group_column_indices(patch_size: int, channels: int, groups: list[list[int]]) -> list[np.ndarray]:
    """Columns of the flattened patch vector belonging to each band group."""
    pp = patch_size * patch_size
    out = []
    for g in groups:
        cols = np.concatenate([np.arange(c * pp, (c + 1) * pp) for c in g])
        out.append(cols)
    return out


def embed(grid: PatchGrid, spec: ModalitySpec, multispectral: str,
          weights: dict[str, Tensor]) -> Tensor:
    """Project flattened patches to encoder tokens ``[L_m, C_e]``.

    Joint-token: one token per (position, bin), all bands together.
    Token-based: one token per (position, bin, group), each group through its
    own matrix. ``weights`` holds ``embed_w``/``embed_b`` (joint) or
    ``embed_w{g}``/``embed_b{g}`` per group.
    """
    pos, d, _ = grid.data.shape
    bin_major = grid.data.transpose(1, 0, 2)            # [D, pos, vec]
    if multispectral == "joint-token":
        w = weights["embed_w"]
        x = Tensor(np.ascontiguousarray(bin_major, dtype=w.data.dtype))
        t = x @ w + weights["embed_b"]
        return t.reshape(d * pos, w.shape[1])
    cols = group_column_indices(spec.patch_size, spec.channels, spec.band_groups)
    parts = []
    ce = weights["embed_w0"].shape[1]
    for gi, idx in enumerate(cols):
        w = weights[f"embed_w{gi}"]
        x = Tensor(np.ascontiguousarray(bin_major[:, :, idx], dtype=w.data.dtype))
        t = x @ w + weights[f"embed_b{gi}"]
        parts.append(t.reshape(d, 1, pos, ce))
    stacked = ad.concat(parts, axis=1)                  # [D, G, pos, Ce]
    return stacked.reshape(d * len(cols) * pos, ce)


def project_out(decoded: Tensor, spec: ModalitySpec, multispectral: str,
                weights: dict[str, Tensor], bins: int) -> Tensor:
    """Decoded tokens ``[L_m, C_d]`` -> reconstructed patch grid ``[pos, D, P*P*C]``."""
    pp = spec.patch_size ** 2
    vec = pp * spec.channels
    if multispectral == "joint-token":
        y = decoded @ weights["out_w"] + weights["out_b"]
        pos = decoded.shape[0] // bins
        return y.reshape(bins, pos, vec).transpose(1, 0, 2)
    cols = group_column_indices(spec.patch_size, spec.channels, spec.band_groups)
    n_groups = len(cols)
    pos = decoded.shape[0] // (bins * n_groups)
    d4 = decoded.reshape(bins, n_groups, pos, decoded.shape[1])
    parts = []
    for gi, idx in enumerate(cols):
        y = d4[:, gi] @ weights[f"out_w{gi}"] + weights[f"out_b{gi}"]
        parts.append(y)                                  # [D, pos, len(idx)]
    concat_cols = np.concatenate(cols)
    inv = np.argsort(concat_cols)
    full = ad.concat(parts, axis=2)[:, :, inv]           # back to channel-major order
    return full.transpose(1, 0, 2)


def tokenizer_param_shapes(spec: ModalitySpec, multispectral: str,
                           enc_width: int, dec_width: int) -> dict[str, tuple[int, ...]]:
    """Shapes of the per-modality embedding/output parameters."""
    vec = spec.patch_size ** 2 * spec.channels
    shapes: dict[str, tuple[int, ...]] = {}
    if multispectral == "joint-token":
        shapes["embed_w"] = (vec, enc_width)
        shapes["embed_b"] = (enc_width,)
        shapes["out_w"] = (dec_width, vec)
        shapes["out_b"] = (vec,)
    else:
        pp = spec.patch_size ** 2
        for gi, g in enumerate(spec.band_groups):
            shapes[f"embed_w{gi}"] = (pp * len(g), enc_width)
            shapes[f"embed_b{gi}"] = (enc_width,)
            shapes[f"out_w{gi}"] = (dec_width, pp * len(g))
            shapes[f"out_b{gi}"] = (pp * len(g),)
    shapes["mask_token"] = (dec_width,)
    return shapes
