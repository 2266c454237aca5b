"""Reconstruction-target normalization and the L1 reconstruction losses.

Three normalization modes over flattened patch vectors:

- ``none``:        raw targets;
- ``patch``:       standardize each patch vector across all of its bands
                   (with the token-based flavor this is per band-group token,
                   where the two strategies coincide);
- ``patch-group``: standardize each band-group slice of each patch.

The standard deviation is the population (1/n) flavor, guarded by
``max(sigma, eps)`` so constant units normalize to zero. Loss denominators
count patch units for ``none``/``patch`` and patch-group units for
``patch-group``; with ``masked_only`` (the default, MAE convention) sums and
denominators range over masked units only, while the flag's literal form
reproduces the all-token formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .specs import ModalitySpec
from .tokenizer import PatchGrid, group_column_indices

EPS_DEFAULT = 1e-6


@dataclass
class NormalizedTargets:
    data: np.ndarray          # same shape as the source grid [pos, D, P*P*C]
    mean: np.ndarray          # per unit: [pos, D] or [pos, D, G]
    std: np.ndarray


def _standardize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = x.mean(axis=-1, keepdims=True)
    sigma = x.std(axis=-1, keepdims=True)  # population std
    out = (x - mu) / np.maximum(sigma, eps)
    return out, mu[..., 0], sigma[..., 0]


def normalize_targets(grid: PatchGrid, spec: ModalitySpec, mode: str,
                      multispectral: str = "joint-token",
                      eps: float = EPS_DEFAULT) -> NormalizedTargets:
    data = grid.data
    pos, bins, _ = data.shape
    if mode == "none":
        return NormalizedTargets(data.copy(), np.zeros((pos, bins)), np.ones((pos, bins)))
    per_group = mode == "patch-group" or multispectral == "token-based"
    if not per_group or len(spec.band_groups) == 1:
        # a single covering group is the patch-wise computation, bit for bit
        out, mu, sd = _standardize(data, eps)
        if per_group:
            return NormalizedTargets(out, mu[..., None], sd[..., None])
        return NormalizedTargets(out, mu, sd)
    cols = group_column_indices(spec.patch_size, spec.channels, spec.band_groups)
    out = np.empty_like(data)
    mu = np.zeros((pos, bins, len(cols)))
    sd = np.zeros((pos, bins, len(cols)))
    for gi, idx in enumerate(cols):
        out[:, :, idx], mu[:, :, gi], sd[:, :, gi] = _standardize(data[:, :, idx], eps)
    return NormalizedTargets(out, mu, sd)


@dataclass
class ReconstructionItem:
    """One modality's contribution to the loss."""

    spec: ModalitySpec
    targets: np.ndarray        # normalized targets [pos, D, P*P*C]
    recon: Tensor              # decoder output  [pos, D, P*P*C]
    multispectral: str = "joint-token"
    token_mask: np.ndarray | None = None   # canonical order, True = masked


def _unit_mask(item: ReconstructionItem, pos: int, bins: int, n_groups: int) -> np.ndarray:
    """Token mask reshaped to unit axes: [pos, D] (joint) or [pos, D, G] (token-based)."""
    if item.token_mask is None:
        raise ValueError("masked_only loss needs a token mask")
    if item.multispectral == "token-based":
        m = item.token_mask.reshape(bins, n_groups, pos)
        return m.transpose(2, 0, 1)
    return item.token_mask.reshape(bins, pos).T


def reconstruction_loss(items: list[ReconstructionItem], mode: str,
                        masked_only: bool = True) -> Tensor:
    """L1 reconstruction loss across modalities.

    ``mode`` selects the denominator convention: patch units (positions x
    bins) for ``none``/``patch``, patch-group units for ``patch-group``.
    """
    total: Tensor | None = None
    denom = 0.0
    for item in items:
        pos, bins, _ = item.targets.shape
        n_groups = len(item.spec.band_groups)
        dtype = item.recon.data.dtype
        resid = (item.recon - Tensor(item.targets.astype(dtype, copy=False))).abs()
        per_token = resid.sum(axis=2)   # joint: [pos, D]
        token_based = item.multispectral == "token-based"
        if token_based or mode == "patch-group":
            # units are (position, bin, group): split the L1 sums per group
            cols = group_column_indices(item.spec.patch_size, item.spec.channels,
                                        item.spec.band_groups)
            parts = [resid[:, :, idx].sum(axis=2).reshape(pos, bins, 1) for idx in cols]
            per_unit = ad.concat(parts, axis=2)        # [pos, D, G]
        else:
            per_unit = per_token

        if masked_only:
            m = _unit_mask(item, pos, bins, n_groups)
            if per_unit.ndim == 3 and m.ndim == 2:
                m = np.repeat(m[:, :, None], per_unit.shape[2], axis=2)
            selected = (per_unit * Tensor(m.astype(dtype))).sum()
            masked_units = float(m.sum())
            if mode == "patch-group":
                denom += masked_units if per_unit.ndim == 3 else masked_units * n_groups
            else:
                denom += masked_units / n_groups if token_based else masked_units
        else:
            selected = per_unit.sum()
            if mode == "patch-group":
                denom += pos * bins * n_groups
            else:
                denom += pos * bins
        total = selected if total is None else total + selected
    if total is None or denom == 0:
        raise ValueError("no reconstruction units")
    return total * (1.0 / denom)
