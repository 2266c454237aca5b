"""Two-stage mask sampling.

Stage one draws structure: whole modalities, whole (modality, spatial
position) columns, and whole (modality, temporal bin) rows, each with its
configured probability. Stage two adjusts the result token-by-token, without
replacement, to hit the exact global ratio. The adjustment may undo stage-one
structure; removal candidates are uniform over all masked tokens.

Per-modality token order matches the tokenizer: bin-major, then group, then
position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specs import DatasetSpec, FusionConfig, StructuredProbs


@dataclass
class ModalityLayout:
    name: str
    positions: int
    bins: int
    groups: int

    @property
    def tokens(self) -> int:
        return self.positions * self.bins * self.groups


@dataclass
class TokenLayout:
    modalities: list[ModalityLayout]

    @property
    def total_tokens(self) -> int:
        return sum(m.tokens for m in self.modalities)

    def names(self) -> list[str]:
        return [m.name for m in self.modalities]


def layout_from(dataset: DatasetSpec, fusion: FusionConfig) -> TokenLayout:
    mods = []
    for m in dataset.active_modalities():
        groups = len(m.band_groups) if fusion.multispectral == "token-based" else 1
        mods.append(ModalityLayout(m.name, m.grid_side ** 2, m.temporal_bins, groups))
    return TokenLayout(mods)


@dataclass
class MaskPlan:
    """Final boolean masks per modality (True = masked), canonical token order."""

    masks: dict[str, np.ndarray]
    total_tokens: int
    masked_count: int

    def mask_for(self, name: str) -> np.ndarray:
        return self.masks[name]

    def concat_mask(self, order: list[str]) -> np.ndarray:
        return np.concatenate([self.masks[n] for n in order])


def nint_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def structured_mask(layout: TokenLayout, probs: StructuredProbs,
                    rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Stage-one mask: a token is masked iff its modality, its (modality,
    position), or its (modality, bin) is drawn."""
    out: dict[str, np.ndarray] = {}
    for m in layout.modalities:
        whole = rng.random() < probs.modality
        spatial = rng.random(m.positions) < probs.spatial
        temporal = rng.random(m.bins) < probs.temporal
        grid = np.zeros((m.bins, m.groups, m.positions), dtype=bool)
        grid |= whole
        grid |= spatial[None, None, :]
        grid |= temporal[:, None, None]
        out[m.name] = grid.reshape(-1)
    return out


def adjust_to_ratio(masks: dict[str, np.ndarray], layout: TokenLayout,
                    mask_ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Stage two: enforce masked_count == nint(mask_ratio * total), .5 up."""
    order = layout.names()
    flat = np.concatenate([masks[n] for n in order])
    n = flat.size
    if n < 1:
        raise ValueError("empty token layout")
    target = nint_half_up(mask_ratio * n)
    if target <= 0 or target >= n:
        raise ValueError(
            f"degenerate masking: target {target} of {n} tokens leaves nothing to "
            "reconstruct or nothing visible")
    masked_idx = np.flatnonzero(flat)
    if len(masked_idx) < target:
        visible_idx = np.flatnonzero(~flat)
        extra = rng.permutation(visible_idx)[: target - len(masked_idx)]
        flat[extra] = True
    elif len(masked_idx) > target:
        drop = rng.permutation(masked_idx)[: len(masked_idx) - target]
        flat[drop] = False
    final: dict[str, np.ndarray] = {}
    at = 0
    for m in layout.modalities:
        final[m.name] = flat[at: at + m.tokens].copy()
        at += m.tokens
    return MaskPlan(masks=final, total_tokens=n, masked_count=target)


def sample_mask_plan(layout: TokenLayout, fusion: FusionConfig,
                     rng: np.random.Generator) -> MaskPlan:
    stage_one = structured_mask(layout, fusion.structured_probs, rng)
    return adjust_to_ratio(stage_one, layout, fusion.mask_ratio, rng)


def empirical_axis_stats(layout: TokenLayout, fusion: FusionConfig,
                         seed: int, n_plans: int) -> list[dict]:
    """Per-axis empirical masking frequencies over seeded plans (for audits)."""
    token_freq = {m.name: np.zeros(m.tokens) for m in layout.modalities}
    for i in range(n_plans):
        rng = np.random.default_rng([seed, i])
        plan = sample_mask_plan(layout, fusion, rng)
        for name, mask in plan.masks.items():
            token_freq[name] += mask
    rows = []
    total = sum(freq.sum() for freq in token_freq.values())
    n_tokens = layout.total_tokens
    rows.append({"axis": "overall", "modality": "*", "index": -1,
                 "masked_frequency": total / (n_plans * n_tokens)})
    for m in layout.modalities:
        freq = token_freq[m.name] / n_plans
        rows.append({"axis": "modality", "modality": m.name, "index": -1,
                     "masked_frequency": float(freq.mean())})
        grid = freq.reshape(m.bins, m.groups, m.positions)
        for b in range(m.bins):
            rows.append({"axis": "bin", "modality": m.name, "index": b,
                         "masked_frequency": float(grid[b].mean())})
        for p in range(m.positions):
            rows.append({"axis": "position", "modality": m.name, "index": p,
                         "masked_frequency": float(grid[:, :, p].mean())})
    return rows
