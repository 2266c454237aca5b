"""Analytic MACs/FLOPs accounting for pretraining and transfer forwards.

Per-sequence encoder/decoder terms use the block count
``(12*L*C^2 + 2*L^2*C) * depth`` with the visible length ``L`` rounded to the
nearest integer (ties to even); grouped modalities contribute their summed
sequence length. Elementwise work (biases, norms, nonlinearities) is not
counted, and FLOPs are exactly twice the MACs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .router import build_routing
from .specs import DatasetSpec, FusionConfig, ModelDims, sequence_length


def nint(x: float) -> int:
    """Nearest integer, ties to even."""
    return int(np.rint(x))


@dataclass
class CostReport:
    phase: str
    terms: dict[str, float] = field(default_factory=dict)

    @property
    def total_macs(self) -> float:
        return float(sum(self.terms.values()))

    @property
    def total_flops(self) -> float:
        return 2.0 * self.total_macs

    def gmacs(self) -> float:
        return self.total_macs / 1e9

    def gflops(self) -> float:
        return self.total_flops / 1e9

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "terms_macs": dict(self.terms),
            "total_macs": self.total_macs,
            "total_flops": self.total_flops,
        }


def _block_term(length: int, width: int, depth: int) -> float:
    return float((12 * length * width * width + 2 * length * length * width) * depth)


def _sequence_lengths(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims) -> list[int]:
    plan = build_routing(dataset, fusion, dims)
    return [seq.length for seq in plan.sequences]


def _pixels_channels(dataset: DatasetSpec) -> int:
    return sum(m.image_size ** 2 * m.temporal_bins * m.channels
               for m in dataset.active_modalities())


def pretrain_cost(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims) -> CostReport:
    """Forward MACs for one batch element during masked pretraining."""
    mods = dataset.active_modalities()
    if not mods or all(sequence_length(m, fusion.multispectral) == 0 for m in mods):
        raise ValueError("empty model: no active tokens")
    m_ratio = fusion.mask_ratio
    enc = dec = 0.0
    for length in _sequence_lengths(dataset, fusion, dims):
        visible = nint((1.0 - m_ratio) * length)
        enc += _block_term(visible, dims.encoder_width, dims.encoder_depth)
        dec += _block_term(length, dims.decoder_width, dims.decoder_depth)
    enc_to_dec = sum(
        nint((1.0 - m_ratio) * sequence_length(m, fusion.multispectral)) for m in mods
    ) * dims.encoder_width * dims.decoder_width
    pixels = _pixels_channels(dataset)
    report = CostReport(phase="pretrain")
    report.terms = {
        "encoder": enc,
        "decoder": dec,
        "enc_to_dec": float(enc_to_dec),
        "patchify": float(pixels * dims.encoder_width),
        "unpatchify": float(pixels * dims.decoder_width),
    }
    return report


def transfer_cost(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims,
                  task: str | None = None) -> CostReport:
    """Forward MACs for one batch element during probing or fine-tuning.

    Full-length sequences, no masking or decoder; includes the patchify term
    plus the attentive-pooling and final projection terms of the task head.
    The classification head's attentive pool applies its value projection
    once, to the pooled vector (``pool_value``).
    """
    mods = dataset.active_modalities()
    if not mods or all(sequence_length(m, fusion.multispectral) == 0 for m in mods):
        raise ValueError("empty model: no active tokens")
    task = task or dataset.task
    enc = sum(_block_term(length, dims.encoder_width, dims.encoder_depth)
              for length in _sequence_lengths(dataset, fusion, dims))
    total_tokens = sum(sequence_length(m, fusion.multispectral) for m in mods)
    attn_pool = 2.0 * total_tokens * dims.encoder_width
    report = CostReport(phase="transfer")
    report.terms = {"encoder": enc, "attn_pool": attn_pool}
    if task == "classification":
        report.terms["pool_value"] = float(dims.encoder_width ** 2)
        report.terms["proj_cls"] = float(dims.encoder_width * dataset.num_classes)
    else:
        l_ref = dataset.reference_grid_side() ** 2
        report.terms["proj_seg"] = float(l_ref * dims.encoder_width * dataset.num_classes)
    report.terms["patchify"] = float(_pixels_channels(dataset) * dims.encoder_width)
    return report


def cost_for_phase(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims,
                   phase: str) -> CostReport:
    if phase == "pretrain":
        return pretrain_cost(dataset, fusion, dims)
    if phase in ("probe", "finetune", "transfer"):
        return transfer_cost(dataset, fusion, dims)
    raise ValueError(f"unknown phase {phase!r}")
