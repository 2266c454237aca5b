"""Token routing for the five fusion modes.

A routing plan groups (modality, bin) token slabs into encoder/decoder
sequences and assigns parameter sets:

- ``shared``:   one sequence per (modality, bin), one shared parameter set;
- ``monotemp``: one sequence per (modality, bin), parameters per modality;
- ``mod``:      one sequence per modality (bins concatenated), per-modality
                parameters;
- ``group``:    one sequence per modality group, per-group parameters;
- ``inter-group``: as ``group``, with the trailing encoder blocks swapped for
  fusion blocks that run once over the concatenation of all groups' tokens
  using one extra shared parameter set. With a single group the fusion stage
  is vacuous and the plan collapses to ``group``.

Decoders mirror the encoder grouping (including in inter-group mode) and own
the dense encoder-to-decoder projection; mask tokens are per modality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import (block_param_view, init_block_params, run_blocks,
                       transformer_block)
from .masking import MaskPlan, TokenLayout, layout_from
from .specs import DatasetSpec, FusionConfig, ModelDims
from .tokenizer import tokenizer_param_shapes


@dataclass
class Slab:
    modality: str
    bin_index: int
    start: int   # token offset inside the modality's canonical array
    length: int


@dataclass
class Sequence:
    slabs: list[Slab]
    param_set: int

    @property
    def length(self) -> int:
        return sum(s.length for s in self.slabs)


@dataclass
class RoutingPlan:
    mode: str
    sequences: list[Sequence]
    encoder_param_sets: int
    fusion_boundary: int | None = None
    fusion_param_set: int | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "encoder_param_sets": self.encoder_param_sets,
            "fusion_boundary": self.fusion_boundary,
            "fusion_param_set": self.fusion_param_set,
            "sequences": [
                {
                    "param_set": s.param_set,
                    "length": s.length,
                    "slabs": [
                        {"modality": sl.modality, "bin": sl.bin_index, "length": sl.length}
                        for sl in s.slabs
                    ],
                }
                for s in self.sequences
            ],
        }


def _slabs_of(layout: TokenLayout, name: str) -> list[Slab]:
    m = next(x for x in layout.modalities if x.name == name)
    per_bin = m.groups * m.positions
    return [Slab(name, b, b * per_bin, per_bin) for b in range(m.bins)]


def build_routing(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims) -> RoutingPlan:
    layout = layout_from(dataset, fusion)
    names = layout.names()
    mode = fusion.mode
    if mode in ("shared", "monotemp"):
        sequences = []
        for i, n in enumerate(names):
            pset = 0 if mode == "shared" else i
            sequences.extend(Sequence([s], pset) for s in _slabs_of(layout, n))
        return RoutingPlan(mode, sequences, 1 if mode == "shared" else len(names))
    if mode == "mod":
        sequences = [Sequence(_slabs_of(layout, n), i) for i, n in enumerate(names)]
        return RoutingPlan(mode, sequences, len(names))
    if mode in ("group", "inter-group"):
        groups = dataset.active_groups()
        sequences = []
        for gi, members in enumerate(groups):
            slabs = [s for n in members for s in _slabs_of(layout, n)]
            sequences.append(Sequence(slabs, gi))
        plan = RoutingPlan(mode, sequences, len(groups))
        if mode == "inter-group" and len(groups) > 1 and dims.fusion_blocks > 0:
            plan.fusion_boundary = dims.encoder_depth - dims.fusion_blocks
            plan.fusion_param_set = len(groups)
        else:
            plan.mode = "group"
        return plan
    raise ValueError(f"unknown fusion mode {mode!r}")


def parameter_set_count(plan: RoutingPlan) -> int:
    return plan.encoder_param_sets + (1 if plan.fusion_param_set is not None else 0)


# -- parameter construction ------------------------------------------------------

def build_parameters(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims,
                     seed: int, std: float = 0.02) -> dict[str, Tensor]:
    """Backbone + tokenizer parameters for a routing configuration.

    Encoder sets are named ``enc/{set}/blk{i}``, decoder sets ``dec/{set}``
    (mirroring encoder grouping) with an ``enc2dec`` projection each; fusion
    blocks, when present, live under ``fusion/blk{i}``.
    """
    rng = np.random.default_rng([seed, 0xB0CE])
    plan = build_routing(dataset, fusion, dims)
    params: dict[str, np.ndarray] = {}

    for s in range(plan.encoder_param_sets):
        for i in range(dims.encoder_depth):
            for k, v in init_block_params(rng, dims.encoder_width, std).items():
                params[f"enc/{s}/blk{i}/{k}"] = v
        for i in range(dims.decoder_depth):
            for k, v in init_block_params(rng, dims.decoder_width, std).items():
                params[f"dec/{s}/blk{i}/{k}"] = v
        params[f"dec/{s}/enc2dec_w"] = rng.normal(0.0, std, (dims.encoder_width, dims.decoder_width))
        params[f"dec/{s}/enc2dec_b"] = np.zeros(dims.decoder_width)
    if plan.fusion_param_set is not None:
        for i in range(plan.fusion_boundary, dims.encoder_depth):
            for k, v in init_block_params(rng, dims.encoder_width, std).items():
                params[f"fusion/blk{i}/{k}"] = v

    for m in dataset.active_modalities():
        shapes = tokenizer_param_shapes(m, fusion.multispectral, dims.encoder_width, dims.decoder_width)
        for k, shape in shapes.items():
            if k.endswith("_b") or k == "mask_token":
                arr = rng.normal(0.0, std, shape) if k == "mask_token" else np.zeros(shape)
            else:
                arr = rng.normal(0.0, std, shape)
            params[f"tok/{m.name}/{k}"] = arr

    return {k: _leaf(v) for k, v in params.items()}


def _leaf(arr: np.ndarray) -> Tensor:
    t = Tensor(np.asarray(arr, dtype=np.float64))
    t.requires_grad = True
    return t


# -- encode / decode ---------------------------------------------------------------


@dataclass
class EncodedSlab:
    slab: Slab
    visible_local: np.ndarray  # indices into the slab, ascending
    tokens: Tensor | None      # [n_visible, C_e]; None when nothing is visible


def _gather(t: Tensor, idx: np.ndarray) -> Tensor | None:
    if len(idx) == 0:
        return None
    return t[idx]


def encode_visible(tokens_by_mod: dict[str, Tensor], mask_plan: MaskPlan,
                   plan: RoutingPlan, params: dict[str, Tensor],
                   dims: ModelDims) -> dict[tuple[str, int], EncodedSlab]:
    """Run the encoder over visible tokens, sequence by sequence.

    Returns per-(modality, bin) encoded slabs. Sequences with zero visible
    tokens are legal and produce empty encodings.
    """
    out: dict[tuple[str, int], EncodedSlab] = {}
    pending: list[tuple[Sequence, list[tuple[Slab, np.ndarray]], Tensor | None]] = []
    for seq in plan.sequences:
        parts = []
        slab_vis = []
        for slab in seq.slabs:
            vis = np.flatnonzero(~mask_plan.mask_for(slab.modality)[slab.start: slab.start + slab.length])
            slab_vis.append((slab, vis))
            g = _gather(tokens_by_mod[slab.modality], slab.start + vis)
            if g is not None:
                parts.append(g)
        x = ad.concat(parts, axis=0) if len(parts) > 1 else (parts[0] if parts else None)
        if x is not None:
            depth = plan.fusion_boundary if plan.fusion_boundary is not None else dims.encoder_depth
            x = run_blocks(x, params, f"enc/{seq.param_set}", depth, dims.heads)
        pending.append((seq, slab_vis, x))

    if plan.fusion_boundary is not None:
        fused_parts = [x for _, _, x in pending if x is not None]
        fused = ad.concat(fused_parts, axis=0) if len(fused_parts) > 1 else fused_parts[0]
        for i in range(plan.fusion_boundary, dims.encoder_depth):
            fused = transformer_block(fused, block_param_view(params, f"fusion/blk{i}"), dims.heads)
        at = 0
        rescattered = []
        for seq, slab_vis, x in pending:
            if x is None:
                rescattered.append((seq, slab_vis, None))
                continue
            n = x.shape[0]
            rescattered.append((seq, slab_vis, fused[np.arange(at, at + n)]))
            at += n
        pending = rescattered

    for seq, slab_vis, x in pending:
        at = 0
        for slab, vis in slab_vis:
            n = len(vis)
            enc = x[np.arange(at, at + n)] if (x is not None and n > 0) else None
            out[(slab.modality, slab.bin_index)] = EncodedSlab(slab, vis, enc)
            at += n
    return out


def decode_with_masks(encoded: dict[tuple[str, int], EncodedSlab], mask_plan: MaskPlan,
                      plan: RoutingPlan, params: dict[str, Tensor], dims: ModelDims,
                      decoder_encodings: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Project encoded tokens to decoder width, fill masked slots with the
    owning modality's mask token, re-attach decoder-width encodings, and run
    the decoder with the plan's sequence grouping.

    Returns full-length decoded sequences per modality, canonical token order.
    """
    slab_outputs: dict[tuple[str, int], Tensor] = {}
    for seq in plan.sequences:
        parts = []
        for slab in seq.slabs:
            es = encoded[(slab.modality, slab.bin_index)]
            vis = es.visible_local
            masked = np.setdiff1d(np.arange(slab.length), vis)
            rows = []
            order = []
            if len(vis) > 0:
                proj = es.tokens @ params[f"dec/{seq.param_set}/enc2dec_w"] + params[f"dec/{seq.param_set}/enc2dec_b"]
                rows.append(proj)
                order.append(vis)
            if len(masked) > 0:
                mt = params[f"tok/{slab.modality}/mask_token"].reshape(1, dims.decoder_width)
                zeros = np.zeros((len(masked), dims.decoder_width), dtype=mt.data.dtype)
                rows.append(Tensor(zeros) + mt)
                order.append(masked)
            stacked = ad.concat(rows, axis=0) if len(rows) > 1 else rows[0]
            inv = np.argsort(np.concatenate(order))
            full = stacked[inv]
            enc_rows = decoder_encodings[slab.modality][slab.start: slab.start + slab.length]
            parts.append(full + Tensor(enc_rows.astype(full.data.dtype, copy=False)))
        x = ad.concat(parts, axis=0) if len(parts) > 1 else parts[0]
        x = run_blocks(x, params, f"dec/{seq.param_set}", dims.decoder_depth, dims.heads)
        at = 0
        for slab in seq.slabs:
            slab_outputs[(slab.modality, slab.bin_index)] = x[np.arange(at, at + slab.length)]
            at += slab.length

    by_mod: dict[str, list[tuple[int, Tensor]]] = {}
    for (name, b), t in slab_outputs.items():
        by_mod.setdefault(name, []).append((b, t))
    out: dict[str, Tensor] = {}
    for name, items in by_mod.items():
        items.sort(key=lambda x: x[0])
        ts = [t for _, t in items]
        out[name] = ad.concat(ts, axis=0) if len(ts) > 1 else ts[0]
    return out
