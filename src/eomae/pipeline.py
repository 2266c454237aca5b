"""Per-tile assembly: raw series -> crops -> discretized bins -> patches ->
embedded tokens with positional/temporal encodings -> masked-autoencoder loss
or task-head forward.

Pure functions of (manifest, config, seed, epoch, tile); all augmentation
randomness comes from counter-based streams, and the evaluation path is
seed-independent (deterministic crops, centered truncation, representative
time steps, no dihedral augmentation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encodings import (encoding_block, reference_date, spatial_table,
                        temporal_features)
from .heads import (align_to_reference, classification_head, segmentation_head,
                    upsample_logits)
from .masking import MaskPlan, TokenLayout, layout_from
from .router import RoutingPlan, decode_with_masks, encode_visible
from .specs import DatasetSpec, FusionConfig, ModelDims
from .targets import ReconstructionItem, normalize_targets, reconstruction_loss
from .temporal import (RawSeries, TimeRecord, d4_transform, discretize,
                       sample_crop, stream_rng)
from .tiles import Manifest, read_label_grid, read_tile
from .tokenizer import PatchGrid, embed, patchify, project_out


@dataclass
class EncodingTables:
    encoder: dict[str, np.ndarray]
    decoder: dict[str, np.ndarray]


def build_tables(dataset: DatasetSpec, dims: ModelDims) -> EncodingTables:
    specs = dataset.active_modalities()
    return EncodingTables(
        encoder=spatial_table(specs, dims.encoder_width),
        decoder=spatial_table(specs, dims.decoder_width),
    )


@dataclass
class TileBatch:
    tile_id: int
    grids: dict[str, PatchGrid]
    token_encodings: dict[str, np.ndarray]      # encoder width rows [L_m, C_e]
    decoder_encodings: dict[str, np.ndarray]    # decoder width rows [L_m, C_d]
    layout: TokenLayout
    label_classes: list[int] | None = None
    label_grid: np.ndarray | None = None


class TileCache:
    """In-memory cache of raw series; desk-scale datasets fit comfortably."""

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        self._series: dict[tuple[int, str], RawSeries] = {}
        self._labels: dict[int, np.ndarray] = {}

    def series(self, tile_id: int, modality: str) -> RawSeries:
        key = (tile_id, modality)
        if key not in self._series:
            self._series[key] = read_tile(self.manifest, tile_id, modality)
        return self._series[key]

    def label_grid(self, tile_id: int) -> np.ndarray:
        if tile_id not in self._labels:
            self._labels[tile_id] = read_label_grid(self.manifest, tile_id)
        return self._labels[tile_id]


def _encoding_rows(spatial: np.ndarray, times: list[TimeRecord], ref: TimeRecord,
                   groups: int) -> np.ndarray:
    """Token encoding rows in canonical order (bin-major, group, position)."""
    blocks = []
    for t in times:
        feats = temporal_features(t, ref)
        rows = encoding_block(spatial, feats)
        for _ in range(groups):
            blocks.append(rows)
    return np.concatenate(blocks, axis=0)


def assemble_tile(cache: TileCache, tile_id: int, dataset: DatasetSpec,
                  fusion: FusionConfig, tables: EncodingTables, train: bool,
                  seed: int, epoch: int, repetition: int = 0) -> TileBatch:
    """Run the preprocessing pipeline for one tile and epoch."""
    crop_rng = stream_rng(seed, epoch, tile_id, "crop")
    windows = sample_crop(dataset, train, crop_rng if train else None, repetition)
    k_d4 = int(stream_rng(seed, epoch, tile_id, "d4").integers(0, 8)) if train else 0

    discretized = {}
    for m in dataset.active_modalities():
        series = cache.series(tile_id, m.name)
        win = windows[m.name]
        rs, cs = win.slices()
        data = series.data[:, :, rs, cs]
        cloud = series.cloud_mask[:, rs, cs] if series.cloud_mask is not None else None
        cropped = RawSeries(data=data, times=series.times, cloud_mask=cloud)
        rng = stream_rng(seed, epoch, tile_id, f"select/{m.name}") if train else None
        discretized[m.name] = discretize(cropped, m, train, rng)

    all_times = [t for d in discretized.values() for t in d.selected_times]
    ref = reference_date(all_times)

    grids = {}
    token_enc = {}
    dec_enc = {}
    layout = layout_from(dataset, fusion)
    by_name = {ml.name: ml for ml in layout.modalities}
    for m in dataset.active_modalities():
        d = discretized[m.name]
        data = d4_transform(k_d4, d.data)
        grids[m.name] = patchify(data, m.patch_size, m.name)
        groups = by_name[m.name].groups
        token_enc[m.name] = _encoding_rows(tables.encoder[m.name], d.selected_times, ref, groups)
        dec_enc[m.name] = _encoding_rows(tables.decoder[m.name], d.selected_times, ref, groups)

    batch = TileBatch(tile_id=tile_id, grids=grids, token_encodings=token_enc,
                      decoder_encodings=dec_enc, layout=layout)
    entry = cache.manifest.tile(tile_id)
    if dataset.task == "classification":
        batch.label_classes = entry.label_classes
    else:
        label = cache.label_grid(tile_id)
        if dataset.crop_extent_m != dataset.tile_extent_m:
            side = label.shape[0]
            per_side = int(round(dataset.tile_extent_m / dataset.crop_extent_m))
            sub = side // per_side
            r = (repetition % (per_side * per_side)) // per_side
            c = (repetition % (per_side * per_side)) % per_side
            label = label[r * sub:(r + 1) * sub, c * sub:(c + 1) * sub]
        batch.label_grid = d4_transform(k_d4, label.astype(np.int64))
    return batch


def tokenizer_weights(params: dict[str, Tensor], modality: str) -> dict[str, Tensor]:
    """One modality's tokenizer tensors, keyed by their last name component."""
    prefix = f"tok/{modality}/"
    return {k.split("/")[-1]: v for k, v in params.items() if k.startswith(prefix)}


def embed_tokens(batch: TileBatch, dataset: DatasetSpec, fusion: FusionConfig,
                 params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Tokenize every modality and add the encoder-width encodings."""
    out = {}
    for m in dataset.active_modalities():
        weights = tokenizer_weights(params, m.name)
        t = embed(batch.grids[m.name], m, fusion.multispectral, weights)
        out[m.name] = t + Tensor(batch.token_encodings[m.name])
    return out


def pretrain_loss(batch: TileBatch, dataset: DatasetSpec, fusion: FusionConfig,
                  dims: ModelDims, plan: RoutingPlan, params: dict[str, Tensor],
                  mask_plan: MaskPlan, masked_only: bool = True) -> Tensor:
    """Full masked-autoencoder reconstruction loss for one tile."""
    tokens = embed_tokens(batch, dataset, fusion, params)
    encoded = encode_visible(tokens, mask_plan, plan, params, dims)
    decoded = decode_with_masks(encoded, mask_plan, plan, params, dims,
                                batch.decoder_encodings)
    items = []
    for m in dataset.active_modalities():
        recon = project_out(decoded[m.name], m, fusion.multispectral,
                            tokenizer_weights(params, m.name), bins=m.temporal_bins)
        norm = normalize_targets(batch.grids[m.name], m, fusion.target_norm,
                                 fusion.multispectral)
        items.append(ReconstructionItem(
            spec=m, targets=norm.data, recon=recon,
            multispectral=fusion.multispectral,
            token_mask=mask_plan.mask_for(m.name)))
    return reconstruction_loss(items, fusion.target_norm, masked_only=masked_only)


def full_visible_plan(layout: TokenLayout) -> MaskPlan:
    masks = {m.name: np.zeros(m.tokens, dtype=bool) for m in layout.modalities}
    return MaskPlan(masks=masks, total_tokens=layout.total_tokens, masked_count=0)


def encode_all(batch: TileBatch, dataset: DatasetSpec, fusion: FusionConfig,
               dims: ModelDims, plan: RoutingPlan,
               params: dict[str, Tensor]) -> dict[tuple[str, int], Tensor]:
    """Encoder forward over every token (transfer phases); returns per-slab tokens."""
    tokens = embed_tokens(batch, dataset, fusion, params)
    encoded = encode_visible(tokens, full_visible_plan(batch.layout), plan, params, dims)
    return {key: es.tokens for key, es in encoded.items()}


def task_logits(batch: TileBatch, dataset: DatasetSpec, fusion: FusionConfig,
                dims: ModelDims, plan: RoutingPlan, params: dict[str, Tensor],
                head_params: dict[str, Tensor]) -> Tensor:
    """Class logits [K] (classification) or per-pixel logits [label^2, K]."""
    slabs = encode_all(batch, dataset, fusion, dims, plan, params)
    if dataset.task == "classification":
        return classification_head(list(slabs.values()), head_params)
    ref_side = dataset.reference_grid_side()
    layout = {ml.name: ml for ml in batch.layout.modalities}
    aligned = []
    for (name, _bin), tokens in sorted(slabs.items()):
        ml = layout[name]
        side = int(round(ml.positions ** 0.5))
        if ml.groups == 1:
            aligned.append(align_to_reference(tokens, side, ref_side))
        else:
            per_group = tokens.reshape(ml.groups, ml.positions, dims.encoder_width)
            for g in range(ml.groups):
                aligned.append(align_to_reference(per_group[g], side, ref_side))
    logits = segmentation_head(aligned, head_params)
    label_side = batch.label_grid.shape[0] if batch.label_grid is not None else ref_side
    return upsample_logits(logits, ref_side, label_side)
