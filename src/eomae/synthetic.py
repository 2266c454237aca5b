"""Synthetic multimodal dataset generator.

Each tile draws a latent class map on the reference grid (Voronoi regions
around random anchors, or a single class for whole-tile classification
tasks), then renders every modality as

    offset_g + gain_g * tile_gain * (signature[class][channel] + phenology
    + texture) + tile_offset + noise,

where phenology is a per-class sinusoid of the acquisition day of year and
texture is a smooth, deterministic pixel-scale pattern that gives patches
predictable internal structure (without it, patch-normalized reconstruction
targets degenerate to pure noise). Band group gain/offset pairs emulate
correlated bands with disjoint histograms; per-tile offset/gain jitter act
as nuisance factors that force classifiers to rely on relative rather than
absolute values. Generation is parallel-safe: every tile uses its own RNG
stream keyed by (seed, tile_id).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .specs import DatasetSpec, from_dict, read_config_json
from .temporal import TimeRecord
from .tiles import Manifest, TileEntry, write_tensor, write_tile_modality

DAYS = 365.25


@dataclass
class SyntheticRecipe:
    seed: int = 0
    num_tiles: int = 64
    latent_classes: int = 4
    anchors_per_tile: int = 4
    single_class_tiles: bool = False
    signatures: dict[str, list[list[float]]] = field(default_factory=dict)
    phenology_amplitude: list[float] = field(default_factory=list)
    phenology_phase: list[float] = field(default_factory=list)
    band_group_gains: dict[str, list[list[float]]] = field(default_factory=dict)
    noise_sigma: float = 0.1
    cloud_probability: float = 0.0
    steps_per_bin: int = 3
    tile_offset_sigma: float = 0.0
    tile_gain_jitter: float = 0.0
    texture_amplitude: float = 0.5
    texture_by_class: bool = False
    phenology_channel_weights: dict[str, list[float]] = field(default_factory=dict)
    # Two-harmonic phenology: per-tile random global phase; the class phase
    # enters only through the second harmonic, so single dates (and linear
    # readouts of date-demodulated averages) cannot identify the class.
    tile_random_phase: bool = False
    second_harmonic_classes: bool = False
    val_fraction: float = 0.25

    def validate(self, dataset: DatasetSpec) -> None:
        if self.latent_classes < 2:
            raise ValueError("need at least two latent classes")
        for m in dataset.active_modalities():
            sigs = self.signatures.get(m.name)
            if sigs is None:
                raise ValueError(f"recipe lacks signatures for modality {m.name!r}")
            if len(sigs) != self.latent_classes:
                raise ValueError(f"{m.name}: one signature row per class required")
            if any(len(row) != m.channels for row in sigs):
                raise ValueError(f"{m.name}: signature rows must have {m.channels} channels")
            gains = self.band_group_gains.get(m.name)
            if gains is not None and len(gains) != len(m.band_groups):
                raise ValueError(f"{m.name}: one (gain, offset) pair per band group")
            weights = self.phenology_channel_weights.get(m.name)
            if weights is not None and len(weights) != m.channels:
                raise ValueError(f"{m.name}: one phenology weight per channel required")
        if len(self.phenology_amplitude) != self.latent_classes:
            raise ValueError("one phenology amplitude per class required")
        if len(self.phenology_phase) != self.latent_classes:
            raise ValueError("one phenology phase per class required")
        n_classes = self.latent_classes
        per_mod = [np.asarray(s) for s in self.signatures.values()]
        distinct = any(
            not np.allclose(sig[i], sig[j])
            for sig in per_mod for i in range(n_classes) for j in range(i + 1, n_classes)
        ) or len(set(self.phenology_phase)) > 1 or len(set(self.phenology_amplitude)) > 1
        if not distinct:
            raise ValueError("class signatures are indistinguishable")


def load_recipe(name: str) -> SyntheticRecipe:
    """Load a shipped recipe by name (``recipe_<name>`` or ``<name>``), or any recipe by path."""
    d = read_config_json(name, [f"recipe_{name}", name])
    if d is None:
        raise KeyError(f"unknown recipe {name!r}")
    return from_dict(SyntheticRecipe, d, "recipe")


def _latent_map(recipe: SyntheticRecipe, side: int, tile_id: int,
                rng: np.random.Generator) -> np.ndarray:
    if recipe.single_class_tiles or recipe.anchors_per_tile <= 1:
        # Deterministic class cycling keeps the label distribution balanced.
        return np.full((side, side), tile_id % recipe.latent_classes, dtype=np.int64)
    k = recipe.anchors_per_tile
    anchors = rng.uniform(0, side, size=(k, 2))
    classes = rng.integers(0, recipe.latent_classes, size=k)
    rows, cols = np.mgrid[0:side, 0:side]
    centers = np.stack([rows + 0.5, cols + 0.5], axis=-1)
    d2 = ((centers[:, :, None, :] - anchors[None, None, :, :]) ** 2).sum(axis=-1)
    return classes[np.argmin(d2, axis=-1)]


def _acquisition_times(n: int, rng: np.random.Generator) -> list[TimeRecord]:
    days = np.sort(rng.integers(0, 365, size=n))
    hours = 10.0 + rng.uniform(0.0, 2.0, size=n)
    return [TimeRecord(day_of_year=float(d + 1), hour_of_day=float(h), absolute_day=int(1000 + d))
            for d, h in zip(days, hours)]


def _render_modality(recipe: SyntheticRecipe, dataset: DatasetSpec, name: str,
                     latent: np.ndarray, times: list[TimeRecord], tile_gain: float,
                     tile_offset: float, tile_phase: float,
                     rng: np.random.Generator) -> np.ndarray:
    m = dataset.modality(name)
    side = m.image_size
    ref_side = latent.shape[0]
    # nearest upsample of the latent map to pixel resolution
    idx = np.minimum(((np.arange(side) + 0.5) * ref_side / side).astype(int), ref_side - 1)
    classes = latent[idx][:, idx]                                   # [I, I]
    sig = np.asarray(recipe.signatures[name], dtype=np.float64)     # [K, C]
    amp = np.asarray(recipe.phenology_amplitude)
    phase = np.asarray(recipe.phenology_phase)
    gains = np.asarray(recipe.band_group_gains.get(name, [[1.0, 0.0]] * len(m.band_groups)))
    gain_c = np.empty(m.channels)
    offset_c = np.empty(m.channels)
    for gi, group in enumerate(m.band_groups):
        for c in group:
            gain_c[c], offset_c[c] = gains[gi]
    doys = np.array([t.day_of_year for t in times])
    base_phase = 2 * np.pi * doys[:, None, None] / DAYS
    if recipe.second_harmonic_classes:
        # fundamental carries only the tile phase; the class phase rides on
        # the second harmonic, identifiable only relative to the fundamental
        pheno = amp[classes][None, :, :] * (
            np.sin(base_phase + tile_phase)
            + np.sin(2 * base_phase + 2 * tile_phase + phase[classes][None, :, :]))
    else:
        pheno = amp[classes][None, :, :] * np.sin(
            base_phase + tile_phase + phase[classes][None, :, :])
    pheno_w = np.asarray(recipe.phenology_channel_weights.get(m.name, [1.0] * m.channels))
    base = sig[classes]                                             # [I, I, C]
    # radial texture: invariant under the eight dihedral augmentations, so
    # the position-to-pattern map is stable across epochs
    rows, cols = np.mgrid[0:side, 0:side]
    center = (side - 1) / 2.0
    dist = np.sqrt((rows - center) ** 2 + (cols - center) ** 2)
    tex_cls = classes if recipe.texture_by_class else np.zeros_like(classes)
    texture = recipe.texture_amplitude * np.sin(2 * np.pi * dist / 3.0 + 0.7 * tex_cls)
    signal = (base.transpose(2, 0, 1)[None]
              + pheno_w[None, :, None, None] * pheno[:, None, :, :]
              + texture[None, None, :, :])                          # [T, C, I, I]
    data = (offset_c[None, :, None, None]
            + gain_c[None, :, None, None] * tile_gain * signal
            + tile_offset
            + recipe.noise_sigma * rng.standard_normal(signal.shape))
    return data


def generate(recipe: SyntheticRecipe, dataset: DatasetSpec, out_dir: str | Path) -> Manifest:
    """Render the dataset to ``out_dir`` and return its manifest."""
    recipe.validate(dataset)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    ref_side = dataset.reference_grid_side()
    manifest = Manifest(root=root, dataset=dataset, tiles=[])
    n_train = int(round(recipe.num_tiles * (1.0 - recipe.val_fraction)))
    for tile_id in range(recipe.num_tiles):
        rng = np.random.default_rng([recipe.seed, tile_id])
        latent = _latent_map(recipe, ref_side, tile_id, rng)
        tile_gain = 1.0 + (rng.uniform(-1, 1) * recipe.tile_gain_jitter)
        tile_offset = rng.normal(0.0, recipe.tile_offset_sigma) if recipe.tile_offset_sigma else 0.0
        tile_phase = rng.uniform(0.0, 2 * np.pi) if recipe.tile_random_phase else 0.0
        files: dict[str, dict[str, str]] = {}
        for m in dataset.active_modalities():
            steps = recipe.steps_per_bin * m.temporal_bins + int(rng.integers(0, m.temporal_bins + 1))
            times = _acquisition_times(steps, rng)
            data = _render_modality(recipe, dataset, m.name, latent, times,
                                    tile_gain, tile_offset, tile_phase, rng)
            cloud = None
            if m.cloud_mask.enabled and recipe.cloud_probability > 0:
                cloudy = rng.random(steps) < recipe.cloud_probability
                cloud = np.zeros((steps, m.image_size, m.image_size), dtype=np.float32)
                cloud[cloudy] = 1.0
                data = data + 3.0 * cloudy[:, None, None, None]
            files[m.name] = write_tile_modality(root, tile_id, m.name,
                                                data.astype(np.float32), times,
                                                cloud)
        entry = TileEntry(
            tile_id=tile_id,
            split="train" if tile_id < n_train else "val",
            files=files,
        )
        if dataset.task == "segmentation":
            entry.label_file = f"tiles/tile_{tile_id:05d}_labels.bin"
            write_tensor(root / entry.label_file, latent.astype(np.uint16))
        else:
            counts = np.bincount(latent.reshape(-1), minlength=recipe.latent_classes)
            present = np.flatnonzero(counts / counts.sum() >= 0.05)
            entry.label_classes = [int(c) for c in present]
        manifest.tiles.append(entry)
    manifest.save()
    return manifest
