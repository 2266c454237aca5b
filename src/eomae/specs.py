"""Dataset, modality, fusion, and model-dimension descriptions.

Single source of truth for token accounting. Configurations are plain data:
presets, generator recipes and dataset manifests are JSON files that mirror
the dataclasses field for field, and one loader (``from_dict``) reads them
all. An unknown key, a missing required field, a non-object value or a leaf
value of the wrong type is a ``ValueError`` that names its dotted path.
Shipped presets and recipes live in ``eomae/presets``; ``override_fusion``
applies command-line fusion overrides.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

FUSION_MODES = ("shared", "monotemp", "mod", "group", "inter-group")
MULTISPECTRAL_FLAVORS = ("joint-token", "token-based")
TARGET_NORMS = ("none", "patch", "patch-group")
TASKS = ("classification", "segmentation")


@dataclass
class CloudMaskSpec:
    enabled: bool = False
    threshold: float = 0.0


@dataclass
class ModalitySpec:
    """Geometry and spectral description of one sensor stream.

    ``gsd_m`` is the post-resample ground sampling distance; ``image_size``
    is the pixel count covering the crop extent. ``temporal_bins == 0``
    excludes the modality from the run.
    """

    name: str
    gsd_m: float
    image_size: int
    patch_size: int
    temporal_bins: int
    channels: int
    band_groups: list[list[int]]
    norm_factor: float = 1.0
    cloud_mask: CloudMaskSpec = field(default_factory=CloudMaskSpec)

    @property
    def active(self) -> bool:
        return self.temporal_bins > 0

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    def gsd_fraction(self) -> Fraction:
        # Fraction-of-string keeps decimal GSDs like 0.2 exact.
        return Fraction(str(self.gsd_m))


@dataclass
class DatasetSpec:
    name: str
    tile_extent_m: float
    crop_extent_m: float
    modalities: list[ModalitySpec]
    modality_groups: list[list[str]]
    task: str = "classification"
    num_classes: int = 2
    ignored_class_ids: list[int] = field(default_factory=list)
    reference_grid_resolution_m: float | None = None

    @property
    def repetition_factor(self) -> int:
        ratio = Fraction(str(self.tile_extent_m)) / Fraction(str(self.crop_extent_m))
        return max(1, int(math.floor(float(ratio * ratio) + 0.5)))

    def modality(self, name: str) -> ModalitySpec:
        for m in self.modalities:
            if m.name == name:
                return m
        raise KeyError(f"unknown modality {name!r}")

    def active_modalities(self) -> list[ModalitySpec]:
        return [m for m in self.modalities if m.active]

    def active_groups(self) -> list[list[str]]:
        """Modality groups restricted to active members; empty groups dropped."""
        out = []
        for g in self.modality_groups:
            kept = [n for n in g if self.modality(n).active]
            if kept:
                out.append(kept)
        return out

    def reference_grid_side(self) -> int:
        if self.reference_grid_resolution_m is None:
            raise ValueError(f"dataset {self.name!r} has no reference grid resolution")
        side = Fraction(str(self.crop_extent_m)) / Fraction(str(self.reference_grid_resolution_m))
        if side.denominator != 1:
            raise ValueError("crop extent is not a multiple of the reference grid resolution")
        return int(side)


@dataclass
class StructuredProbs:
    modality: float = 0.25
    spatial: float = 0.25
    temporal: float = 0.25


@dataclass
class FusionConfig:
    mode: str = "group"
    multispectral: str = "joint-token"
    target_norm: str = "patch-group"
    mask_ratio: float = 0.75
    structured_probs: StructuredProbs = field(default_factory=StructuredProbs)


@dataclass
class ModelDims:
    encoder_width: int = 768
    encoder_depth: int = 12
    decoder_width: int = 512
    decoder_depth: int = 3
    heads: int = 12
    fusion_blocks: int = 3


@dataclass
class ValidationIssue:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, path: str, message: str) -> None:
        self.issues.append(ValidationIssue(path, message))

    def raise_if_failed(self) -> None:
        if not self.ok:
            lines = "\n  ".join(str(i) for i in self.issues)
            raise ValueError(f"invalid configuration:\n  {lines}")


def validate(dataset: DatasetSpec, fusion: FusionConfig | None = None,
             dims: ModelDims | None = None) -> ValidationReport:
    """Check every structural invariant; a passing triple is constructible downstream."""
    rep = ValidationReport()

    if dataset.task not in TASKS:
        rep.add("dataset.task", f"unknown task {dataset.task!r}")
    crop = Fraction(str(dataset.crop_extent_m))
    tile = Fraction(str(dataset.tile_extent_m))
    if crop <= 0 or tile <= 0:
        rep.add("dataset", "extents must be positive")
    elif crop > tile:
        rep.add("dataset.crop_extent_m", "crop larger than tile")
    elif crop < tile and (tile / crop).denominator != 1:
        # Eval partitions tiles into non-overlapping crops; exact tiling needs
        # an integer ratio per axis.
        rep.add("dataset.crop_extent_m", "crop extent must divide tile extent exactly")

    names = [m.name for m in dataset.modalities]
    if len(set(names)) != len(names):
        rep.add("dataset.modalities", "duplicate modality names")

    for m in dataset.modalities:
        p = f"modalities[{m.name}]"
        if m.patch_size <= 0 or m.image_size <= 0:
            rep.add(p, "patch and image size must be positive")
            continue
        if m.image_size % m.patch_size != 0:
            rep.add(p, "patch does not divide image")
        if m.channels < 1:
            rep.add(p, "channels must be >= 1")
        if m.temporal_bins < 0:
            rep.add(p, "temporal_bins must be >= 0")
        if m.norm_factor <= 0:
            rep.add(p, "norm_factor must be positive")
        if not (0.0 <= m.cloud_mask.threshold <= 1.0):
            rep.add(p, "cloud mask threshold must be in [0,1]")
        seen: set[int] = set()
        for gi, group in enumerate(m.band_groups):
            if not group:
                rep.add(f"{p}.band_groups[{gi}]", "empty group")
            for c in group:
                if c in seen:
                    rep.add(f"{p}.band_groups[{gi}]", f"channel {c} appears twice: partition not disjoint")
                seen.add(c)
        if seen != set(range(m.channels)):
            missing = sorted(set(range(m.channels)) - seen)
            extra = sorted(seen - set(range(m.channels)))
            if missing:
                rep.add(f"{p}.band_groups", f"partition not covering: missing channels {missing}")
            if extra:
                rep.add(f"{p}.band_groups", f"channels out of range: {extra}")
        if crop > 0:
            px = crop / m.gsd_fraction()
            if px.denominator != 1:
                rep.add(p, f"crop extent {dataset.crop_extent_m} m is not an integer number of pixels at {m.gsd_m} m/px")
            elif int(px) != m.image_size:
                rep.add(p, f"image_size {m.image_size} != crop pixels {int(px)}")

    grouped = [n for g in dataset.modality_groups for n in g]
    if sorted(grouped) != sorted(names):
        rep.add("dataset.modality_groups", "groups are not a partition of the modality names")

    if dataset.task == "segmentation":
        if dataset.reference_grid_resolution_m is None:
            rep.add("dataset.reference_grid_resolution_m", "required for segmentation")
        else:
            try:
                dataset.reference_grid_side()
            except ValueError as e:
                rep.add("dataset.reference_grid_resolution_m", str(e))

    if fusion is not None:
        if fusion.mode not in FUSION_MODES:
            rep.add("fusion.mode", f"unknown mode {fusion.mode!r}")
        if fusion.multispectral not in MULTISPECTRAL_FLAVORS:
            rep.add("fusion.multispectral", f"unknown flavor {fusion.multispectral!r}")
        if fusion.target_norm not in TARGET_NORMS:
            rep.add("fusion.target_norm", f"unknown normalization {fusion.target_norm!r}")
        if not (0.0 < fusion.mask_ratio < 1.0):
            rep.add("fusion.mask_ratio", "must lie in (0,1)")
        for axis in ("modality", "spatial", "temporal"):
            v = getattr(fusion.structured_probs, axis)
            if not (0.0 <= v <= 1.0):
                rep.add(f"fusion.structured_probs.{axis}", "must lie in [0,1]")

    if dims is not None:
        if dims.encoder_width <= 8:
            rep.add("dims.encoder_width", "must exceed 8 (temporal encodings occupy 8 dims)")
        if dims.decoder_width <= 8:
            rep.add("dims.decoder_width", "must exceed 8 (temporal encodings occupy 8 dims)")
        if dims.encoder_width % dims.heads != 0 or dims.decoder_width % dims.heads != 0:
            rep.add("dims.heads", "widths must be divisible by head count")
        if (dims.encoder_width - 8) % 4 != 0:
            rep.add("dims.encoder_width", "width-8 must be divisible by 4 for 2-D sin-cos encodings")
        if (dims.decoder_width - 8) % 4 != 0:
            rep.add("dims.decoder_width", "width-8 must be divisible by 4 for 2-D sin-cos encodings")
        if dims.encoder_depth < 1 or dims.decoder_depth < 1:
            rep.add("dims", "depths must be >= 1")
        if not (0 <= dims.fusion_blocks <= dims.encoder_depth):
            rep.add("dims.fusion_blocks", "must lie in [0, encoder_depth]")

    return rep


def token_counts(m: ModalitySpec, multispectral: str = "joint-token") -> dict[str, int]:
    """Positions, bins, and sequence length for one modality."""
    positions = m.grid_side ** 2
    bins = m.temporal_bins
    length = positions * bins
    if multispectral == "token-based":
        length *= len(m.band_groups)
    return {"positions": positions, "bins": bins, "sequence_length": length}


def sequence_length(m: ModalitySpec, multispectral: str = "joint-token") -> int:
    return token_counts(m, multispectral)["sequence_length"]


def lcm_token_grid(specs: list[ModalitySpec]) -> int:
    """Least common multiple of the active modalities' token-grid sides."""
    active = [m for m in specs if m.active]
    if not active:
        raise ValueError("no active modality")
    side = 1
    for m in active:
        side = math.lcm(side, m.grid_side)
    return side


# -- JSON (de)serialization ----------------------------------------------------

@functools.cache
def _field_types(cls: type) -> dict[str, tuple[object, type | None, bool, bool]]:
    """Field name -> (type hint, nested dataclass or None, is a list of it,
    required), resolved once per dataclass ``cls``."""
    out = {}
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        many = typing.get_origin(tp) is list
        item = typing.get_args(tp)[0] if many else tp
        out[f.name] = (tp, item if is_dataclass(item) else None, many,
                       f.default is MISSING and f.default_factory is MISSING)
    return out


# JSON value types a leaf hint accepts; bool is never taken for a number.
_LEAF_TYPES = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}


def _check_leaf(v: object, tp: object, at: str) -> None:
    """Raise ``ValueError`` naming ``at`` unless JSON value ``v`` fits hint ``tp``."""
    accepts = _LEAF_TYPES.get(tp)
    if accepts is not None:
        if not isinstance(v, accepts) or (isinstance(v, bool) and tp is not bool):
            raise ValueError(f"{at}: expected {tp.__name__}, got {type(v).__name__}")
        return
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        if not isinstance(v, list):
            raise ValueError(f"{at}: expected a list, got {type(v).__name__}")
        for i, x in enumerate(v):
            _check_leaf(x, args[0], f"{at}[{i}]")
    elif origin is dict:
        if not isinstance(v, dict):
            raise ValueError(f"{at}: expected an object, got {type(v).__name__}")
        for k, x in v.items():
            _check_leaf(x, args[1], f"{at}.{k}")
    elif origin is types.UnionType and v is not None:   # X | None
        _check_leaf(v, next(a for a in args if a is not type(None)), at)


def from_dict(cls: type, d: object, path: str):
    """Build dataclass ``cls`` from parsed JSON ``d``, field for field.

    Dataclass fields, and lists of dataclasses, load recursively; a missing
    field takes its default; every other value is checked against its type
    hint (an int passes for a float, a bool for neither, ``null`` for
    ``X | None``). A missing required field, an unknown key, a non-object
    value or a wrong-typed value raises ``ValueError`` naming the dotted
    ``path``.
    """
    where = path or "top level"
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object, got {type(d).__name__}")
    hints = _field_types(cls)
    unknown = d.keys() - hints.keys()
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for name, (tp, sub, many, required) in hints.items():
        if name not in d:
            if required:
                raise ValueError(f"{where}: missing required field {name!r}")
            continue
        v = d[name]
        at = f"{path}.{name}" if path else name
        if sub is None:
            _check_leaf(v, tp, at)
        elif not many:
            v = from_dict(sub, v, at)
        elif isinstance(v, list):
            v = [from_dict(sub, x, f"{at}[{i}]") for i, x in enumerate(v)]
        else:
            raise ValueError(f"{at}: expected a list, got {type(v).__name__}")
        kwargs[name] = v
    return cls(**kwargs)


@dataclass
class _Config:
    dataset: DatasetSpec
    fusion: FusionConfig = field(default_factory=FusionConfig)
    dims: ModelDims = field(default_factory=ModelDims)


def config_from_dict(d: dict) -> tuple[DatasetSpec, FusionConfig, ModelDims]:
    c = from_dict(_Config, d, "")
    return c.dataset, c.fusion, c.dims


def config_to_dict(dataset: DatasetSpec, fusion: FusionConfig, dims: ModelDims) -> dict:
    return asdict(_Config(dataset, fusion, dims))


def preset_names() -> list[str]:
    root = resources.files("eomae") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json") and not p.name.startswith("recipe_"))


def read_config_json(name: str, stems: list[str]) -> object | None:
    """Parsed JSON of ``name`` if it is an existing ``.json`` path, else of
    the first shipped ``presets/<stem>.json``; None if there is neither."""
    path = Path(name)
    if path.suffix != ".json" or not path.exists():
        root = resources.files("eomae") / "presets"
        path = next((r for r in (root / f"{s}.json" for s in stems) if r.is_file()), None)
        if path is None:
            return None
    return json.loads(path.read_text(encoding="utf-8"))


def load_preset(name: str) -> tuple[DatasetSpec, FusionConfig, ModelDims]:
    """Load a shipped preset by name, or any config by path."""
    d = read_config_json(name, [name])
    if d is None:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}")
    return config_from_dict(d)


def override_fusion(fusion: FusionConfig, mode: str | None = None,
                    multispectral: str | None = None, target_norm: str | None = None,
                    mask_ratio: float | None = None) -> FusionConfig:
    """A copy of ``fusion`` with every argument that is not None replaced."""
    changes = {"mode": mode, "multispectral": multispectral,
               "target_norm": target_norm, "mask_ratio": mask_ratio}
    return replace(fusion, **{k: v for k, v in changes.items() if v is not None})
