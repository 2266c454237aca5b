"""On-disk tile format and dataset manifest.

Tensor files: magic ``MTRO``, version u16 LE, dtype code u8 (0 = float32,
1 = uint16), ndim u8, dims u32 LE each, then the row-major little-endian
payload. Acquisition times live in a sibling JSON list of
``[absolute_day, day_of_year, hour_of_day]`` triples. ``manifest.json``
carries the dataset spec plus the tile index, field for field; a malformed
one raises ``TileError``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .specs import DatasetSpec, from_dict
from .temporal import RawSeries, TimeRecord

TILE_MAGIC = b"MTRO"
TILE_VERSION = 1
_DTYPES = {0: "<f4", 1: "<u2"}
_CODES = {"float32": 0, "uint16": 1}


class TileError(Exception):
    """Base for tile I/O failures."""


class TileMagicError(TileError):
    pass


class TileTruncatedError(TileError):
    pass


class TileShapeError(TileError):
    pass


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    if array.dtype == np.uint16:
        code, dtype = 1, "<u2"
    else:
        code, dtype = 0, "<f4"
    data = np.ascontiguousarray(array, dtype=dtype)
    with open(path, "wb") as f:
        f.write(TILE_MAGIC)
        f.write(struct.pack("<HBB", TILE_VERSION, code, data.ndim))
        for dim in data.shape:
            f.write(struct.pack("<I", dim))
        f.write(data.tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != TILE_MAGIC:
            raise TileMagicError(f"{path}: bad magic {magic!r}")
        header = f.read(4)
        if len(header) != 4:
            raise TileTruncatedError(f"{path}: truncated header")
        version, code, ndim = struct.unpack("<HBB", header)
        if version != TILE_VERSION:
            raise TileError(f"{path}: unsupported version {version}")
        if code not in _DTYPES:
            raise TileError(f"{path}: unknown dtype code {code}")
        dims = []
        for _ in range(ndim):
            raw = f.read(4)
            if len(raw) != 4:
                raise TileTruncatedError(f"{path}: truncated dims")
            dims.append(struct.unpack("<I", raw)[0])
        dtype = np.dtype(_DTYPES[code])
        n = int(np.prod(dims)) if dims else 1
        payload = f.read(n * dtype.itemsize)
        if len(payload) != n * dtype.itemsize:
            raise TileTruncatedError(f"{path}: truncated payload")
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


@dataclass
class TileEntry:
    tile_id: int
    split: str
    files: dict[str, dict[str, str]]           # modality -> {data, times[, cloud]}
    label_classes: list[int] | None = None     # classification
    label_file: str | None = None              # segmentation

    def to_dict(self) -> dict:
        d = {"tile_id": self.tile_id, "split": self.split, "files": self.files}
        if self.label_classes is not None:
            d["label_classes"] = self.label_classes
        if self.label_file is not None:
            d["label_file"] = self.label_file
        return d


@dataclass
class Manifest:
    root: Path
    dataset: DatasetSpec
    tiles: list[TileEntry] = field(default_factory=list)

    def tile(self, tile_id: int) -> TileEntry:
        for t in self.tiles:
            if t.tile_id == tile_id:
                return t
        raise KeyError(f"no tile {tile_id}")

    def split_ids(self, split: str) -> list[int]:
        return [t.tile_id for t in self.tiles if t.split == split]

    def save(self) -> Path:
        path = self.root / "manifest.json"
        payload = {
            "dataset": asdict(self.dataset),
            "tiles": [t.to_dict() for t in self.tiles],
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
        return path


@dataclass
class _ManifestFile:
    dataset: DatasetSpec
    tiles: list[TileEntry]


def load_manifest(root: str | Path) -> Manifest:
    root = Path(root)
    path = root / "manifest.json"
    if not path.exists():
        raise TileError(f"no manifest at {path}")
    try:
        loaded = from_dict(_ManifestFile, json.loads(path.read_text(encoding="utf-8")), "")
    except ValueError as e:     # includes malformed JSON
        raise TileError(f"{path}: {e}") from None
    return Manifest(root=root, dataset=loaded.dataset, tiles=loaded.tiles)


def write_tile_modality(root: Path, tile_id: int, modality: str, data: np.ndarray,
                        times: list[TimeRecord], cloud: np.ndarray | None) -> dict[str, str]:
    stem = f"tiles/tile_{tile_id:05d}_{modality}"
    (root / "tiles").mkdir(parents=True, exist_ok=True)
    files = {"data": f"{stem}.bin", "times": f"{stem}_times.json"}
    write_tensor(root / files["data"], data.astype(np.float32))
    (root / files["times"]).write_text(
        json.dumps([[t.absolute_day, t.day_of_year, t.hour_of_day] for t in times]),
        encoding="utf-8")
    if cloud is not None:
        files["cloud"] = f"{stem}_cloud.bin"
        write_tensor(root / files["cloud"], cloud.astype(np.float32))
    return files


def read_tile(manifest: Manifest, tile_id: int, modality: str) -> RawSeries:
    """Load one modality stack, validating shapes against the dataset spec."""
    entry = manifest.tile(tile_id)
    if modality not in entry.files:
        raise KeyError(f"tile {tile_id} has no modality {modality!r}")
    spec = manifest.dataset.modality(modality)
    files = entry.files[modality]
    data = read_tensor(manifest.root / files["data"]).astype(np.float64)
    raw = json.loads((manifest.root / files["times"]).read_text(encoding="utf-8"))
    times = [TimeRecord(day_of_year=r[1], hour_of_day=r[2], absolute_day=int(r[0])) for r in raw]
    if data.ndim != 4:
        raise TileShapeError(f"tile {tile_id}/{modality}: expected 4-d stack, got {data.ndim}-d")
    t, c, h, w = data.shape
    if c != spec.channels or h != spec.image_size or w != spec.image_size:
        raise TileShapeError(
            f"tile {tile_id}/{modality}: shape {data.shape} does not match spec "
            f"(C={spec.channels}, I={spec.image_size})")
    if t != len(times):
        raise TileShapeError(f"tile {tile_id}/{modality}: {t} steps vs {len(times)} times")
    cloud = None
    if "cloud" in files:
        cloud = read_tensor(manifest.root / files["cloud"]).astype(np.float64)
        if cloud.shape != (t, h, w):
            raise TileShapeError(f"tile {tile_id}/{modality}: cloud mask shape {cloud.shape}")
    return RawSeries(data=data, times=times, cloud_mask=cloud)


def read_label_grid(manifest: Manifest, tile_id: int) -> np.ndarray:
    entry = manifest.tile(tile_id)
    if entry.label_file is None:
        raise TileError(f"tile {tile_id} has no segmentation labels")
    return read_tensor(manifest.root / entry.label_file)
