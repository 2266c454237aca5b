"""Deterministic-under-seed preprocessing for satellite time series.

Crop sampling, series truncation, temporal binning, per-bin time-step
selection with cloud masks, and synchronized dihedral (D4) augmentation.

All randomness flows through counter-based streams keyed by
``(seed, epoch, tile, purpose)`` so results are reproducible and independent
of iteration order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .specs import DatasetSpec, ModalitySpec


@dataclass
class TimeRecord:
    day_of_year: float   # 1..366 (0 accepted for synthetic epochs)
    hour_of_day: float   # [0, 24)
    absolute_day: int    # days since an arbitrary epoch


@dataclass
class RawSeries:
    """One modality's raw stack: data [T, C, H, W], times, optional cloud mask [T, H, W]."""

    data: np.ndarray
    times: list[TimeRecord]
    cloud_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.data.shape[0] != len(self.times):
            raise ValueError("time axis does not match acquisition_times")
        days = [t.absolute_day for t in self.times]
        if any(b < a for a, b in zip(days, days[1:])):
            raise ValueError("acquisition times must be nondecreasing")


@dataclass
class DiscretizedSeries:
    """Binned series: data [D, C, H, W] (already divided by norm_factor)."""

    data: np.ndarray
    selected_times: list[TimeRecord]
    bin_boundaries: list[tuple[int, int]]


def stream_rng(seed: int, epoch: int, tile: int, purpose: str) -> np.random.Generator:
    """Counter-based RNG stream; identical inputs give identical streams."""
    return np.random.default_rng([seed, epoch, tile, zlib.crc32(purpose.encode())])


def truncate_series(total_steps: int, bins: int, rng: np.random.Generator | None) -> tuple[int, int]:
    """Pick a contiguous range of length ``bins * (total_steps // bins)``.

    Uniformly random offset under a generator; centered (deterministic) when
    ``rng`` is None, which is the evaluation path.
    """
    if bins < 1:
        raise ValueError("bin count must be >= 1")
    if total_steps < bins:
        raise ValueError(f"series shorter than bin count ({total_steps} < {bins})")
    length = bins * (total_steps // bins)
    slack = total_steps - length
    if slack == 0:
        return 0, length
    if rng is None:
        return slack // 2, length
    return int(rng.integers(0, slack + 1)), length


def bin_series(range_length: int, bins: int) -> list[tuple[int, int]]:
    """Split ``range_length`` indices into ``bins`` equal contiguous ranges."""
    if bins < 1 or range_length % bins != 0:
        raise ValueError(f"{bins} bins do not divide range of length {range_length}")
    width = range_length // bins
    return [(i * width, (i + 1) * width) for i in range(bins)]


def _valid_steps(cloud_mask: np.ndarray | None, lo: int, hi: int, threshold: float) -> np.ndarray:
    """Indices in [lo, hi) whose mask stays at or below the threshold.

    Falls back to every step in the bin when none qualify.
    """
    idx = np.arange(lo, hi)
    if cloud_mask is None:
        return idx
    flat = cloud_mask[lo:hi].reshape(hi - lo, -1)
    ok = (flat <= threshold).all(axis=1)
    return idx[ok] if ok.any() else idx


def select_train(bin_range: tuple[int, int], cloud_mask: np.ndarray | None,
                 threshold: float, rng: np.random.Generator) -> int:
    lo, hi = bin_range
    if hi <= lo:
        raise ValueError("empty bin")
    candidates = _valid_steps(cloud_mask, lo, hi, threshold)
    return int(candidates[rng.integers(0, len(candidates))])


def select_eval(data: np.ndarray, bin_range: tuple[int, int],
                cloud_mask: np.ndarray | None, threshold: float) -> int:
    """Most representative step: minimal mean absolute deviation to the
    pixel-wise median over the bin's valid steps. Ties break to the lowest index."""
    lo, hi = bin_range
    if hi <= lo:
        raise ValueError("empty bin")
    candidates = _valid_steps(cloud_mask, lo, hi, threshold)
    stack = data[candidates]
    median = np.median(stack, axis=0)
    mads = np.abs(stack - median).reshape(len(candidates), -1).mean(axis=1)
    return int(candidates[int(np.argmin(mads))])


def discretize(series: RawSeries, spec: ModalitySpec, train: bool,
               rng: np.random.Generator | None) -> DiscretizedSeries:
    """Truncate, bin, and select one step per bin; divides by the norm factor."""
    bins = spec.temporal_bins
    start, length = truncate_series(series.data.shape[0], bins, rng if train else None)
    boundaries = [(start + lo, start + hi) for lo, hi in bin_series(length, bins)]
    chosen = []
    for b in boundaries:
        if train:
            chosen.append(select_train(b, series.cloud_mask, spec.cloud_mask.threshold, rng))
        else:
            chosen.append(select_eval(series.data, b, series.cloud_mask, spec.cloud_mask.threshold))
    data = series.data[chosen].astype(np.float64) / spec.norm_factor
    return DiscretizedSeries(
        data=data,
        selected_times=[series.times[i] for i in chosen],
        bin_boundaries=boundaries,
    )


@dataclass
class CropWindow:
    row: int
    col: int
    size: int  # pixels per axis

    def slices(self) -> tuple[slice, slice]:
        return slice(self.row, self.row + self.size), slice(self.col, self.col + self.size)


def _meter_step(specs: list[ModalitySpec]) -> Fraction:
    """Smallest metric offset aligning to integer pixels in every modality."""
    step = None
    for m in specs:
        g = m.gsd_fraction()
        step = g if step is None else Fraction(
            np.lcm(step.numerator, g.numerator), np.gcd(step.denominator, g.denominator)
        )
    return step


def sample_crop(dataset: DatasetSpec, train: bool, rng: np.random.Generator | None,
                repetition_index: int = 0) -> dict[str, CropWindow]:
    """One crop window per active modality, all covering the same footprint.

    Training draws a random window whose metric offset lands on integer pixel
    boundaries for every modality; evaluation walks the deterministic
    non-overlapping partition, indexed by ``repetition_index``.
    """
    specs = dataset.active_modalities()
    tile = Fraction(str(dataset.tile_extent_m))
    crop = Fraction(str(dataset.crop_extent_m))
    if train:
        if rng is None:
            raise ValueError("training crops need an rng")
        step = _meter_step(specs)
        span = tile - crop
        n = int(span / step) + 1
        r = step * int(rng.integers(0, n))
        c = step * int(rng.integers(0, n))
    else:
        per_side = int(tile / crop)
        k = repetition_index % (per_side * per_side)
        r = crop * (k // per_side)
        c = crop * (k % per_side)
    windows = {}
    for m in specs:
        g = m.gsd_fraction()
        row, col, size = r / g, c / g, crop / g
        if row.denominator != 1 or col.denominator != 1:
            raise ValueError(f"crop offset not pixel-aligned for modality {m.name}")
        windows[m.name] = CropWindow(int(row), int(col), int(size))
    return windows


def d4_transform(k: int, array: np.ndarray) -> np.ndarray:
    """Apply the k-th dihedral-group element to the last two (square) axes.

    k in 0..7: k % 4 quarter-turns, preceded by a horizontal flip if k >= 4.
    """
    if not 0 <= k <= 7:
        raise ValueError("k must be in 0..7")
    if array.shape[-1] != array.shape[-2]:
        raise ValueError("spatial dims must be square")
    out = array
    if k >= 4:
        out = np.flip(out, axis=-1)
    rot = k % 4
    if rot:
        out = np.rot90(out, rot, axes=(-2, -1))
    return np.ascontiguousarray(out)


def d4_inverse(k: int) -> int:
    """Index of the inverse group element."""
    probe = np.arange(9.0).reshape(3, 3)
    fwd = d4_transform(k, probe)
    for j in range(8):
        if np.array_equal(d4_transform(j, fwd), probe):
            return j
    raise AssertionError("unreachable: D4 is a group")
