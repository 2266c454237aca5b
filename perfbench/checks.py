"""Output checks of the benchmark and the analytic counts they compare against.

Every check returns a list of failure messages (empty when it passes), so a
run can report all of its failures at once. The analytic multiply counts are
written out here from the block formula ``12*L*C^2 + 2*L^2*C`` rather than
taken from ``eomae.backbone`` or ``eomae.costs``, so that a fault in the
program's own accounting cannot hide a fault in its arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of the directional-derivative check, the step of its
# fourth-order central difference, and the number of seeded Rademacher
# (+-1 per coordinate) directions it picks from; see the benchmark's README
# for the error budget. A gradient that is off by 1% fails by a factor of 5.
GRAD_REL_TOL = 2e-3
GRAD_STEP = 1e-3
GRAD_DIRECTIONS = 8


def block_macs(length: int, width: int) -> int:
    """Multiplies of one pre-norm transformer block over ``length`` tokens."""
    return 12 * length * width * width + 2 * length * length * width


def visible_lengths(mask_plan, plan) -> list[int]:
    """Visible tokens of every encoder sequence of a routing plan."""
    lengths = []
    for seq in plan.sequences:
        n = 0
        for slab in seq.slabs:
            mask = mask_plan.masks[slab.modality][slab.start: slab.start + slab.length]
            n += int(np.count_nonzero(~mask))
        lengths.append(n)
    return lengths


def encoder_macs(mask_plan, plan, dims) -> int:
    """Encoder multiplies for one tile: each non-empty visible sequence runs
    the blocks before the fusion boundary, and the concatenation of all of
    them runs the fusion blocks."""
    lengths = visible_lengths(mask_plan, plan)
    width = dims.encoder_width
    own_depth = plan.fusion_boundary if plan.fusion_boundary is not None else dims.encoder_depth
    total = sum(block_macs(n, width) * own_depth for n in lengths if n > 0)
    if plan.fusion_boundary is not None:
        total += block_macs(sum(lengths), width) * (dims.encoder_depth - plan.fusion_boundary)
    return total


def decoder_macs(mask_plan, plan, dims) -> int:
    """Decoder multiplies for one tile: full-length sequences, plus the dense
    encoder-to-decoder projection of every visible token."""
    blocks = sum(block_macs(seq.length, dims.decoder_width) * dims.decoder_depth
                 for seq in plan.sequences)
    visible = sum(visible_lengths(mask_plan, plan))
    return blocks + visible * dims.encoder_width * dims.decoder_width


def losses_fall(label: str, losses: list[float]) -> list[str]:
    """Every epoch loss is finite and the last is below the first."""
    if len(losses) < 2:
        return [f"{label}: need two epochs of losses, got {len(losses)}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"{label}: non-finite loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"{label}: loss did not fall ({losses[0]:.6g} -> {losses[-1]:.6g})"]
    return []


def losses_finite(label: str, losses: list[float]) -> list[str]:
    if not losses or not all(math.isfinite(x) for x in losses):
        return [f"{label}: missing or non-finite loss in {losses}"]
    return []


def backbone_unchanged(label: str, before: str, after: str) -> list[str]:
    """A probe leaves every non-head parameter of its start checkpoint as it was."""
    if before != after:
        return [f"{label}: backbone checksum changed ({before[:12]} -> {after[:12]})"]
    return []


def head_trained(label: str, start: dict, trained: dict) -> list[str]:
    """A probe moves every head tensor away from the value it started from;
    ``start`` and ``trained`` map the ``head/`` names to arrays."""
    still = sorted(k for k in start if np.array_equal(start[k], trained[k]))
    if still:
        return [f"{label}: head tensors left at their start values: {', '.join(still)}"]
    return []


def macs_equal(label: str, counted: int, expected: int) -> list[str]:
    if counted != expected:
        return [f"{label}: counted {counted} MACs, analytic {expected}"]
    return []


def gradient_agrees(label: str, analytic: float, numeric: float) -> list[str]:
    """Directional derivative from backward against a central difference."""
    denom = max(abs(analytic), abs(numeric))
    if not (math.isfinite(analytic) and math.isfinite(numeric)) or denom == 0.0:
        return [f"{label}: degenerate directional derivative ({analytic}, {numeric})"]
    rel = abs(analytic - numeric) / denom
    if not rel <= GRAD_REL_TOL:
        return [f"{label}: analytic {analytic:.8g} vs central difference "
                f"{numeric:.8g} (relative error {rel:.2e} > {GRAD_REL_TOL:.0e})"]
    return []


def directional_derivative(loss_fn, params: dict, seed: int) -> tuple[float, float]:
    """Return (g . d, central difference along d) for a Rademacher direction d.

    Of ``GRAD_DIRECTIONS`` seeded directions, d is the one with the largest
    ``|g . d|``, so that rounding in the loss is small beside the derivative.
    The difference is the five-point stencil
    ``(8 (L(h) - L(-h)) - (L(2h) - L(-2h))) / 12h``, whose truncation error
    falls as h^4. ``loss_fn()`` builds a scalar autodiff loss from
    ``params``; the parameter arrays are restored before returning.
    """
    from eomae import autodiff as ad

    for p in params.values():
        p.zero_grad()
    loss_fn().backward()
    rng = np.random.default_rng([seed, 0xD1F])
    names = sorted(params)
    analytic, direction = 0.0, None
    for _ in range(GRAD_DIRECTIONS):
        candidate = {k: (2 * rng.integers(0, 2, size=params[k].data.shape, dtype=np.int8) - 1)
                     for k in names}
        slope = sum(float((params[k].grad * candidate[k]).sum())
                    for k in names if params[k].grad is not None)
        if direction is None or abs(slope) > abs(analytic):
            analytic, direction = slope, candidate
    original = {k: params[k].data for k in names}
    loss = {}
    try:
        for t in (1.0, -1.0, 2.0, -2.0):
            for k in names:
                params[k].data = original[k] + t * GRAD_STEP * direction[k]
            with ad.no_grad():
                loss[t] = float(loss_fn().data)
    finally:
        for k in names:
            params[k].data = original[k]
    numeric = (8.0 * (loss[1.0] - loss[-1.0]) - (loss[2.0] - loss[-2.0])) / (12.0 * GRAD_STEP)
    return analytic, numeric
