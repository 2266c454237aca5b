"""Tests of the benchmark's own checks: each must pass on good outputs and
fail on a deliberately broken one.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from eomae import autodiff as ad  # noqa: E402
from eomae.autodiff import Tensor  # noqa: E402
from eomae.backbone import save_checkpoint  # noqa: E402
from eomae.heads import build_head_params  # noqa: E402
from eomae.masking import layout_from, sample_mask_plan  # noqa: E402
from eomae.router import (build_parameters, build_routing, decode_with_masks,  # noqa: E402
                          encode_visible)
from eomae.specs import load_preset  # noqa: E402


@pytest.fixture(scope="module")
def desk():
    dataset, fusion, dims = load_preset("synthetic_pretrain")
    params = build_parameters(dataset, fusion, dims, seed=0)
    params.update(build_head_params(dataset.num_classes, dims.encoder_width, seed=0))
    return dataset, fusion, dims, params


def test_probe_checksum_catches_one_changed_backbone_tensor(desk, tmp_path):
    *_, params = desk
    start = tmp_path / "start.mstr"
    save_checkpoint(start, params)
    arrays = {k: p.data.copy() for k, p in params.items()}

    arrays["head/out_b"] += 1.0
    head_only = tmp_path / "head_only.mstr"
    save_checkpoint(head_only, arrays)
    assert checks.backbone_unchanged("probe", measure._checksum(str(start)),
                                     measure._checksum(str(head_only))) == []

    arrays["enc/0/blk1/wv"][3, 5] += 1e-3
    changed = tmp_path / "changed.mstr"
    save_checkpoint(changed, arrays)
    assert checks.backbone_unchanged("probe", measure._checksum(str(start)),
                                     measure._checksum(str(changed)))


def test_head_check_catches_a_probe_that_left_its_head_alone(desk):
    dataset, _, dims, _ = desk
    start = {k: t.data for k, t in build_head_params(dataset.num_classes,
                                                     dims.encoder_width, seed=2).items()}
    trained = {k: v + 1e-3 for k, v in start.items()}
    assert checks.head_trained("probe", start, trained) == []
    trained["head/out_w"] = start["head/out_w"].copy()
    assert checks.head_trained("probe", start, trained)


def _counted(fn, *args):
    ad.reset_macs()
    with ad.no_grad():
        fn(*args)
    return ad.macs()


@pytest.mark.parametrize("mode", ["group", "shared", "inter-group"])
def test_analytic_macs_match_counted_and_catch_off_by_one(mode):
    dataset, fusion, dims = load_preset("synthetic_pretrain")
    fusion.mode = mode
    params = build_parameters(dataset, fusion, dims, seed=1)
    plan = build_routing(dataset, fusion, dims)
    layout = layout_from(dataset, fusion)
    rng = np.random.default_rng(4)
    tokens = {m.name: Tensor(rng.normal(size=(m.tokens, dims.encoder_width)))
              for m in layout.modalities}
    dec_enc = {m.name: np.zeros((m.tokens, dims.decoder_width)) for m in layout.modalities}
    for _ in range(3):
        mask_plan = sample_mask_plan(layout, fusion, rng)
        enc_counted = _counted(encode_visible, tokens, mask_plan, plan, params, dims)
        expected = checks.encoder_macs(mask_plan, plan, dims)
        assert checks.macs_equal("encode", enc_counted, expected) == []
        assert checks.macs_equal("encode", enc_counted + 1, expected)
        with ad.no_grad():
            encoded = encode_visible(tokens, mask_plan, plan, params, dims)
        dec_counted = _counted(decode_with_masks, encoded, mask_plan, plan, params, dims,
                               dec_enc)
        assert checks.macs_equal("decode", dec_counted,
                                 checks.decoder_macs(mask_plan, plan, dims)) == []


def test_loss_series_must_fall_and_stay_finite():
    assert checks.losses_fall("pretrain", [4.7, 3.4]) == []
    assert checks.losses_fall("pretrain", [4.7, 4.7])
    assert checks.losses_fall("pretrain", [3.4, 4.7])
    assert checks.losses_fall("pretrain", [float("nan"), 1.0])
    assert checks.losses_fall("pretrain", [1.0])
    assert checks.losses_finite("probe", [0.7, 0.8]) == []
    assert checks.losses_finite("probe", [0.7, float("inf")])


def test_directional_derivative_catches_a_gradient_scaled_by_1_01(desk):
    dataset, fusion, dims, params = desk
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(6, dims.encoder_width)))
    names = ["enc/0/blk0/wq", "enc/0/blk0/w1", "head/value_w", "head/out_w"]
    sub = {k: Tensor(params[k].data.copy(), requires_grad=True) for k in names}

    def loss():
        h = ad.gelu(x @ sub["enc/0/blk0/wq"]) @ sub["enc/0/blk0/w1"]
        z = (h[:, :dims.encoder_width] @ sub["head/value_w"]) @ sub["head/out_w"]
        return ad.bce_with_logits(z, np.ones(z.shape))

    analytic, numeric = checks.directional_derivative(loss, sub, seed=3)
    assert checks.gradient_agrees("loss", analytic, numeric) == []
    assert checks.gradient_agrees("loss", 1.01 * analytic, numeric)


def test_spans_split_self_time_and_count_macs():
    rec = spans.Recorder(ad.macs)

    def inner():
        time.sleep(0.02)
        return Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 4)))

    def outer():
        time.sleep(0.02)
        return rec.wrap("inner", inner)()

    rec.op = "pretrain"
    rec.wrap("outer", outer)()
    calls, self_s, incl_s, macs = rec.spans[("pretrain", "train", "outer")]
    inner_incl = rec.spans[("pretrain", "train", "inner")][2]
    assert calls == 1 and macs == 24
    assert self_s == pytest.approx(incl_s - inner_incl)
    assert 0.015 < self_s < incl_s


def test_epoch_windows_and_fast_quartile():
    # The optimizer is built at 0.5; 10 tiles per epoch at batch 4 take
    # steps of 4, 4 and 2 tiles.
    stamps = [0.5, 1.0, 2.0, 2.5, 4.0, 5.0, 6.0]
    assert measure.epoch_rates(stamps, 10, 4, 2) == [
        pytest.approx(10 / 2.0), pytest.approx(10 / 3.5)]
    with pytest.raises(ValueError):
        measure.epoch_rates(stamps[:-1], 10, 4, 2)
    assert measure.fast_quartile([5.0, 1.0, 3.0, 2.0, 4.0], higher=True) == 4.0
    assert measure.fast_quartile([5.0, 1.0, 3.0, 2.0, 4.0], higher=False) == 2.0
