"""Float32 compute: a graph built from float32 parameters is float32 in every
node and every gradient, and gradients handed over without a copy never
share memory."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from eomae import autodiff as ad
from eomae import specs
from eomae.autodiff import Tensor
from eomae.backbone import init_block_params, transformer_block
from eomae.heads import build_head_params
from eomae.masking import sample_mask_plan
from eomae.pipeline import (TileCache, assemble_tile, build_tables, pretrain_loss,
                            task_logits)
from eomae.router import build_parameters, build_routing
from eomae.synthetic import generate, load_recipe
from eomae.temporal import stream_rng


def _float32(params: dict[str, Tensor]) -> dict[str, Tensor]:
    for p in params.values():
        p.data = p.data.astype(np.float32)
    return params


@pytest.fixture()
def node_dtypes(monkeypatch):
    """Dtypes of every node ``Tensor._make`` builds while the test runs."""
    seen: list[np.dtype] = []
    make = Tensor._make

    def recording(data, parents, backward):
        out = make(data, parents, backward)
        seen.append(out.data.dtype)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
    return seen


@pytest.mark.parametrize("preset, recipe, overrides, loss", [
    ("synthetic_pretrain", "pretrain", {}, "pretrain"),
    ("synthetic_temporal", "temporal", {"mode": "shared"}, "task"),
    ("synthetic_bands", "bands", {"multispectral": "token-based"}, "pretrain"),
], ids=["pretrain", "temporal_shared_task", "bands_token_based"])
def test_float32_graph_stays_float32(preset, recipe, overrides, loss, tmp_path, node_dtypes):
    dataset, fusion, dims = specs.load_preset(preset)
    fusion = specs.override_fusion(fusion, **overrides)
    r = load_recipe(recipe)
    r.num_tiles = 4
    manifest = generate(r, dataset, tmp_path)
    tid = manifest.split_ids("train")[0]
    batch = assemble_tile(TileCache(manifest), tid, dataset, fusion,
                          build_tables(dataset, dims), train=True, seed=7, epoch=0)
    plan = build_routing(dataset, fusion, dims)
    params = build_parameters(dataset, fusion, dims, 7)
    params.update(build_head_params(dataset.num_classes, dims.encoder_width, 7))
    _float32(params)
    node_dtypes.clear()
    if loss == "pretrain":
        mask_plan = sample_mask_plan(batch.layout, fusion, stream_rng(7, 0, tid, "mask/0"))
        out = pretrain_loss(batch, dataset, fusion, dims, plan, params, mask_plan)
    else:
        z = task_logits(batch, dataset, fusion, dims, plan, params, params)
        target = np.zeros((1, dataset.num_classes))
        target[0, manifest.tile(tid).label_classes] = 1.0
        out = ad.bce_with_logits(z.reshape(1, -1), target)
    (out * (1.0 / 8)).backward()
    assert node_dtypes and set(node_dtypes) == {np.dtype(np.float32)}
    grads = [p.grad for p in params.values() if p.grad is not None]
    assert grads and all(g.dtype == np.float32 for g in grads)


def test_leaf_gradients_share_no_memory_after_a_block_backward(rng):
    width, length = 16, 5
    block = {k: Tensor(v.astype(np.float32), requires_grad=True)
             for k, v in init_block_params(rng, width, std=0.3).items()}
    x = Tensor(rng.normal(size=(length, width)).astype(np.float32), requires_grad=True)
    c = Tensor(rng.normal(size=(length, width)).astype(np.float32))
    (transformer_block(x, block, heads=4) * c).sum().backward()
    grads = {"x": x.grad, **{k: p.grad for k, p in block.items()}}
    assert all(g is not None and g.dtype == np.float32 for g in grads.values())
    for (a, ga), (b, gb) in itertools.combinations(grads.items(), 2):
        assert not np.shares_memory(ga, gb), (a, b)
