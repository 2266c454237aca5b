from __future__ import annotations

import numpy as np
import pytest

from eomae import autodiff as ad
from eomae import specs
from eomae.masking import sample_mask_plan
from eomae.pipeline import (TileCache, assemble_tile, build_tables, embed_tokens,
                            full_visible_plan, pretrain_loss, task_logits)
from eomae.router import build_parameters, build_routing
from eomae.specs import sequence_length
from eomae.temporal import stream_rng


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    from eomae.synthetic import generate, load_recipe
    root = tmp_path_factory.mktemp("pipe_data")
    recipe = load_recipe("pretrain")
    recipe.num_tiles = 8
    dataset, fusion, dims = specs.load_preset("synthetic_pretrain")
    manifest = generate(recipe, dataset, root)
    cache = TileCache(manifest)
    tables = build_tables(dataset, dims)
    plan = build_routing(dataset, fusion, dims)
    params = build_parameters(dataset, fusion, dims, seed=0)
    return cache, dataset, fusion, dims, tables, plan, params


class TestAssemble:
    def test_token_counts_match_registry(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        batch = assemble_tile(cache, 0, ds, fu, tables, train=True, seed=0, epoch=0)
        tokens = embed_tokens(batch, ds, fu, params)
        for m in ds.active_modalities():
            assert tokens[m.name].shape == (sequence_length(m, fu.multispectral),
                                            di.encoder_width)

    def test_eval_assembly_seed_independent(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        a = assemble_tile(cache, 1, ds, fu, tables, train=False, seed=0, epoch=0)
        b = assemble_tile(cache, 1, ds, fu, tables, train=False, seed=99, epoch=5)
        for name in a.grids:
            assert np.array_equal(a.grids[name].data, b.grids[name].data)
            assert np.array_equal(a.token_encodings[name], b.token_encodings[name])

    def test_train_assembly_varies_with_epoch(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        a = assemble_tile(cache, 1, ds, fu, tables, train=True, seed=0, epoch=0)
        b = assemble_tile(cache, 1, ds, fu, tables, train=True, seed=0, epoch=1)
        differs = any(not np.array_equal(a.grids[n].data, b.grids[n].data)
                      for n in a.grids)
        assert differs

    def test_train_assembly_reproducible(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        a = assemble_tile(cache, 2, ds, fu, tables, train=True, seed=3, epoch=4)
        b = assemble_tile(cache, 2, ds, fu, tables, train=True, seed=3, epoch=4)
        for name in a.grids:
            assert np.array_equal(a.grids[name].data, b.grids[name].data)

    def test_encodings_have_expected_width(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        batch = assemble_tile(cache, 0, ds, fu, tables, train=False, seed=0, epoch=0)
        for m in ds.active_modalities():
            assert batch.token_encodings[m.name].shape[1] == di.encoder_width
            assert batch.decoder_encodings[m.name].shape[1] == di.decoder_width


class TestLossPaths:
    def test_pretrain_loss_finite_and_positive(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        batch = assemble_tile(cache, 0, ds, fu, tables, train=True, seed=0, epoch=0)
        mask = sample_mask_plan(batch.layout, fu, stream_rng(0, 0, 0, "mask"))
        loss = pretrain_loss(batch, ds, fu, di, plan, params, mask)
        assert np.isfinite(loss.data) and loss.data > 0

    def test_all_token_loss_covers_visible_units(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        batch = assemble_tile(cache, 0, ds, fu, tables, train=True, seed=0, epoch=0)
        mask = sample_mask_plan(batch.layout, fu, stream_rng(0, 0, 0, "mask"))
        masked = pretrain_loss(batch, ds, fu, di, plan, params, mask,
                               masked_only=True)
        literal = pretrain_loss(batch, ds, fu, di, plan, params, mask,
                                masked_only=False)
        assert not np.isclose(masked.data, literal.data)

    @pytest.mark.parametrize("flavor", specs.MULTISPECTRAL_FLAVORS)
    @pytest.mark.parametrize("mode", ["shared", "mod", "group", "inter-group"])
    def test_every_route_produces_a_loss(self, setup, mode, flavor):
        cache, ds, _, di, tables, _, _ = setup
        _, fu, _ = specs.load_preset("synthetic_pretrain")
        fu.mode, fu.multispectral = mode, flavor
        plan = build_routing(ds, fu, di)
        params = build_parameters(ds, fu, di, seed=1)
        tables2 = build_tables(ds, di)
        batch = assemble_tile(cache, 3, ds, fu, tables2, train=True, seed=1, epoch=0)
        mask = sample_mask_plan(batch.layout, fu, stream_rng(1, 0, 3, "mask"))
        loss = pretrain_loss(batch, ds, fu, di, plan, params, mask)
        assert np.isfinite(loss.data)

    def test_gradients_reach_every_parameter_family(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        for p in params.values():
            p.zero_grad()
        batch = assemble_tile(cache, 0, ds, fu, tables, train=True, seed=0, epoch=0)
        mask = sample_mask_plan(batch.layout, fu, stream_rng(0, 0, 0, "mask"))
        loss = pretrain_loss(batch, ds, fu, di, plan, params, mask)
        loss.backward()
        families = {"enc/", "dec/", "tok/"}
        touched = {fam for fam in families
                   for name, p in params.items()
                   if name.startswith(fam) and p.grad is not None
                   and np.abs(p.grad).sum() > 0}
        assert touched == families


class TestTaskForward:
    def test_classification_logits_shape(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        batch = assemble_tile(cache, 0, ds, fu, tables, train=False, seed=0, epoch=0)
        from eomae.heads import build_head_params
        head = build_head_params(ds.num_classes, di.encoder_width, seed=0)
        with ad.no_grad():
            logits = task_logits(batch, ds, fu, di, plan, params, head)
        assert logits.shape == (ds.num_classes,)

    def test_segmentation_logits_shape(self, setup, tmp_path):
        from eomae.synthetic import generate, load_recipe
        ds, fu, di = specs.load_preset("synthetic_pretrain")
        ds.task = "segmentation"
        recipe = load_recipe("pretrain")
        recipe.num_tiles = 2
        manifest = generate(recipe, ds, tmp_path)
        cache = TileCache(manifest)
        tables = build_tables(ds, di)
        plan = build_routing(ds, fu, di)
        params = build_parameters(ds, fu, di, seed=0)
        from eomae.heads import build_head_params
        head = build_head_params(ds.num_classes, di.encoder_width, seed=0)
        batch = assemble_tile(cache, 0, ds, fu, tables, train=False, seed=0, epoch=0)
        with ad.no_grad():
            logits = task_logits(batch, ds, fu, di, plan, params, head)
        side = batch.label_grid.shape[0]
        assert logits.shape == (side * side, ds.num_classes)

    def test_full_visible_plan_masks_nothing(self, setup):
        cache, ds, fu, di, tables, plan, params = setup
        batch = assemble_tile(cache, 0, ds, fu, tables, train=False, seed=0, epoch=0)
        plan_mask = full_visible_plan(batch.layout)
        assert plan_mask.masked_count == 0
        assert all(not m.any() for m in plan_mask.masks.values())
