from __future__ import annotations

import numpy as np
import pytest

from eomae import specs
from eomae.costs import cost_for_phase, nint, pretrain_cost, transfer_cost


class TestRounding:
    def test_nearest_integer_ties_even(self):
        assert nint(56.25) == 56
        assert nint(112.5) == 112
        assert nint(113.5) == 114


class TestPretrainCost:
    def test_treesat_joint_token_headline(self, treesat):
        ds, fu, di = treesat
        report = pretrain_cost(ds, fu, di)
        assert abs(report.gmacs() - 14.3) < 0.05
        assert report.total_flops == 2 * report.total_macs

    def test_pastis_token_based(self, pastis):
        ds, fu, di = pastis
        fu.multispectral = "token-based"
        report = pretrain_cost(ds, fu, di)
        assert abs(report.gmacs() - 173.6) / 173.6 < 0.005

    def test_empty_model_errors(self, treesat):
        ds, fu, di = treesat
        for m in ds.modalities:
            m.temporal_bins = 0
        with pytest.raises(ValueError, match="empty model"):
            pretrain_cost(ds, fu, di)

    def test_term_breakdown_positive(self, treesat):
        ds, fu, di = treesat
        report = pretrain_cost(ds, fu, di)
        assert set(report.terms) == {"encoder", "decoder", "enc_to_dec",
                                     "patchify", "unpatchify"}
        assert all(v > 0 for v in report.terms.values())


class TestTransferCost:
    def test_treesat_joint_token(self, treesat):
        ds, fu, di = treesat
        report = transfer_cost(ds, fu, di)
        assert abs(report.gmacs() - 39.1) < 0.1
        assert "proj_cls" in report.terms

    def test_flair_hub_joint_token(self):
        ds, fu, di = specs.load_preset("flair_hub")
        report = transfer_cost(ds, fu, di)
        assert abs(report.gmacs() - 185.1) / 185.1 < 0.005
        assert "proj_seg" in report.terms

    def test_zero_classes_zero_projection(self, treesat):
        ds, fu, di = treesat
        ds.num_classes = 0
        report = transfer_cost(ds, fu, di)
        assert report.terms["proj_cls"] == 0.0

    def test_token_ratio_treesat(self, treesat):
        ds, fu, di = treesat
        fu.multispectral = "joint-token"
        jt = pretrain_cost(ds, fu, di).total_macs
        fu.multispectral = "token-based"
        tb = pretrain_cost(ds, fu, di).total_macs
        fu.multispectral = "joint-token"
        assert round(tb / jt, 1) == 2.4


def test_cost_for_phase_dispatch(treesat):
    ds, fu, di = treesat
    assert cost_for_phase(ds, fu, di, "pretrain").phase == "pretrain"
    assert cost_for_phase(ds, fu, di, "probe").phase == "transfer"
    with pytest.raises(ValueError):
        cost_for_phase(ds, fu, di, "nope")


def test_instrumentation_agreement_tiny_dims():
    """Counted multiplies of a desk-scale forward equal the analytic terms."""
    from eomae import autodiff as ad
    from eomae.autodiff import Tensor
    from eomae.backbone import block_macs
    from eomae.masking import layout_from, sample_mask_plan
    from eomae.router import build_parameters, build_routing, encode_visible
    ds, fu, di = specs.load_preset("synthetic_pretrain")
    plan = build_routing(ds, fu, di)
    params = build_parameters(ds, fu, di, seed=0)
    layout = layout_from(ds, fu)
    rng = np.random.default_rng(0)
    tokens = {ml.name: Tensor(rng.normal(size=(ml.tokens, di.encoder_width)))
              for ml in layout.modalities}
    mask_plan = sample_mask_plan(layout, fu, rng)
    ad.reset_macs()
    encode_visible(tokens, mask_plan, plan, params, di)
    expect = 0
    for seq in plan.sequences:
        n_vis = sum(int((~mask_plan.mask_for(s.modality)
                         [s.start:s.start + s.length]).sum()) for s in seq.slabs)
        expect += block_macs(n_vis, di.encoder_width) * di.encoder_depth
    assert ad.macs() == expect


def test_transfer_cost_matches_counted_task_logits(tmp_path):
    """One counted classification forward equals ``total_macs`` exactly."""
    from eomae import autodiff as ad
    from eomae.heads import build_head_params
    from eomae.pipeline import TileCache, assemble_tile, build_tables, task_logits
    from eomae.router import build_parameters, build_routing
    from eomae.synthetic import generate, load_recipe
    ds, fu, di = specs.load_preset("synthetic_temporal")
    recipe = load_recipe("temporal")
    recipe.num_tiles = 2
    manifest = generate(recipe, ds, tmp_path / "data")
    params = build_parameters(ds, fu, di, seed=0)
    params.update(build_head_params(ds.num_classes, di.encoder_width, 0))
    plan = build_routing(ds, fu, di)
    batch = assemble_tile(TileCache(manifest), manifest.split_ids("train")[0], ds, fu,
                          build_tables(ds, di), train=False, seed=0, epoch=0)
    ad.reset_macs()
    with ad.no_grad():
        task_logits(batch, ds, fu, di, plan, params, params)
    assert ad.macs() == transfer_cost(ds, fu, di).total_macs
