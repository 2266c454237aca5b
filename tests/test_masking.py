from __future__ import annotations

import numpy as np
import pytest

from eomae.masking import (adjust_to_ratio, empirical_axis_stats, layout_from,
                           nint_half_up, sample_mask_plan, structured_mask)
from eomae.specs import FusionConfig, StructuredProbs
from stats_helpers import chi2_critical, chi2_statistic


@pytest.fixture(scope="module")
def treesat_layout():
    from eomae import specs
    ds, fu, _ = specs.load_preset("treesatai_ts")
    return layout_from(ds, fu)


class TestNint:
    def test_half_rounds_up(self):
        assert nint_half_up(330.75) == 331
        assert nint_half_up(4.5) == 5
        assert nint_half_up(4.49) == 4


class TestStructured:
    def test_all_probs_zero_empty(self, treesat_layout, rng):
        masks = structured_mask(treesat_layout, StructuredProbs(0, 0, 0), rng)
        assert all(not m.any() for m in masks.values())

    def test_modality_prob_one_masks_everything(self, treesat_layout, rng):
        masks = structured_mask(treesat_layout, StructuredProbs(1, 0, 0), rng)
        assert all(m.all() for m in masks.values())

    def test_marginal_closed_form(self, treesat_layout):
        # per-token marginal is 1 - 0.75^3 under three independent 0.25 axes
        probs = StructuredProbs(0.25, 0.25, 0.25)
        total = np.zeros(treesat_layout.total_tokens)
        n = 4000
        for seed in range(n):
            masks = structured_mask(treesat_layout, probs,
                                    np.random.default_rng(seed))
            total += np.concatenate([masks[m.name] for m in treesat_layout.modalities])
        rate = total.mean() / n
        assert abs(rate - (1 - 0.75 ** 3)) < 0.01

    def test_structure_retention(self, treesat_layout):
        # a drawn modality has every one of its tokens masked before adjustment
        probs = StructuredProbs(0.5, 0.0, 0.0)
        seen_full = 0
        for seed in range(200):
            masks = structured_mask(treesat_layout, probs, np.random.default_rng(seed))
            for m in masks.values():
                if m.any():
                    assert m.all()
                    seen_full += 1
        assert seen_full > 0


class TestAdjust:
    def test_treesat_exact_count(self, treesat_layout):
        assert treesat_layout.total_tokens == 441
        fusion = FusionConfig()
        for seed in range(200):
            plan = sample_mask_plan(treesat_layout, fusion, np.random.default_rng(seed))
            assert plan.masked_count == 331
            assert sum(m.sum() for m in plan.masks.values()) == 331

    def test_already_exact_unchanged(self, treesat_layout, rng):
        masks = {m.name: np.zeros(m.tokens, dtype=bool) for m in treesat_layout.modalities}
        flat_targets = np.arange(331)
        cursor = 0
        for m in treesat_layout.modalities:
            take = flat_targets[(flat_targets >= cursor) & (flat_targets < cursor + m.tokens)]
            masks[m.name][take - cursor] = True
            cursor += m.tokens
        before = {k: v.copy() for k, v in masks.items()}
        plan = adjust_to_ratio(masks, treesat_layout, 0.75, rng)
        assert all(np.array_equal(plan.masks[k], before[k]) for k in before)

    def test_downward_adjustment(self, treesat_layout):
        from eomae.masking import ModalityLayout, TokenLayout
        layout = TokenLayout([ModalityLayout("m", 4, 1, 1)])
        masks = {"m": np.ones(4, dtype=bool)}
        plan = adjust_to_ratio(masks, layout, 0.75, np.random.default_rng(0))
        assert plan.masked_count == 3
        assert plan.masks["m"].sum() == 3

    def test_degenerate_errors(self):
        from eomae.masking import ModalityLayout, TokenLayout
        layout = TokenLayout([ModalityLayout("m", 2, 1, 1)])
        masks = {"m": np.zeros(2, dtype=bool)}
        with pytest.raises(ValueError, match="degenerate"):
            adjust_to_ratio(masks, layout, 0.95, np.random.default_rng(0))
        with pytest.raises(ValueError, match="degenerate"):
            adjust_to_ratio(masks, layout, 0.05, np.random.default_rng(0))

    def test_marginal_uniform_with_structure_disabled(self, treesat_layout):
        fusion = FusionConfig(structured_probs=StructuredProbs(0, 0, 0))
        n = 2000
        freq = np.zeros(treesat_layout.total_tokens)
        for seed in range(n):
            plan = sample_mask_plan(treesat_layout, fusion, np.random.default_rng(seed))
            freq += plan.concat_mask(treesat_layout.names())
        expected = np.full(441, n * 331 / 441)
        stat = chi2_statistic(freq, expected)
        assert stat < chi2_critical(440, 0.01)


def test_token_based_layout_grows(treesat_layout):
    from eomae import specs
    ds, fu, _ = specs.load_preset("treesatai_ts")
    fu.multispectral = "token-based"
    layout = layout_from(ds, fu)
    assert layout.total_tokens == 450 + 72 + 72 + 432


def test_empirical_stats_rows(treesat_layout):
    fusion = FusionConfig()
    rows = empirical_axis_stats(treesat_layout, fusion, seed=0, n_plans=20)
    overall = [r for r in rows if r["axis"] == "overall"][0]
    assert abs(overall["masked_frequency"] - 331 / 441) < 1e-9  # exact per plan
    assert any(r["axis"] == "position" for r in rows)
    assert any(r["axis"] == "bin" for r in rows)
