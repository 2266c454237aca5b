from __future__ import annotations

import json
import math
import re
from dataclasses import asdict

import pytest

from eomae import specs
from eomae.specs import (DatasetSpec, FusionConfig, ModalitySpec, ModelDims,
                         lcm_token_grid, load_preset, sequence_length,
                         token_counts, validate)
from eomae.synthetic import SyntheticRecipe, load_recipe


def _modality(**kw) -> ModalitySpec:
    base = dict(name="m", gsd_m=1.0, image_size=8, patch_size=2, temporal_bins=1,
                channels=2, band_groups=[[0], [1]])
    base.update(kw)
    return ModalitySpec(**base)


def _dataset(mods, groups=None, **kw) -> DatasetSpec:
    base = dict(name="d", tile_extent_m=8.0, crop_extent_m=8.0, modalities=mods,
                modality_groups=groups or [[m.name] for m in mods])
    base.update(kw)
    return DatasetSpec(**base)


class TestValidate:
    def test_treesat_preset_passes(self, treesat):
        ds, fu, di = treesat
        assert validate(ds, fu, di).ok

    def test_all_presets_pass(self):
        for name in specs.preset_names():
            ds, fu, di = load_preset(name)
            report = validate(ds, fu, di)
            assert report.ok, f"{name}: {[str(i) for i in report.issues]}"

    def test_patch_not_dividing_image_fails(self):
        ds = _dataset([_modality(image_size=300, patch_size=7, gsd_m=8 / 300)])
        report = validate(ds)
        assert any("patch does not divide image" in str(i) for i in report.issues)

    def test_band_groups_not_covering(self):
        ds = _dataset([_modality(channels=4, band_groups=[[0], [1, 2]])])
        report = validate(ds)
        assert any("partition not covering" in str(i) for i in report.issues)

    def test_band_groups_not_disjoint(self):
        ds = _dataset([_modality(channels=2, band_groups=[[0, 1], [1]])])
        report = validate(ds)
        assert not report.ok

    def test_crop_pixel_alignment(self):
        ds = _dataset([_modality(gsd_m=3.0)])  # 8 m / 3 m not an integer
        assert not validate(ds).ok

    def test_mask_ratio_bounds(self):
        ds = _dataset([_modality()])
        fu = FusionConfig(mask_ratio=1.0)
        assert not validate(ds, fu).ok

    def test_narrow_encoder_rejected(self):
        ds = _dataset([_modality()])
        di = ModelDims(encoder_width=8, decoder_width=16, heads=2)
        report = validate(ds, None, di)
        assert any("encoder_width" in str(i) for i in report.issues)

    def test_raise_if_failed(self):
        ds = _dataset([_modality(image_size=300, patch_size=7, gsd_m=8 / 300)])
        with pytest.raises(ValueError):
            validate(ds).raise_if_failed()


class TestTokenCounts:
    def test_treesat_aerial(self, treesat):
        ds, _, _ = treesat
        counts = token_counts(ds.modality("aerial"), "joint-token")
        assert counts == {"positions": 225, "bins": 1, "sequence_length": 225}

    def test_treesat_s2_token_based(self, treesat):
        ds, _, _ = treesat
        assert sequence_length(ds.modality("s2"), "token-based") == 9 * 16 * 3

    def test_excluded_modality(self):
        m = _modality(temporal_bins=0)
        assert sequence_length(m) == 0

    def test_monotone_in_bins_and_groups(self):
        for d in range(1, 6):
            m1 = _modality(temporal_bins=d)
            m2 = _modality(temporal_bins=d + 1)
            assert sequence_length(m2) > sequence_length(m1)
        m_two = _modality(channels=4, band_groups=[[0, 1], [2, 3]])
        m_four = _modality(channels=4, band_groups=[[0], [1], [2], [3]])
        assert (sequence_length(m_four, "token-based")
                > sequence_length(m_two, "token-based"))


class TestLcmGrid:
    def test_treesat_grids(self, treesat):
        ds, _, _ = treesat
        # oracle: iterated Euclidean lcm over the raw grid sides
        sides = [m.grid_side for m in ds.modalities]
        expect = 1
        for s in sides:
            expect = expect * s // math.gcd(expect, s)
        assert sides.count(3) == 3 and 15 in sides
        assert lcm_token_grid(ds.modalities) == expect == 15

    def test_equal_grids(self):
        mods = [_modality(name="a", image_size=16, patch_size=2, gsd_m=0.5),
                _modality(name="b", image_size=16, patch_size=2, gsd_m=0.5)]
        assert lcm_token_grid(mods) == 8

    def test_coprime_like_grids(self):
        mods = [_modality(name="a", image_size=20, patch_size=2, gsd_m=0.4),
                _modality(name="b", image_size=16, patch_size=2, gsd_m=0.5)]
        assert lcm_token_grid(mods) == 40

    def test_no_active_modality(self):
        with pytest.raises(ValueError):
            lcm_token_grid([_modality(temporal_bins=0)])


class TestRepetitionFactor:
    def test_pastis(self, pastis):
        ds, _, _ = pastis
        assert ds.repetition_factor == 64

    def test_full_tile(self, treesat):
        ds, _, _ = treesat
        assert ds.repetition_factor == 1


@pytest.mark.parametrize("name", specs.preset_names())
def test_config_roundtrip(name):
    ds, fu, di = load_preset(name)
    d = specs.config_to_dict(ds, fu, di)
    ds2, fu2, di2 = specs.config_from_dict(json.loads(json.dumps(d)))
    assert ds2 == ds and fu2 == fu and di2 == di


@pytest.mark.parametrize("name", ["pretrain", "temporal", "bands"])
def test_recipe_roundtrip(name):
    recipe = load_recipe(name)
    d = json.loads(json.dumps(asdict(recipe)))
    assert specs.from_dict(SyntheticRecipe, d, "recipe") == recipe


def _preset_dict() -> dict:
    ds, fu, di = load_preset("synthetic_pretrain")
    return json.loads(json.dumps(specs.config_to_dict(ds, fu, di)))


@pytest.mark.parametrize("at, message", [
    (lambda d: d["dataset"], "dataset: unknown field(s) ['typo']"),
    (lambda d: d["dataset"]["modalities"][1], "dataset.modalities[1]: unknown field(s) ['typo']"),
    (lambda d: d["dataset"]["modalities"][0]["cloud_mask"],
     "dataset.modalities[0].cloud_mask: unknown field(s) ['typo']"),
    (lambda d: d["fusion"], "fusion: unknown field(s) ['typo']"),
    (lambda d: d["fusion"]["structured_probs"],
     "fusion.structured_probs: unknown field(s) ['typo']"),
    (lambda d: d["dims"], "dims: unknown field(s) ['typo']"),
    (lambda d: d, "top level: unknown field(s) ['typo']"),
], ids=["dataset", "modality", "cloud_mask", "fusion", "structured_probs", "dims", "top"])
def test_unknown_key_names_its_path(at, message):
    d = _preset_dict()
    at(d)["typo"] = 1
    with pytest.raises(ValueError) as e:
        specs.config_from_dict(d)
    assert str(e.value) == message


def test_unknown_recipe_key_names_its_path():
    d = asdict(load_recipe("pretrain"))
    d["seeed"] = 3
    with pytest.raises(ValueError, match=re.escape("recipe: unknown field(s) ['seeed']")):
        specs.from_dict(SyntheticRecipe, d, "recipe")


def test_missing_required_field_names_its_path():
    d = _preset_dict()
    del d["dataset"]["modalities"][0]["patch_size"]
    with pytest.raises(ValueError, match=re.escape(
            "dataset.modalities[0]: missing required field 'patch_size'")):
        specs.config_from_dict(d)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: [d], "top level: expected an object, got list"),
    (lambda d: {**d, "fusion": "group"}, "fusion: expected an object, got str"),
    (lambda d: {**d, "dataset": {**d["dataset"], "modalities": {}}},
     "dataset.modalities: expected a list, got dict"),
], ids=["top", "fusion", "modalities"])
def test_non_object_names_its_path(mutate, message):
    with pytest.raises(ValueError) as e:
        specs.config_from_dict(mutate(_preset_dict()))
    assert str(e.value) == message


def test_missing_optional_fields_take_defaults():
    d = _preset_dict()
    del d["fusion"], d["dims"], d["dataset"]["modalities"][0]["cloud_mask"]
    ds, fu, di = specs.config_from_dict(d)
    assert fu == FusionConfig() and di == ModelDims()
    assert ds.modalities[0].cloud_mask == specs.CloudMaskSpec()


def test_override_fusion_replaces_only_given_fields():
    base = FusionConfig(mode="group", multispectral="joint-token",
                        target_norm="patch", mask_ratio=0.5)
    out = specs.override_fusion(base, mode="shared", mask_ratio=0.6)
    assert out == FusionConfig(mode="shared", multispectral="joint-token",
                               target_norm="patch", mask_ratio=0.6)
    assert base.mode == "group" and base.mask_ratio == 0.5
    assert specs.override_fusion(base) == base


def test_single_source_of_truth_token_totals():
    # sum of per-modality sequence lengths equals the routing plan's total
    from eomae.router import build_routing
    for name in specs.preset_names():
        ds, fu, di = load_preset(name)
        for flavor in specs.MULTISPECTRAL_FLAVORS:
            fu.multispectral = flavor
            total = sum(sequence_length(m, flavor) for m in ds.active_modalities())
            plan = build_routing(ds, fu, di)
            assert sum(seq.length for seq in plan.sequences) == total
