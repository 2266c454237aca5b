from __future__ import annotations

import numpy as np

from eomae.autodiff import Tensor
from eomae.specs import ModalitySpec
from eomae.targets import (ReconstructionItem, normalize_targets,
                           reconstruction_loss)
from eomae.tokenizer import PatchGrid


def _spec(channels=2, groups=None, patch=1):
    return ModalitySpec(name="m", gsd_m=1.0, image_size=patch, patch_size=patch,
                        temporal_bins=1, channels=channels,
                        band_groups=groups or [[c] for c in range(channels)])


def _grid(values, patch=1, channels=2):
    data = np.asarray(values, dtype=float)
    return PatchGrid(modality="m", patch_size=patch, channels=channels, data=data)


class TestNormalize:
    def test_constant_patch_zeros(self):
        spec = _spec(channels=4, groups=[[0, 1, 2, 3]])
        grid = _grid(np.full((1, 1, 4), 3.0), channels=4)
        out = normalize_targets(grid, spec, "patch")
        assert np.allclose(out.data, 0.0)

    def test_two_values_population_std(self):
        spec = _spec(channels=2, groups=[[0, 1]])
        grid = _grid(np.array([[[1.0, 3.0]]]))
        out = normalize_targets(grid, spec, "patch")
        assert np.allclose(out.data, [[[-1.0, 1.0]]])  # mu=2, population sigma=1
        assert np.allclose(out.mean, 2.0) and np.allclose(out.std, 1.0)

    def test_single_group_patch_group_equals_patch(self, rng):
        spec = _spec(channels=3, groups=[[0, 1, 2]], patch=2)
        data = rng.normal(size=(4, 2, 12))
        grid = _grid(data, patch=2, channels=3)
        a = normalize_targets(grid, spec, "patch")
        b = normalize_targets(grid, spec, "patch-group")
        assert np.allclose(a.data, b.data)

    def test_none_is_identity(self, rng):
        spec = _spec()
        data = rng.normal(size=(2, 1, 2))
        out = normalize_targets(_grid(data), spec, "none")
        assert np.array_equal(out.data, data)

    def test_unit_stats(self, rng):
        spec = _spec(channels=4, groups=[[0, 1], [2, 3]], patch=2)
        data = rng.normal(size=(9, 3, 16)) * 5 + 2
        out = normalize_targets(_grid(data, patch=2, channels=4), spec, "patch-group")
        from eomae.tokenizer import group_column_indices
        for idx in group_column_indices(2, 4, spec.band_groups):
            sub = out.data[:, :, idx]
            assert np.abs(sub.mean(axis=-1)).max() < 1e-6
            assert np.abs(sub.std(axis=-1) - 1.0).max() < 1e-5

    def test_group_scale_invariance(self, rng):
        spec = _spec(channels=4, groups=[[0, 1], [2, 3]], patch=1)
        data = rng.normal(size=(4, 2, 4))
        scaled = data.copy()
        scaled[:, :, [0, 1]] *= 37.0  # rescale one whole group
        a = normalize_targets(_grid(data, channels=4), spec, "patch-group")
        b = normalize_targets(_grid(scaled, channels=4), spec, "patch-group")
        assert np.allclose(a.data, b.data, atol=1e-6)
        # patch-wise normalization does change under per-group rescaling
        c = normalize_targets(_grid(data, channels=4), spec, "patch")
        d = normalize_targets(_grid(scaled, channels=4), spec, "patch")
        assert not np.allclose(c.data, d.data)


def _item(spec, targets, recon, flavor="joint-token", mask=None):
    return ReconstructionItem(spec=spec, targets=targets, recon=Tensor(recon),
                              multispectral=flavor, token_mask=mask)


class TestLoss:
    def test_zero_when_equal(self, rng):
        spec = _spec(channels=2, groups=[[0, 1]])
        t = rng.normal(size=(4, 1, 2))
        loss = reconstruction_loss([_item(spec, t, t.copy())], "none", masked_only=False)
        assert loss.data == 0.0

    def test_residual_half_half(self):
        spec = _spec(channels=2, groups=[[0, 1]])
        targets = np.array([[[0.5, -0.5]]])
        recon = np.zeros((1, 1, 2))
        loss = reconstruction_loss([_item(spec, targets, recon)], "none",
                                   masked_only=False)
        assert np.isclose(loss.data, 1.0)

    def test_patch_group_denominator_gains_groups(self):
        spec = _spec(channels=2, groups=[[0], [1]])
        targets = np.array([[[0.5, -0.5]]])
        recon = np.zeros((1, 1, 2))
        loss = reconstruction_loss([_item(spec, targets, recon)], "patch-group",
                                   masked_only=False)
        assert np.isclose(loss.data, 0.5)

    def test_masked_only_restricts_units(self):
        spec = _spec(channels=1, groups=[[0]])
        targets = np.array([[[1.0]], [[10.0]]])   # 2 positions, 1 bin
        recon = np.zeros((2, 1, 1))
        mask = np.array([True, False])            # canonical (bin, pos) order
        loss = reconstruction_loss([_item(spec, targets, recon, mask=mask)],
                                   "none", masked_only=True)
        assert np.isclose(loss.data, 1.0)  # only the masked unit counts

    def test_all_token_form_matches_manual_mean(self, rng):
        spec = _spec(channels=2, groups=[[0, 1]], patch=2)
        targets = rng.normal(size=(4, 2, 8))
        recon = rng.normal(size=(4, 2, 8))
        loss = reconstruction_loss(
            [_item(spec, targets, recon)], "patch", masked_only=False)
        manual = np.abs(targets - recon).sum() / (4 * 2)
        assert np.isclose(loss.data, manual)

    def test_permutation_equivariance(self, rng):
        spec = _spec(channels=2, groups=[[0, 1]])
        targets = rng.normal(size=(6, 1, 2))
        recon = rng.normal(size=(6, 1, 2))
        loss = reconstruction_loss([_item(spec, targets, recon)], "none",
                                   masked_only=False)
        perm = rng.permutation(6)
        loss_p = reconstruction_loss([_item(spec, targets[perm], recon[perm])],
                                     "none", masked_only=False)
        assert np.isclose(loss.data, loss_p.data)

    def test_token_based_masked_denominator(self):
        # one position, one bin, two groups; only group 0's token masked
        spec = _spec(channels=2, groups=[[0], [1]])
        targets = np.array([[[0.8, -0.6]]])
        recon = np.zeros((1, 1, 2))
        mask = np.array([True, False])  # (bin, group, pos) order
        loss_pg = reconstruction_loss(
            [_item(spec, targets, recon, flavor="token-based", mask=mask)],
            "patch-group", masked_only=True)
        assert np.isclose(loss_pg.data, 0.8)  # one masked token unit
        loss_none = reconstruction_loss(
            [_item(spec, targets, recon, flavor="token-based", mask=mask)],
            "none", masked_only=True)
        # masked tokens / |G| = 0.5 patch units
        assert np.isclose(loss_none.data, 0.8 / 0.5)

    def test_gradient_matches_finite_differences(self, rng):
        from eomae.autodiff import grad_check
        spec = _spec(channels=2, groups=[[0], [1]], patch=2)
        targets = rng.normal(size=(4, 2, 8))
        base = rng.normal(size=(4, 2, 8))
        recon = Tensor(base)
        recon.requires_grad = True
        mask = rng.random(8) < 0.5
        mask[0] = True
        item = ReconstructionItem(spec=spec, targets=targets, recon=recon,
                                  token_mask=mask)
        report = grad_check(
            lambda: reconstruction_loss(
                [ReconstructionItem(spec=spec, targets=targets, recon=recon,
                                    token_mask=mask)], "patch-group"),
            {"recon": recon}, tol=1e-4, max_coords_per_tensor=16)
        assert report["passed"], report

    def test_multi_modality_shared_denominator(self, rng):
        s1 = _spec(channels=1, groups=[[0]])
        s2 = _spec(channels=1, groups=[[0]])
        t1, r1 = np.ones((2, 1, 1)), np.zeros((2, 1, 1))
        t2, r2 = np.ones((3, 1, 1)), np.zeros((3, 1, 1))
        loss = reconstruction_loss(
            [_item(s1, t1, r1), _item(s2, t2, r2)], "none", masked_only=False)
        assert np.isclose(loss.data, (2 + 3) / (2 + 3))
