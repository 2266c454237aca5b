"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale training
criteria (7-9) dominate the runtime; everything else finishes in seconds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from eomae import autodiff as ad
from eomae import specs
from eomae.autodiff import Tensor, grad_check
from eomae.backbone import block_macs
from eomae.costs import pretrain_cost, transfer_cost
from eomae.masking import layout_from, sample_mask_plan, structured_mask
from eomae.pipeline import TileCache, assemble_tile, build_tables, pretrain_loss
from eomae.router import (build_parameters, build_routing, encode_visible,
                          parameter_set_count)
from eomae.specs import StructuredProbs, sequence_length
from eomae.synthetic import generate, load_recipe
from eomae.targets import normalize_targets
from eomae.temporal import d4_inverse, d4_transform
from eomae.tokenizer import PatchGrid, patchify, unpatchify
from eomae.training import (RunConfig, backbone_checksum, ema_alpha,
                            one_cycle_lr, run_phase)
from stats_helpers import chi2_critical, chi2_statistic


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE {criterion:2d}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_data")


@pytest.fixture(scope="module")
def pretrain_data(data_root):
    recipe = load_recipe("pretrain")          # 512 tiles, 2 modalities
    dataset, _, _ = specs.load_preset("synthetic_pretrain")
    return generate(recipe, dataset, data_root / "pretrain512")


@pytest.fixture(scope="module")
def temporal_data(data_root):
    recipe = load_recipe("temporal")          # 224 tiles, temporal classes
    dataset, _, _ = specs.load_preset("synthetic_temporal")
    return generate(recipe, dataset, data_root / "temporal224")


@pytest.fixture(scope="module")
def bands_data(data_root):
    recipe = load_recipe("bands")             # 128 tiles, disjoint band groups
    dataset, _, _ = specs.load_preset("synthetic_bands")
    return generate(recipe, dataset, data_root / "bands128")


EXPECTED_GMACS = {
    # (preset, flavor, phase) -> printed table value
    ("treesatai_ts", "joint-token", "pretrain"): 14.3,
    ("pastis_hd", "joint-token", "pretrain"): 56.1,
    ("flair2", "joint-token", "pretrain"): 59.1,
    ("flair_hub", "joint-token", "pretrain"): 65.4,
    ("treesatai_ts", "token-based", "pretrain"): 33.7,
    ("pastis_hd", "token-based", "pretrain"): 173.6,
    ("flair2", "token-based", "pretrain"): 133.9,
    ("flair_hub", "token-based", "pretrain"): 146.9,
    ("treesatai_ts", "joint-token", "transfer"): 39.1,
    ("pastis_hd", "joint-token", "transfer"): 163.4,
    ("flair2", "joint-token", "transfer"): 167.4,
    ("flair_hub", "joint-token", "transfer"): 185.1,
    ("treesatai_ts", "token-based", "transfer"): 95.0,
    ("pastis_hd", "token-based", "transfer"): 549.9,
    ("flair2", "token-based", "transfer"): 403.9,
    ("flair_hub", "token-based", "transfer"): 440.8,
}


def test_criterion_1_cost_tables():
    t0 = time.monotonic()
    worst = 0.0
    for (preset, flavor, phase), expect in EXPECTED_GMACS.items():
        ds, fu, di = specs.load_preset(preset)
        fu.multispectral = flavor
        report = pretrain_cost(ds, fu, di) if phase == "pretrain" else transfer_cost(ds, fu, di)
        rel = abs(report.gmacs() - expect) / expect
        worst = max(worst, rel)
        assert rel < 0.005, (preset, flavor, phase, report.gmacs(), expect)
        assert report.total_flops == 2.0 * report.total_macs
    elapsed = time.monotonic() - t0
    _report(1, worst < 0.005 and elapsed < 1.0,
            f"16/16 table cells within 0.5% (worst {worst * 100:.2f}%), "
            f"FLOPs = 2 x MACs exact, {elapsed:.2f} s")


def test_criterion_2_masking():
    t0 = time.monotonic()
    ds, fu, _ = specs.load_preset("treesatai_ts")
    layout = layout_from(ds, fu)
    assert layout.total_tokens == 441
    # exact count over 10^4 seeded plans
    for seed in range(10_000):
        plan = sample_mask_plan(layout, fu, np.random.default_rng([41, seed]))
        if plan.masked_count != 331:
            _report(2, False, f"seed {seed}: masked {plan.masked_count} != 331")
    # structure disabled: per-token frequency uniform (chi-square, p > 0.01)
    fu_flat = specs.FusionConfig(structured_probs=StructuredProbs(0, 0, 0))
    n = 10_000
    freq = np.zeros(441)
    for seed in range(n):
        plan = sample_mask_plan(layout, fu_flat, np.random.default_rng([42, seed]))
        freq += plan.concat_mask(layout.names())
    stat = chi2_statistic(freq, np.full(441, n * 331 / 441))
    crit = chi2_critical(440, 0.01)
    # modality structure at p=1: each drawn modality fully masked pre-adjustment
    stage1 = structured_mask(layout, StructuredProbs(1.0, 0.0, 0.0),
                             np.random.default_rng(7))
    all_masked = all(m.all() for m in stage1.values())
    elapsed = time.monotonic() - t0
    _report(2, stat < crit and all_masked and elapsed < 30.0,
            f"10^4 plans all at 331/441; uniformity chi2 {stat:.1f} < {crit:.1f}; "
            f"p=1 modality fully masked pre-adjustment; {elapsed:.1f} s")


def test_criterion_3_normalization():
    rng = np.random.default_rng(3)
    spec = specs.ModalitySpec(name="m", gsd_m=1.0, image_size=8, patch_size=2,
                              temporal_bins=3, channels=6,
                              band_groups=[[0, 1], [2, 3], [4, 5]])
    data = rng.normal(loc=2.0, scale=3.0, size=(16, 3, 24))
    grid = PatchGrid(modality="m", patch_size=2, channels=6, data=data)
    out = normalize_targets(grid, spec, "patch-group")
    from eomae.tokenizer import group_column_indices
    worst_mean = worst_std = 0.0
    for idx in group_column_indices(2, 6, spec.band_groups):
        sub = out.data[:, :, idx]
        worst_mean = max(worst_mean, float(np.abs(sub.mean(axis=-1)).max()))
        worst_std = max(worst_std, float(np.abs(sub.std(axis=-1) - 1).max()))
    # single group: patch-group output elementwise equals patch-wise output
    spec1 = specs.ModalitySpec(name="m", gsd_m=1.0, image_size=8, patch_size=2,
                               temporal_bins=3, channels=6,
                               band_groups=[[0, 1, 2, 3, 4, 5]])
    pg = normalize_targets(grid, spec1, "patch-group")
    pw = normalize_targets(grid, spec1, "patch")
    single_equal = np.array_equal(pg.data, pw.data)
    # per-group positive rescaling leaves patch-group targets invariant
    scaled = data.copy()
    cols = group_column_indices(2, 6, spec.band_groups)
    scaled[:, :, cols[1]] *= 17.5
    out_scaled = normalize_targets(
        PatchGrid(modality="m", patch_size=2, channels=6, data=scaled),
        spec, "patch-group")
    invariance = float(np.abs(out_scaled.data - out.data).max())
    _report(3, worst_mean < 1e-6 and worst_std < 1e-5 and single_equal
            and invariance < 1e-6,
            f"per-unit |mean| {worst_mean:.1e} < 1e-6, |std-1| {worst_std:.1e} < 1e-5, "
            f"single-group equality, rescale drift {invariance:.1e} < 1e-6")


def test_criterion_4_gradients(tmp_path):
    t0 = time.monotonic()
    recipe = load_recipe("pretrain")
    recipe.num_tiles = 2
    dataset, fusion, dims = specs.load_preset("synthetic_pretrain")
    assert dims.encoder_width == 32 and dims.encoder_depth == 2
    manifest = generate(recipe, dataset, tmp_path / "toy")
    cache = TileCache(manifest)
    tables = build_tables(dataset, dims)
    plan = build_routing(dataset, fusion, dims)
    params = build_parameters(dataset, fusion, dims, seed=0)
    batch = assemble_tile(cache, 0, dataset, fusion, tables, train=True,
                          seed=0, epoch=0)
    mask_plan = sample_mask_plan(batch.layout, fusion, np.random.default_rng(7))
    report = grad_check(
        lambda: pretrain_loss(batch, dataset, fusion, dims, plan, params, mask_plan),
        params, tol=1e-4, max_coords_per_tensor=3, seed=1)
    elapsed = time.monotonic() - t0
    _report(4, report["passed"] and elapsed < 120.0,
            f"finite-difference max rel err {report['max_rel_err']:.2e} < 1e-4 "
            f"over {len(params)} parameter tensors, {elapsed:.1f} s")


def test_criterion_5_round_trips(tmp_path):
    rng = np.random.default_rng(5)
    # patchify/unpatchify identity
    img = rng.normal(size=(4, 10, 12, 12))
    patch_ok = np.array_equal(unpatchify(patchify(img, 3)), img)
    # tile write/read identity
    from eomae.tiles import read_tensor, write_tensor
    arr = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
    write_tensor(tmp_path / "t.bin", arr)
    tile_ok = np.array_equal(read_tensor(tmp_path / "t.bin"), arr)
    # D4 group laws: 8 distinct elements, inverse composition = identity
    probe = rng.normal(size=(2, 1, 6, 6))
    images = {d4_transform(k, np.arange(16.0).reshape(4, 4)).tobytes()
              for k in range(8)}
    inverse_ok = all(
        np.allclose(d4_transform(d4_inverse(k), d4_transform(k, probe)), probe)
        for k in range(8))
    _report(5, patch_ok and tile_ok and len(images) == 8 and inverse_ok,
            "patchify/unpatchify exact; tile write/read exact; D4: 8 distinct "
            "elements, inverse composition = identity for all k")


def test_criterion_6_routing_accounting():
    # DERIVED sequence lengths per preset x mode, from the token arithmetic
    checked = 0
    for preset in specs.preset_names():
        ds, fu, di = specs.load_preset(preset)
        for mode in specs.FUSION_MODES:
            fu.mode = mode
            plan = build_routing(ds, fu, di)
            flavor = fu.multispectral
            if mode in ("shared", "monotemp"):
                expect = sorted(
                    sequence_length(m, flavor) // m.temporal_bins
                    for m in ds.active_modalities() for _ in range(m.temporal_bins))
            elif mode == "mod":
                expect = sorted(sequence_length(m, flavor)
                                for m in ds.active_modalities())
            else:
                expect = sorted(sum(sequence_length(ds.modality(n), flavor)
                                    for n in g) for g in ds.active_groups())
            assert sorted(s.length for s in plan.sequences) == expect, (preset, mode)
            n_mods = len(ds.active_modalities())
            n_groups = len(ds.active_groups())
            expect_sets = {"shared": 1, "monotemp": n_mods, "mod": n_mods,
                           "group": n_groups,
                           "inter-group": n_groups + (1 if n_groups > 1 else 0)}[mode]
            assert parameter_set_count(plan) == expect_sets, (preset, mode)
            checked += 1
    # spec's explicit TreeSat values
    ds, fu, di = specs.load_preset("treesatai_ts")
    fu.mode = "group"
    assert sorted(s.length for s in build_routing(ds, fu, di).sequences) == [72, 144, 225]
    fu.mode = "shared"
    assert len(build_routing(ds, fu, di).sequences) == 25
    # instrumented multiply counts equal the analytic encoder formula exactly
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
    analytic = 0
    for seq in plan.sequences:
        n_vis = sum(int((~mask_plan.mask_for(s.modality)
                         [s.start:s.start + s.length]).sum()) for s in seq.slabs)
        analytic += block_macs(n_vis, di.encoder_width) * di.encoder_depth
    exact = ad.macs() == analytic
    _report(6, exact,
            f"{checked} preset x mode routings match derived lengths and set "
            f"counts; instrumented encoder multiplies == analytic ({analytic})")


def test_criterion_7_desk_scale_pretraining(pretrain_data, tmp_path):
    t0 = time.monotonic()
    assert len(pretrain_data.tiles) >= 512
    assert len(pretrain_data.dataset.active_modalities()) == 2
    result = run_phase(RunConfig(
        preset="synthetic_pretrain", data_dir=str(pretrain_data.root),
        phase="pretrain", out_dir=str(tmp_path / "run"), epochs=20,
        batch_size=8, base_lr=2e-3, seed=0))
    losses = [h["loss"] for h in result.history]
    reduction = 1.0 - losses[-1] / losses[0]
    elapsed = time.monotonic() - t0
    _report(7, reduction >= 0.5 and elapsed < 1200.0,
            f"512 tiles x 20 epochs: loss {losses[0]:.3f} -> {losses[-1]:.3f} "
            f"({reduction * 100:.1f}% >= 50%), {elapsed:.0f} s < 20 min")


def _finetune_accuracy(data_root: str, out_root, mode: str, seed: int) -> float:
    run_phase(RunConfig(preset="synthetic_temporal", data_dir=data_root,
                        phase="pretrain", out_dir=str(out_root / f"pre_{mode}_{seed}"),
                        epochs=15, batch_size=8, base_lr=2e-3, seed=seed,
                        fusion_mode=mode))
    ft = run_phase(RunConfig(preset="synthetic_temporal", data_dir=data_root,
                             phase="finetune", out_dir=str(out_root / f"ft_{mode}_{seed}"),
                             epochs=30, batch_size=8, base_lr=1e-3, seed=seed,
                             fusion_mode=mode,
                             init_checkpoint=str(out_root / f"pre_{mode}_{seed}" / "checkpoint.mstr")))
    return ft.final["metric"]["accuracy"]


def test_criterion_8_fusion_direction(temporal_data, tmp_path):
    group_accs, shared_accs = [], []
    for seed in (0, 1, 2):
        group_accs.append(_finetune_accuracy(str(temporal_data.root), tmp_path,
                                             "group", seed))
        shared_accs.append(_finetune_accuracy(str(temporal_data.root), tmp_path,
                                              "shared", seed))
    gap = 100 * (np.median(group_accs) - np.median(shared_accs))
    _report(8, gap >= 5.0,
            f"fine-tuned accuracy medians over 3 seeds: group "
            f"{np.median(group_accs):.3f} vs shared {np.median(shared_accs):.3f} "
            f"(gap {gap:.1f} >= 5 points)")


def _probe_accuracy(data_root: str, out_root, norm: str, seed: int) -> float:
    run_phase(RunConfig(preset="synthetic_bands", data_dir=data_root,
                        phase="pretrain", out_dir=str(out_root / f"pre_{norm}_{seed}"),
                        epochs=25, batch_size=8, base_lr=3e-3, seed=seed,
                        target_norm=norm))
    probe = run_phase(RunConfig(preset="synthetic_bands", data_dir=data_root,
                                phase="probe", out_dir=str(out_root / f"probe_{norm}_{seed}"),
                                epochs=20, batch_size=8, base_lr=3e-3, seed=seed,
                                init_checkpoint=str(out_root / f"pre_{norm}_{seed}" / "checkpoint.mstr")))
    return probe.final["metric"]["accuracy"]


def test_criterion_9_normalization_direction(bands_data, tmp_path):
    medians = {}
    for norm in ("patch-group", "patch", "none"):
        accs = [_probe_accuracy(str(bands_data.root), tmp_path, norm, seed)
                for seed in (0, 1, 2)]
        medians[norm] = float(np.median(accs))
    ordered = (medians["patch-group"] >= medians["patch"] >= medians["none"])
    strict = medians["patch-group"] > medians["none"]
    _report(9, ordered and strict,
            f"probing accuracy medians: patch-group {medians['patch-group']:.3f} "
            f">= patch {medians['patch']:.3f} >= none {medians['none']:.3f} "
            f"(ties only between adjacent tiers)")


def test_criterion_10_workflow_contracts(tiny_dataset, tmp_path):
    # probe leaves backbone checksums unchanged
    pre = run_phase(RunConfig(preset="synthetic_pretrain",
                              data_dir=str(tiny_dataset.root), phase="pretrain",
                              out_dir=str(tmp_path / "pre"), epochs=1,
                              batch_size=8, base_lr=1e-3, seed=0))
    probe = run_phase(RunConfig(preset="synthetic_pretrain",
                                data_dir=str(tiny_dataset.root), phase="probe",
                                out_dir=str(tmp_path / "probe"), epochs=2,
                                batch_size=8, base_lr=1e-3, seed=0,
                                init_checkpoint=str(tmp_path / "pre" / "checkpoint.mstr")))
    checksum_ok = backbone_checksum(pre.params) == backbone_checksum(probe.params)
    # EMA alpha exact
    alpha_ok = ema_alpha(50) == 0.9
    # schedule endpoints exact
    peak = 1e-5 * np.sqrt(96)
    end_warmup = one_cycle_lr(200, 1000, peak, 0.2, 1e4)
    final_pre = one_cycle_lr(999, 1000, peak, 0.2, 1e4)
    final_ft = one_cycle_lr(999, 1000, peak, 0.2, 2.0)
    lr_ok = (abs(end_warmup - peak) / peak < 1e-12
             and abs(final_pre - peak / 1e4) / (peak / 1e4) < 1e-12
             and abs(final_ft - peak / 2) / (peak / 2) < 1e-12)
    _report(10, checksum_ok and alpha_ok and lr_ok,
            f"probe backbone checksum unchanged; alpha(50) = {ema_alpha(50)} exact; "
            f"lr endpoints exact (peak {peak:.4e}, final/1e4 and /2)")
