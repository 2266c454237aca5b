from __future__ import annotations

import json
import math

import numpy as np
import pytest

from eomae.autodiff import Tensor
from eomae.training import (_CHUNK, AdamW, AdamWConfig, RunConfig,
                            backbone_checksum, compute_metrics, ema_alpha,
                            ema_update, mean_iou, one_cycle_lr, run_phase,
                            weighted_f1)


class TestSchedule:
    def test_peak_is_base_times_sqrt_batch(self):
        base, batch = 1e-5, 96
        peak = base * math.sqrt(batch)
        assert np.isclose(peak, 9.798e-5, rtol=1e-3)
        total, warmup_frac = 100, 0.2
        lr = one_cycle_lr(20, total, peak, warmup_frac, 1e4)
        assert lr == pytest.approx(peak, rel=1e-12)

    def test_final_lr_pretrain(self):
        peak = 1e-3
        lr = one_cycle_lr(99, 100, peak, 0.2, 1e4)
        assert abs(lr - peak / 1e4) / (peak / 1e4) < 1e-12

    def test_final_lr_finetune_half(self):
        peak = 1e-3
        lr = one_cycle_lr(99, 100, peak, 0.2, 2)
        assert abs(lr - peak / 2) / (peak / 2) < 1e-12

    def test_step_zero_near_zero(self):
        assert one_cycle_lr(0, 100, 1e-3, 0.2, 1e4) == 0.0

    def test_monotone_warmup(self):
        vals = [one_cycle_lr(s, 100, 1.0, 0.2, 10) for s in range(20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_cycle_lr(100, 100, 1.0)


class TestEMA:
    def test_alpha_50_epochs(self):
        assert ema_alpha(50) == pytest.approx(0.9, abs=1e-15)

    def test_alpha_5_epochs_zero(self):
        assert ema_alpha(5) == 0.0

    def test_alpha_clamped_nonnegative(self):
        assert ema_alpha(2) == 0.0

    def test_constant_params_fixed_point(self):
        p = {"w": Tensor(np.ones(3))}
        ema = {"w": np.ones(3)}
        for _ in range(10):
            ema_update(ema, p, 0.9)
        assert np.allclose(ema["w"], 1.0)

    def test_tracks_exactly_when_alpha_zero(self):
        p = {"w": Tensor(np.full(3, 5.0))}
        ema = {"w": np.zeros(3)}
        ema_update(ema, p, 0.0)
        assert np.array_equal(ema["w"], p["w"].data)

    def test_updates_arrays_in_place(self, rng):
        p = {"w": Tensor(rng.normal(size=(4, 5)))}
        arr = rng.normal(size=(4, 5))
        expect = 0.7 * arr + (1.0 - 0.7) * p["w"].data
        ema = {"w": arr}
        ema_update(ema, p, 0.7)
        assert ema["w"] is arr and np.array_equal(arr, expect)


def _leaf(arr):
    t = Tensor(np.asarray(arr, dtype=float))
    t.requires_grad = True
    return t


def _adamw_reference(w, grads, lrs, cfg):
    """The closed-form AdamW update, out of place, one tensor."""
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        b1c = 1.0 - cfg.beta1 ** t
        b2c = 1.0 - cfg.beta2 ** t
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        w = w * (1.0 - lr * cfg.weight_decay)
        w = w - lr * (m / b1c) / (np.sqrt(v / b2c) + cfg.eps)
    return w


class TestAdamW:
    @pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_bit_equal_to_closed_form(self, size, rng):
        cfg = AdamWConfig(lr=0.1, weight_decay=0.05)
        start = rng.normal(size=size)
        grads = [rng.normal(size=size) for _ in range(4)]
        lrs = [0.1, 0.03, 0.2, 0.01]
        p = _leaf(start.copy())
        opt = AdamW({"p": p}, cfg)
        for g, lr in zip(grads, lrs):
            p.grad = g
            opt.step(lr)
        assert np.array_equal(p.data, _adamw_reference(start, grads, lrs, cfg))

    def test_tensor_without_grad_is_skipped(self):
        cfg = AdamWConfig(lr=0.1, weight_decay=0.5)
        a = _leaf(np.array([1.0, 2.0]))
        b = _leaf(np.array([3.0]))
        opt = AdamW({"a": a, "b": b}, cfg)
        a.grad = np.ones(2)
        opt.step()
        assert np.array_equal(b.data, [3.0])
        assert "b" not in opt.m and "b" not in opt.v and "a" in opt.m
        a.zero_grad()
        b.grad = np.full(1, 0.5)
        opt.step()
        assert np.array_equal(b.data, _adamw_reference(np.array([3.0]), [b.grad], [0.1], cfg))
        assert opt.updates == {"a": 1, "b": 1}

    def test_non_contiguous_tensor_refused(self):
        p = _leaf(np.zeros((3, 4)))
        p.data = p.data.T
        p.grad = np.ones((4, 3))
        with pytest.raises(ValueError, match="contiguous"):
            AdamW({"p": p}).step()

    def test_zero_grad_zero_decay_unchanged(self):
        p = _leaf(np.array([1.0, -2.0]))
        opt = AdamW({"p": p}, AdamWConfig(lr=0.1, weight_decay=0.0))
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_decay_only_shrinks_by_closed_form(self):
        p = _leaf(np.array([4.0]))
        opt = AdamW({"p": p}, AdamWConfig(lr=0.5, weight_decay=0.01))
        p.grad = np.zeros(1)
        opt.step()
        assert np.isclose(p.data[0], 4.0 * (1 - 0.5 * 0.01))

    def test_quadratic_converges(self):
        target = 3.0
        p = _leaf(np.array([-5.0]))
        opt = AdamW({"p": p}, AdamWConfig(lr=0.05, weight_decay=0.0))
        for _ in range(500):
            p.zero_grad()
            loss = ((p - target) ** 2).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0] - target) < 1e-3


class TestMetrics:
    def test_perfect_classification(self):
        logits = np.array([[9.0, -9.0], [-9.0, 9.0]])
        labels = np.array([[1, 0], [0, 1]])
        m = compute_metrics(logits, labels, "classification")
        assert m["weighted_f1"] == 1.0 and m["accuracy"] == 1.0

    def test_accuracy_counts_any_present_class(self):
        logits = np.array([[0.0, 5.0, 1.0], [3.0, 0.0, 1.0], [0.0, 1.0, 4.0]])
        labels = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        m = compute_metrics(logits, labels, "classification")
        # row 0: top class 1 is present; row 1: top class 0 is absent;
        # row 2 has no class at all
        assert m["accuracy"] == 1 / 3

    def test_weighted_f1_oracle(self):
        # two classes with different supports; verify against hand computation
        y_true = np.array([[1, 0], [1, 0], [1, 1], [0, 1]], dtype=bool)
        y_pred = np.array([[1, 0], [0, 0], [1, 1], [1, 1]], dtype=bool)
        # class 0: tp=2 fp=1 fn=1 -> p=2/3 r=2/3 f1=2/3, support 3
        # class 1: tp=2 fp=0 fn=0 -> f1=1, support 2
        expect = (2 / 3 * 3 + 1.0 * 2) / 5
        assert weighted_f1(y_true, y_pred) == pytest.approx(expect)

    def test_miou_present_classes_only(self):
        # degenerate prediction: everything class 0; class 2 absent everywhere
        confusion = np.zeros((3, 3), dtype=int)
        confusion[0, 0] = 10
        confusion[1, 0] = 5
        # class 0: iou 10/15; class 1: 0/5; class 2 skipped (union 0)
        assert mean_iou(confusion, []) == pytest.approx((10 / 15 + 0.0) / 2)

    def test_ignored_classes_excluded(self):
        pred = np.array([0, 0, 1, 2, 2])
        true = np.array([0, 2, 1, 2, 2])
        m = compute_metrics(pred, true, "segmentation", ignored=[2], num_classes=3)
        # pixels with true label 2 dropped: remaining true [0, 1], pred [0, 1]
        assert m["miou"] == 1.0


@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


class TestRunPhase:
    def test_pretrain_completes_with_finite_loss(self, tiny_dataset, run_root):
        cfg = RunConfig(preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
                        phase="pretrain", out_dir=str(run_root / "pre"),
                        epochs=1, batch_size=8, base_lr=1e-3, seed=0)
        result = run_phase(cfg)
        assert len(result.history) == 1
        assert np.isfinite(result.final["loss"])
        assert (run_root / "pre" / "checkpoint.mstr").exists()
        assert (run_root / "pre" / "config.json").exists()
        lines = (run_root / "pre" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["phase"] == "pretrain"

    def test_probe_leaves_backbone_bits_identical(self, tiny_dataset, run_root):
        pre = run_phase(RunConfig(
            preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
            phase="pretrain", out_dir=str(run_root / "pre2"), epochs=1,
            batch_size=8, base_lr=1e-3, seed=1))
        probe_cfg = RunConfig(
            preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
            phase="probe", out_dir=str(run_root / "probe"), epochs=2,
            batch_size=8, base_lr=1e-3, seed=1,
            init_checkpoint=str(run_root / "pre2" / "checkpoint.mstr"))
        result = run_phase(probe_cfg)
        before = backbone_checksum(pre.params)
        after = backbone_checksum(result.params)
        assert before == after
        assert "metric" in result.final

    def test_finetune_changes_backbone_and_writes_ema(self, tiny_dataset, run_root):
        ft = run_phase(RunConfig(
            preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
            phase="finetune", out_dir=str(run_root / "ft"), epochs=2,
            batch_size=8, base_lr=1e-3, seed=2))
        assert (run_root / "ft" / "checkpoint_ema.mstr").exists()
        assert "metric" in ft.final

    def test_finetune_eval_uses_ema_weights(self, tiny_dataset, run_root):
        from eomae.backbone import load_checkpoint
        from eomae.pipeline import TileCache, build_tables
        from eomae.router import build_routing
        from eomae.specs import load_preset
        from eomae.tiles import load_manifest
        from eomae.training import evaluate_model
        out = run_root / "ft_ema"
        # alpha(8) = 0.375: the EMA genuinely lags the raw weights
        ft = run_phase(RunConfig(
            preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
            phase="finetune", out_dir=str(out), epochs=8, batch_size=8,
            base_lr=2e-3, seed=5))
        logged = ft.final["metric"]
        _, fusion, dims = load_preset("synthetic_pretrain")
        manifest = load_manifest(tiny_dataset.root)
        dataset = manifest.dataset
        cache = TileCache(manifest)
        tables = build_tables(dataset, dims)
        plan = build_routing(dataset, fusion, dims)
        ema = {k: Tensor(v) for k, v in load_checkpoint(out / "checkpoint_ema.mstr").items()}
        raw = {k: Tensor(v) for k, v in load_checkpoint(out / "checkpoint.mstr").items()}
        # the two weight sets genuinely differ after three EMA updates
        assert any(not np.array_equal(ema[k].data, raw[k].data) for k in ema)
        # and per-tile logits differ between them
        import eomae.autodiff as adx
        from eomae.pipeline import assemble_tile, task_logits
        batch = assemble_tile(cache, manifest.split_ids("val")[0], dataset,
                              fusion, tables, train=False, seed=5, epoch=0)
        with adx.no_grad():
            z_ema = task_logits(batch, dataset, fusion, dims, plan, ema, ema).data
            z_raw = task_logits(batch, dataset, fusion, dims, plan, raw, raw).data
        assert not np.allclose(z_ema, z_raw)
        # the logged metric is the EMA-weight evaluation (float32 storage aside)
        ema_metric = evaluate_model(cache, dataset, fusion, dims, plan, ema,
                                    tables, manifest.split_ids("val"), seed=5)
        assert ema_metric["accuracy"] == logged["accuracy"]
        assert np.isclose(ema_metric["weighted_f1"], logged["weighted_f1"], atol=1e-6)

    def test_snapshot_rerun_bit_exact(self, tiny_dataset, run_root):
        cfg = RunConfig(preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
                        phase="pretrain", out_dir=str(run_root / "repro_a"),
                        epochs=2, batch_size=4, base_lr=5e-4, seed=7)
        a = run_phase(cfg)
        snapshot = json.loads((run_root / "repro_a" / "config.json").read_text())
        re_cfg = RunConfig(**snapshot["run"])
        re_cfg.out_dir = str(run_root / "repro_b")
        b = run_phase(re_cfg)
        assert a.history == b.history
        ck_a = (run_root / "repro_a" / "checkpoint.mstr").read_bytes()
        ck_b = (run_root / "repro_b" / "checkpoint.mstr").read_bytes()
        assert ck_a == ck_b

    def test_missing_checkpoint_errors(self, tiny_dataset, run_root):
        cfg = RunConfig(preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
                        phase="probe", out_dir=str(run_root / "bad"), epochs=1,
                        batch_size=4, init_checkpoint=str(run_root / "nope.mstr"))
        with pytest.raises((FileNotFoundError, ValueError)):
            run_phase(cfg)

    def test_incompatible_checkpoint_errors(self, tiny_dataset, run_root, rng):
        from eomae.backbone import save_checkpoint
        alien = run_root / "alien.mstr"
        save_checkpoint(alien, {"alien/w": Tensor(rng.normal(size=(2, 2)))})
        cfg = RunConfig(preset="synthetic_pretrain", data_dir=str(tiny_dataset.root),
                        phase="probe", out_dir=str(run_root / "bad2"), epochs=1,
                        batch_size=4, init_checkpoint=str(alien))
        with pytest.raises(ValueError, match="no compatible"):
            run_phase(cfg)
