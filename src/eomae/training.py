"""Optimizer, schedule, EMA regularization, metrics, and the three workflow
phases (pretrain, probe, finetune).

The learning rate peaks at ``base_lr * sqrt(batch_size)`` after a linear
warmup over 20% of the steps, then follows a single cosine cycle down to
``peak / final_div`` (1e4 for pretrain/probe, 2 for fine-tuning). Fine-tuning
keeps an exponential moving average of the weights, updated once per epoch
with ``alpha = 1 - 1/(0.2 * epochs)``, and evaluates with the EMA weights.
Probing freezes every backbone parameter and trains the head alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import load_checkpoint, save_checkpoint
from .heads import build_head_params
from .masking import sample_mask_plan
from .pipeline import (TileCache, assemble_tile, build_tables, pretrain_loss,
                       task_logits)
from .router import build_parameters, build_routing
from .specs import (DatasetSpec, FusionConfig, ModelDims, load_preset,
                    override_fusion, validate)
from .temporal import stream_rng
from .tiles import load_manifest

PHASES = ("pretrain", "probe", "finetune")

_PHASE_BASE_LR = {"pretrain": 3e-5, "probe": 1e-5, "finetune": 1e-5}
_PHASE_FINAL_DIV = {"pretrain": 1e4, "probe": 1e4, "finetune": 2.0}


def one_cycle_lr(step: int, total_steps: int, peak: float,
                 warmup_fraction: float = 0.2, final_div: float = 1e4) -> float:
    """Linear warmup to ``peak`` then cosine anneal to ``peak / final_div``."""
    if not 0 <= step < total_steps:
        raise ValueError("step out of range")
    warmup = int(round(warmup_fraction * total_steps))
    if step < warmup:
        return peak * step / warmup
    floor = peak / final_div
    span = max(total_steps - 1 - warmup, 1)
    progress = (step - warmup) / span
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


def ema_alpha(n_epochs: int) -> float:
    """Smoothing factor for a window of 20% of the fine-tuning epochs."""
    return max(0.0, 1.0 - 1.0 / (0.2 * n_epochs))


def ema_update(ema: dict[str, np.ndarray], params: dict[str, Tensor], alpha: float) -> None:
    """``ema = alpha * ema + (1 - alpha) * param``, in place."""
    for name, p in params.items():
        e = ema[name]
        e *= alpha
        e += (1.0 - alpha) * p.data


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 1e-2


# Elements per in-place update slice: two float64 scratch buffers of this
# size stay in cache.
_CHUNK = 1 << 14


def _flat_view(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as a 1-D view; a copy would silently lose the in-place update."""
    if not a.flags.c_contiguous:
        raise ValueError(f"AdamW: tensor {name} is not C-contiguous")
    return a.reshape(-1)


class AdamW:
    """Decoupled weight decay; standard bias-corrected moment updates.

    As in ``torch.optim.AdamW``, a tensor whose ``grad`` is None is skipped:
    no weight decay and no moment update. Its moments are allocated on its
    first gradient, and its bias correction counts its own updates.
    """

    def __init__(self, params: dict[str, Tensor], config: AdamWConfig | None = None):
        self.params = dict(sorted(params.items()))
        self.config = config or AdamWConfig()
        # Per tensor, from its first gradient on: moments and update count.
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.updates: dict[str, int] = {}
        self._scratch = np.empty((2, _CHUNK))

    def step(self, lr: float | None = None) -> None:
        cfg = self.config
        lr = cfg.lr if lr is None else lr
        decay = 1.0 - lr * cfg.weight_decay
        for k, p in self.params.items():
            if p.grad is None:
                continue
            if k not in self.m:
                self.m[k] = np.zeros_like(p.data)
                self.v[k] = np.zeros_like(p.data)
                self.updates[k] = 0
            self.updates[k] += 1
            b1c = 1.0 - cfg.beta1 ** self.updates[k]
            b2c = 1.0 - cfg.beta2 ** self.updates[k]
            w = _flat_view(p.data, k)
            m = _flat_view(self.m[k], k)
            v = _flat_view(self.v[k], k)
            g = p.grad.reshape(-1)
            for lo in range(0, w.size, _CHUNK):
                at = slice(lo, lo + _CHUNK)
                self._update(w[at], g[at], m[at], v[at], lr, decay, b1c, b2c)

    def _update(self, w, g, m, v, lr, decay, b1c, b2c) -> None:
        """One slice of the update, in place and in the operation order of
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;  w *= decay;
        w -= lr * (m/b1c) / (sqrt(v/b2c) + eps)."""
        cfg = self.config
        s = self._scratch[0, : w.size]
        t = self._scratch[1, : w.size]
        m *= cfg.beta1
        np.multiply(1 - cfg.beta1, g, out=s)
        m += s
        v *= cfg.beta2
        np.multiply(1 - cfg.beta2, g, out=s)
        s *= g
        v += s
        w *= decay
        np.divide(m, b1c, out=s)
        s *= lr
        np.divide(v, b2c, out=t)
        np.sqrt(t, out=t)
        t += cfg.eps
        s /= t
        w -= s

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# -- metrics -------------------------------------------------------------------


def weighted_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Multi-label weighted F1 over boolean [N, K] arrays."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    tp = (y_true & y_pred).sum(axis=0).astype(float)
    fp = (~y_true & y_pred).sum(axis=0).astype(float)
    fn = (y_true & ~y_pred).sum(axis=0).astype(float)
    precision = np.divide(tp, tp + fp, out=np.zeros_like(tp), where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros_like(tp), where=(tp + fn) > 0)
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros_like(tp), where=(precision + recall) > 0)
    support = (tp + fn)
    if support.sum() == 0:
        return 0.0
    return float((f1 * support).sum() / support.sum())


def mean_iou(confusion: np.ndarray, ignored: list[int]) -> float:
    """mIoU over non-ignored classes with nonzero union."""
    k = confusion.shape[0]
    keep = [c for c in range(k) if c not in set(ignored)]
    ious = []
    for c in keep:
        tp = confusion[c, c]
        union = confusion[c, :].sum() + confusion[:, c].sum() - tp
        if union > 0:
            ious.append(tp / union)
    return float(np.mean(ious)) if ious else 0.0


def compute_metrics(predictions, labels, task: str, ignored: list[int] | None = None,
                    num_classes: int | None = None) -> dict[str, float]:
    """Weighted F1 (classification, threshold 0.5 on sigmoid) or mIoU.

    Classification also reports accuracy: the share of tiles whose top
    logit is one of their present classes. It is the headline number for
    single-label synthetic tasks.
    """
    ignored = ignored or []
    if task == "classification":
        logits = np.asarray(predictions, dtype=float)       # [N, K]
        y_true = np.asarray(labels, dtype=bool)             # [N, K] multi-hot
        probs = 1.0 / (1.0 + np.exp(-logits))
        y_pred = probs >= 0.5
        correct = y_true[np.arange(len(y_true)), np.argmax(logits, axis=1)]
        return {
            "weighted_f1": weighted_f1(y_true, y_pred),
            "accuracy": float(correct.mean()) if len(correct) else 0.0,
        }
    k = num_classes or int(np.max(labels)) + 1
    confusion = np.zeros((k, k), dtype=np.int64)
    pred = np.asarray(predictions).reshape(-1)
    true = np.asarray(labels).reshape(-1)
    valid = ~np.isin(true, list(ignored))
    np.add.at(confusion, (true[valid], pred[valid]), 1)
    return {"miou": mean_iou(confusion, ignored)}


def backbone_checksum(params: dict[str, Tensor]) -> str:
    """SHA-256 over the non-head parameters, in name order, as float32 bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        if name.startswith("head/"):
            continue
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data, dtype="<f4").tobytes())
    return h.hexdigest()


# -- run configuration -----------------------------------------------------------


@dataclass
class RunConfig:
    preset: str
    data_dir: str
    phase: str
    out_dir: str
    seed: int = 0
    epochs: int = 1
    batch_size: int = 16
    base_lr: float | None = None
    fusion_mode: str | None = None
    multispectral: str | None = None
    target_norm: str | None = None
    mask_ratio: float | None = None
    init_checkpoint: str | None = None

    def resolved_base_lr(self) -> float:
        return self.base_lr if self.base_lr is not None else _PHASE_BASE_LR[self.phase]


@dataclass
class RunResult:
    out_dir: Path
    params: dict[str, Tensor]
    history: list[dict] = field(default_factory=list)

    @property
    def final(self) -> dict:
        return self.history[-1] if self.history else {}


def _load_into(params: dict[str, Tensor], path: str) -> int:
    """Assign checkpoint arrays into matching parameter names; returns count."""
    stored = load_checkpoint(path)
    matched = 0
    for name, arr in stored.items():
        if name in params:
            if params[name].data.shape != arr.shape:
                raise ValueError(f"checkpoint {path}: shape mismatch for {name}")
            params[name].data = arr
            matched += 1
    if matched == 0:
        raise ValueError(f"checkpoint {path}: no compatible parameters")
    return matched


def _multi_hot(classes: list[int], k: int) -> np.ndarray:
    v = np.zeros(k)
    v[list(classes)] = 1.0
    return v


def evaluate_model(cache: TileCache, dataset: DatasetSpec, fusion: FusionConfig,
                   dims: ModelDims, plan, params: dict[str, Tensor],
                   tables, tile_ids: list[int], seed: int = 0) -> dict[str, float]:
    """Deterministic evaluation over the non-overlapping crop partition."""
    reps = cache.manifest.dataset.repetition_factor
    with ad.no_grad():
        if dataset.task == "classification":
            logits_all, labels_all = [], []
            for tid in tile_ids:
                acc = None
                for rep in range(reps):
                    batch = assemble_tile(cache, tid, dataset, fusion, tables,
                                          train=False, seed=seed, epoch=0,
                                          repetition=rep)
                    z = task_logits(batch, dataset, fusion, dims, plan, params,
                                    params).data
                    acc = z if acc is None else acc + z
                logits_all.append(acc / reps)
                labels_all.append(_multi_hot(cache.manifest.tile(tid).label_classes,
                                             dataset.num_classes))
            return compute_metrics(np.stack(logits_all), np.stack(labels_all),
                                   "classification")
        preds, trues = [], []
        for tid in tile_ids:
            for rep in range(reps):
                batch = assemble_tile(cache, tid, dataset, fusion, tables,
                                      train=False, seed=seed, epoch=0,
                                      repetition=rep)
                z = task_logits(batch, dataset, fusion, dims, plan, params,
                                params).data
                preds.append(np.argmax(z, axis=1))
                trues.append(batch.label_grid.reshape(-1))
        return compute_metrics(np.concatenate(preds), np.concatenate(trues),
                               "segmentation", dataset.ignored_class_ids,
                               dataset.num_classes)


def run_phase(cfg: RunConfig) -> RunResult:
    """Execute one workflow phase end to end; writes checkpoint, metrics log,
    and a resolved-config snapshot that reproduces the run bit-exactly."""
    if cfg.phase not in PHASES:
        raise ValueError(f"unknown phase {cfg.phase!r}")
    _, fusion, dims = load_preset(cfg.preset)
    fusion = override_fusion(fusion, cfg.fusion_mode, cfg.multispectral,
                             cfg.target_norm, cfg.mask_ratio)
    manifest = load_manifest(cfg.data_dir)
    dataset = manifest.dataset
    validate(dataset, fusion, dims).raise_if_failed()

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = {"run": asdict(cfg), "resolved": {
        "fusion": asdict(fusion), "dims": asdict(dims), "dataset": dataset.name}}
    (out_dir / "config.json").write_text(json.dumps(snapshot, indent=1, sort_keys=True),
                                         encoding="utf-8")

    plan = build_routing(dataset, fusion, dims)
    params = build_parameters(dataset, fusion, dims, cfg.seed)
    if cfg.phase in ("probe", "finetune"):
        params.update(build_head_params(dataset.num_classes, dims.encoder_width, cfg.seed))
    if cfg.init_checkpoint:
        _load_into(params, cfg.init_checkpoint)

    trainable = dict(params)
    if cfg.phase == "probe":
        trainable = {k: v for k, v in params.items() if k.startswith("head/")}
        for k, v in params.items():
            if not k.startswith("head/"):
                v.requires_grad = False

    cache = TileCache(manifest)
    tables = build_tables(dataset, dims)

    if cfg.phase == "pretrain":
        train_ids = manifest.split_ids("train") + manifest.split_ids("val")
    else:
        train_ids = manifest.split_ids("train")
    eval_ids = manifest.split_ids("val")
    if not train_ids:
        raise ValueError("no training tiles in manifest")

    reps = dataset.repetition_factor
    work_items = [(tid, rep) for tid in train_ids for rep in range(reps)]
    steps_per_epoch = math.ceil(len(work_items) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    peak = cfg.resolved_base_lr() * math.sqrt(cfg.batch_size)
    final_div = _PHASE_FINAL_DIV[cfg.phase]

    optimizer = AdamW(trainable, AdamWConfig(lr=peak))
    ema = None
    alpha = 0.0
    if cfg.phase == "finetune":
        ema = {k: p.data.copy() for k, p in params.items()}
        alpha = ema_alpha(cfg.epochs)

    history: list[dict] = []
    log_path = out_dir / "metrics.jsonl"
    step = 0
    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(cfg.epochs):
            order = list(stream_rng(cfg.seed, epoch, 0, "shuffle").permutation(len(work_items)))
            losses = []
            lr = 0.0
            for start in range(0, len(work_items), cfg.batch_size):
                chunk = [work_items[i] for i in order[start: start + cfg.batch_size]]
                optimizer.zero_grad()
                batch_losses = []
                for tid, rep in chunk:
                    batch = assemble_tile(cache, tid, dataset, fusion, tables,
                                          train=True, seed=cfg.seed, epoch=epoch,
                                          repetition=rep)
                    if cfg.phase == "pretrain":
                        mask_rng = stream_rng(cfg.seed, epoch, tid, f"mask/{rep}")
                        mask_plan = sample_mask_plan(batch.layout, fusion, mask_rng)
                        loss = pretrain_loss(batch, dataset, fusion, dims, plan,
                                             params, mask_plan)
                    else:
                        logits = task_logits(batch, dataset, fusion, dims, plan,
                                             params, params)
                        if dataset.task == "classification":
                            target = _multi_hot(manifest.tile(tid).label_classes,
                                                dataset.num_classes)
                            loss = ad.bce_with_logits(logits.reshape(1, -1),
                                                      target.reshape(1, -1))
                        else:
                            labels = batch.label_grid.reshape(-1)
                            valid = ~np.isin(labels, dataset.ignored_class_ids)
                            loss = ad.cross_entropy(logits, labels, valid)
                    scaled = loss * (1.0 / len(chunk))
                    scaled.backward()
                    batch_losses.append(float(loss.data))
                lr = one_cycle_lr(step, total_steps, peak, final_div=final_div)
                optimizer.step(lr)
                step += 1
                losses.append(float(np.mean(batch_losses)))
            if ema is not None:
                ema_update(ema, params, alpha)
            record = {"phase": cfg.phase, "epoch": epoch, "lr": lr,
                      "loss": float(np.mean(losses))}
            if cfg.phase != "pretrain" and eval_ids and epoch == cfg.epochs - 1:
                eval_params = params
                if ema is not None:
                    eval_params = {k: Tensor(v) for k, v in ema.items()}
                record["metric"] = evaluate_model(cache, dataset, fusion, dims,
                                                  plan, eval_params, tables,
                                                  eval_ids, cfg.seed)
            history.append(record)
            log.write(json.dumps(record, sort_keys=True) + "\n")
            log.flush()

    save_checkpoint(out_dir / "checkpoint.mstr", params)
    if ema is not None:
        save_checkpoint(out_dir / "checkpoint_ema.mstr", ema)
    for v in params.values():
        v.requires_grad = True
    return RunResult(out_dir=out_dir, params=params, history=history)
