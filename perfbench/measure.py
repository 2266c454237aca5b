"""The measured part of one benchmark run, in its own process.

Usage: ``python3 perfbench/measure.py <job.json> <result.json>``, started by
``run.py``, which reads this process's peak resident memory when it ends.
The job names the workload's plan (from ``workloads.setup``), the seed, the
run length and whether to trace. Whole rounds run until the run length has
passed; then the outputs are checked and the result is written as JSON.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks

# Timed ``training.evaluate_model`` calls per evaluation of the val split.
EVAL_CALLS = 4


def _load_params(path: str) -> dict:
    from eomae.autodiff import Tensor
    from eomae.backbone import load_checkpoint

    return {k: Tensor(v) for k, v in load_checkpoint(path).items()}


def _checksum(path: str) -> str:
    from eomae import training

    return training.backbone_checksum(_load_params(path))


class Context:
    """What every operation of the workload shares: its config and dataset."""

    def __init__(self, plan: dict):
        from eomae.pipeline import build_tables
        from eomae.router import build_routing
        from eomae.specs import load_preset
        from eomae.tiles import load_manifest

        self.plan = plan
        self.dataset, fusion, self.dims = load_preset(plan["preset"])
        if plan["fusion"]:
            fusion.mode = plan["fusion"]
        self.fusion = fusion
        self.manifest = load_manifest(plan["data"])
        self.routing = build_routing(self.dataset, self.fusion, self.dims)
        self.tables = build_tables(self.dataset, self.dims)
        self.reps = self.dataset.repetition_factor
        self.train_ids = self.manifest.split_ids("train")
        self.val_ids = self.manifest.split_ids("val")

    def train_visits(self, op: dict) -> int:
        ids = self.train_ids + (self.val_ids if op["kind"] == "pretrain" else [])
        return len(ids) * self.reps * op["epochs"]

    def eval_visits(self) -> int:
        return len(self.val_ids) * self.reps

    def evaluate(self, checkpoint: str, seed: int) -> tuple[list[dict], list[float]]:
        """Evaluate ``checkpoint`` over the val split in ``EVAL_CALLS`` calls of
        ``training.evaluate_model``; returns each call's metric and its tiles
        per second."""
        from eomae import training
        from eomae.pipeline import TileCache

        params = _load_params(checkpoint)
        cache = TileCache(self.manifest)
        metrics, rates = [], []
        size = math.ceil(len(self.val_ids) / EVAL_CALLS)
        for at in range(0, len(self.val_ids), size):
            chunk = self.val_ids[at: at + size]
            t0 = time.perf_counter()
            metrics.append(training.evaluate_model(
                cache, self.dataset, self.fusion, self.dims, self.routing, params,
                self.tables, chunk, seed))
            rates.append(len(chunk) * self.reps / (time.perf_counter() - t0))
        return metrics, rates

    def start_head(self, seed: int) -> dict:
        """The head a probe with ``seed`` starts from: ``run_phase`` builds it
        and the start checkpoint, a pretraining one, holds no head."""
        from eomae.heads import build_head_params

        head = build_head_params(self.dataset.num_classes, self.dims.encoder_width, seed)
        return {k: t.data for k, t in head.items()}

    def one_tile_loss(self, params: dict, seed: int):
        """The fine-tuning loss of the first training tile, as a closure."""
        from eomae import autodiff as ad
        from eomae.pipeline import TileCache, assemble_tile, task_logits

        tid = self.train_ids[0]
        batch = assemble_tile(TileCache(self.manifest), tid, self.dataset, self.fusion,
                              self.tables, train=True, seed=seed, epoch=0)
        target = np.zeros((1, self.dataset.num_classes))
        target[0, self.manifest.tile(tid).label_classes] = 1.0

        def loss():
            z = task_logits(batch, self.dataset, self.fusion, self.dims, self.routing,
                            params, params)
            return ad.bce_with_logits(z.reshape(1, -1), target)
        return loss


def _history(out: str) -> list[dict]:
    path = Path(out) / "metrics.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class StepClock:
    """When each training operation's loop starts and when each of its
    optimizer steps ends: the constructor and ``step`` of
    ``training.AdamW`` are wrapped to append the time, and to do nothing
    else. ``run_phase`` builds its optimizer just before the epoch loop."""

    def __init__(self):
        from eomae import training

        self.stamps: list[float] = []
        stamps = self.stamps

        def stamped(method):
            def wrapper(optimizer, *args, **kwargs):
                try:
                    return method(optimizer, *args, **kwargs)
                finally:
                    stamps.append(time.perf_counter())
            return wrapper

        training.AdamW.__init__ = stamped(training.AdamW.__init__)
        training.AdamW.step = stamped(training.AdamW.step)


def epoch_rates(stamps: list[float], tiles_per_epoch: int, batch: int,
                epochs: int) -> list[float]:
    """Tiles per second of each epoch of one training operation.

    ``stamps`` holds the end of the optimizer's construction, then the end
    of every step. An epoch's window runs from the end of the previous
    epoch's last step (the first epoch: from the construction) to the end of
    its own last step, so it holds everything the epoch does: its tile
    reads, the first step's allocations, cyclic garbage collection, and the
    epoch-end EMA update and logging. Raises ``ValueError`` when the stamps
    do not fit the schedule.
    """
    per_epoch = math.ceil(tiles_per_epoch / batch)
    if len(stamps) != 1 + per_epoch * epochs:
        raise ValueError(f"{len(stamps)} optimizer stamps, expected one construction "
                         f"and {per_epoch} steps for each of {epochs} epochs")
    ends = stamps[::per_epoch]
    return [tiles_per_epoch / (ends[e + 1] - ends[e]) for e in range(epochs)]


def run_op(op: dict, ctx: Context, seed: int, clock: StepClock) -> tuple[bool, list[float], dict]:
    """Run one operation; returns (succeeded, tiles/s samples, outputs). The
    samples of a training operation are its epochs, in order; those of an
    evaluation are its ``training.evaluate_model`` calls. A training
    operation whose optimizer steps do not fit its schedule has no samples
    and an ``error`` output."""
    from eomae import cli

    if op["kind"] == "evaluate":
        metrics, rates = ctx.evaluate(op["checkpoint"], seed)
        return True, rates, {"metric": metrics}
    sink = io.StringIO()
    clock.stamps.clear()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(op["argv"])
    if rc != 0:
        print(f"{op['kind']} exited {rc}: {sink.getvalue().strip()}", file=sys.stderr)
        return False, [], {}
    history = _history(op["out"])
    try:
        rates = epoch_rates(clock.stamps, ctx.train_visits(op) // op["epochs"], op["batch"],
                            op["epochs"])
    except ValueError as exc:
        return True, [], {"history": history, "error": str(exc)}
    return True, rates, {"history": history}


def fast_quartile(samples: list[float] | None, higher: bool) -> float:
    """The quartile of ``samples`` on the fast side: the upper quartile of
    rates, the lower quartile of durations.

    Every end-to-end figure but set-up and memory is one of these over short
    samples (training epochs, evaluation calls, operations). On a shared
    machine bursts of contention slow everything by up to 1.5x for seconds
    at a time and cover a varying share of a run; they only ever slow a
    sample, so the fast quartile stays put unless three quarters of the run
    is slowed, while a change that slows every sample still moves it.
    """
    if not samples:
        return math.nan
    if len(samples) == 1:
        return samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q3 if higher else q1


def train_rate(ctx: Context, ops: list[dict], rates: dict[str, list[float]]) -> float:
    """Training tile-visits per second of one round built from fast-quartile
    epochs: per operation kind and epoch index, the fast quartile of that
    epoch's rates, combined by tile-visits. The first epoch, which reads the
    tiles from disk, keeps its weight however fast the later ones are."""
    visits = seconds = 0.0
    for op in ops:
        if op["kind"] == "evaluate":
            continue
        per_epoch = ctx.train_visits(op) / op["epochs"]
        for epoch in range(op["epochs"]):
            visits += per_epoch
            seconds += per_epoch / fast_quartile(rates.get(f"{op['kind']}/{epoch}"),
                                                 higher=True)
    return visits / seconds


def check_round(ctx: Context, outputs: dict, first: dict, seed: int) -> list[str]:
    """Checks on one round's outputs by operation kind; ``first`` holds the
    first outputs of each kind, which every later round must repeat exactly."""
    plan = ctx.plan
    errors = []
    for kind, out in outputs.items():
        if kind in first and out != first[kind]:
            errors.append(f"{kind}: a repeated round gave other outputs than the first")
        first.setdefault(kind, out)
    for op in plan["ops"]:
        kind = op["kind"]
        out = outputs.get(kind)
        if out is None or kind == "evaluate":
            continue
        if "error" in out:
            errors.append(f"{kind}: {out['error']}")
        losses = [h["loss"] for h in out["history"]]
        if kind in plan["falling"]:
            errors += checks.losses_fall(kind, losses)
        else:
            errors += checks.losses_finite(kind, losses)
        if kind == "probe":
            checkpoint = str(Path(op["out"]) / "checkpoint.mstr")
            errors += checks.backbone_unchanged("probe", _checksum(op["init"]),
                                                _checksum(checkpoint))
            trained = {k: t.data for k, t in _load_params(checkpoint).items()}
            errors += checks.head_trained("probe", ctx.start_head(seed), trained)
    return errors


def check_macs(ctx: Context, rec, rounds: int) -> list[str]:
    """Counted MACs per layer against analytic counts, per operation."""
    from eomae.costs import pretrain_cost, transfer_cost

    pre = pretrain_cost(ctx.dataset, ctx.fusion, ctx.dims).terms
    tra = transfer_cost(ctx.dataset, ctx.fusion, ctx.dims).terms
    head = int(tra["attn_pool"] + tra["proj_cls"]) + ctx.dims.encoder_width ** 2
    errors = []

    def counted(span, op, context):
        return rec.span_total(span, 3, ops=(op,), context=context)

    per_round = {}
    for op in ctx.plan["ops"]:
        per_round[op["kind"]] = per_round.get(op["kind"], 0) + 1
    for kind, repeats in per_round.items():
        op = next(o for o in ctx.plan["ops"] if o["kind"] == kind)
        n_ops = repeats * rounds
        visits = {"train": 0 if kind == "evaluate" else ctx.train_visits(op) * n_ops,
                  "eval": 0 if kind == "pretrain" else ctx.eval_visits() * n_ops}
        for context, n in visits.items():
            label = f"{kind}/{context}"
            calls = rec.span_total("pipeline.assemble", 0, ops=(kind,), context=context)
            if calls != n:
                errors.append(f"{label}: {calls} tiles assembled, expected {n}")
            if n == 0:
                continue
            terms = pre if kind == "pretrain" and context == "train" else tra
            errors += checks.macs_equal(f"{label} tokenizer.embed",
                                        counted("tokenizer.embed", kind, context),
                                        n * int(terms["patchify"]))
            expected_enc = rec.count_total("router.encode.expected_macs", ops=(kind,),
                                           context=context)
            errors += checks.macs_equal(f"{label} router.encode",
                                        counted("router.encode", kind, context), expected_enc)
            if terms is pre:
                errors += checks.macs_equal(f"{label} tokenizer.project_out",
                                            counted("tokenizer.project_out", kind, context),
                                            n * int(pre["unpatchify"]))
                errors += checks.macs_equal(
                    f"{label} router.decode", counted("router.decode", kind, context),
                    rec.count_total("router.decode.expected_macs", ops=(kind,),
                                    context=context))
            else:
                errors += checks.macs_equal(f"{label} router.encode (costs.transfer_cost)",
                                            expected_enc, n * int(tra["encoder"]))
                errors += checks.macs_equal(f"{label} heads.head",
                                            counted("heads.head", kind, context), n * head)
    return errors


_TIMED_LAYERS = (
    "tiles.read", "pipeline.assemble", "masking.sample", "targets.normalize",
    "targets.loss", "tokenizer.project_out", "tokenizer.embed", "router.encode",
    "router.decode", "backbone.block", "autodiff.backward", "backbone.attention",
    "autodiff.gelu", "autodiff.layer_norm", "autodiff.softmax", "heads.head",
)
_MAC_LAYERS = ("tokenizer.embed", "router.encode", "router.decode",
               "tokenizer.project_out", "heads.head")


def per_layer(rec, ops) -> dict[str, float]:
    """Per-layer figures of the workload's operations ``ops`` in the traced
    run, per training tile-visit unless the name says otherwise."""
    def ratio(a, b):
        return a / b if b else 0.0

    def span(name, field, context=None):
        return rec.span_total(name, field, ops=ops, context=context)

    def count(name, context=None):
        return rec.count_total(name, ops=ops, context=context)

    visits = span("pipeline.assemble", 0, "train")
    out = {f"{name}_ms": 1e3 * ratio(span(name, 1, "train"), visits) for name in _TIMED_LAYERS}
    for name in _MAC_LAYERS:
        out[f"{name}_macs"] = ratio(span(name, 3, "train"), visits)
    out["router.sequences_per_tile"] = ratio(count("router.sequences", "train"), visits)
    out["autodiff.nodes_per_tile"] = ratio(count("autodiff.nodes", "train"), visits)
    out["backbone.block_gflops"] = 2e-9 * ratio(span("backbone.block", 3, "train"),
                                                span("backbone.block", 2, "train"))
    out["autodiff.backward_rss_mb"] = rec.count_max("autodiff.backward_rss_bytes", ops) / 2 ** 20
    out["training.eval_ms"] = 1e3 * ratio(span("training.eval", 2),
                                          span("pipeline.assemble", 0, "eval"))
    for name in ("training.ema", "training.optim", "backbone.checkpoint"):
        out[f"{name}_ms"] = 1e3 * ratio(span(name, 2), span(name, 0))
    out["training.optim_grad_share"] = ratio(count("training.optim_grad_params"),
                                             count("training.optim_params"))
    out["backbone.checkpoint_mb"] = ratio(count("backbone.checkpoint_bytes"),
                                          span("backbone.checkpoint", 0)) / 2 ** 20
    return out


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    plan, seed, seconds = job["plan"], job["seed"], job["seconds"]
    rec = None
    if job["trace"]:
        import spans
        from eomae import autodiff

        rec = spans.Recorder(autodiff.macs)
        spans.instrument(rec)
    ctx = Context(plan)

    clock = StepClock()
    attempted = failed = rounds = 0
    rates: dict[str, list[float]] = {}       # "evaluate" or "<kind>/<epoch>" -> tiles/s samples
    durations: dict[str, list[float]] = {}   # operation kind -> wall seconds of each
    errors: list[str] = []
    first: dict = {}
    start = time.perf_counter()
    while True:
        outputs = {}
        for op in plan["ops"]:
            gc.collect()
            if rec is not None:
                rec.op = op["kind"]
            attempted += 1
            t0 = time.perf_counter()
            ok, samples, out = run_op(op, ctx, seed, clock)
            durations.setdefault(op["kind"], []).append(time.perf_counter() - t0)
            if not ok:
                failed += 1
                continue
            if op["kind"] == "evaluate":
                rates.setdefault("evaluate", []).extend(samples)
            else:
                for epoch, rate in enumerate(samples):
                    rates.setdefault(f"{op['kind']}/{epoch}", []).append(rate)
            outputs[op["kind"]] = out
        if rec is not None:
            rec.op = "check"
        errors += check_round(ctx, outputs, first, seed)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    if plan["gradcheck"] and failed == 0:
        final = next(op for op in plan["ops"] if op["kind"] != "evaluate")
        params = _load_params(str(Path(final["out"]) / "checkpoint.mstr"))
        for p in params.values():
            p.requires_grad = True
        analytic, numeric = checks.directional_derivative(ctx.one_tile_loss(params, seed),
                                                          params, seed)
        errors += checks.gradient_agrees("one-tile finetune loss", analytic, numeric)
    if rec is not None and failed == 0:
        errors += check_macs(ctx, rec, rounds)

    figures = {
        "train_tiles_per_s": train_rate(ctx, plan["ops"], rates),
        "eval_tiles_per_s": fast_quartile(rates.get("evaluate"), higher=True),
        "wall_s": sum(fast_quartile(durations[op["kind"]], higher=False) for op in plan["ops"]),
    }
    errors += [f"{name} is {value}" for name, value in figures.items()
               if not math.isfinite(value)]
    result = {"attempted": attempted, "failed": failed, "rounds": rounds, "errors": errors,
              "durations": durations, **figures}
    if rec is not None:
        result["per_layer"] = per_layer(rec, tuple(op["kind"] for op in plan["ops"]))
        result["trace"] = rec.to_dict()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
