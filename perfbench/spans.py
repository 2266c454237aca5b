"""Span recording for the traced benchmark run.

The program is not changed: :func:`instrument` replaces module attributes
with timing wrappers at the names callers look them up by. ``training.py``
imports ``assemble_tile`` by name, for example, so the span wraps
``training.assemble_tile``, not ``pipeline.assemble_tile``.

Each span records its calls, self time (its duration minus the durations of
spans that ran inside it), inclusive time and the multiply-accumulates that
``autodiff.macs()`` counted inside it. Statistics are keyed by
``(operation, context, span)``: the benchmark names the operation it runs,
and the context is ``eval`` inside ``training.evaluate_model`` and ``train``
elsewhere. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import checks

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


class Recorder:
    """Span statistics and counters for one process."""

    def __init__(self, macs):
        self._macs = macs
        self.op = "setup"
        self.context = "train"
        self._stack: list[float] = []
        # (op, context, span) -> [calls, self_s, inclusive_s, macs]
        self.spans: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (op, context, counter) -> value
        self.counts: dict[tuple[str, str, str], float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        self.counts[(self.op, self.context, name)] += value

    def peak(self, name: str, value: float) -> None:
        key = (self.op, self.context, name)
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, name: str, fn, hook=None):
        """Time ``fn`` as span ``name``. ``hook(args, kwargs)`` runs before the
        call and may return a callable that runs after it."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(args, kwargs) if hook is not None else None
            stack = rec._stack
            stack.append(0.0)
            m0 = rec._macs()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dur
                st = rec.spans[(rec.op, rec.context, name)]
                st[0] += 1
                st[1] += dur - inner
                st[2] += dur
                st[3] += rec._macs() - m0
                if after is not None:
                    after()

        return traced

    # -- aggregation --------------------------------------------------------

    def span_total(self, name: str, field: int, ops=None, context: str | None = None):
        return sum(v[field] for (op, ctx, n), v in self.spans.items()
                   if n == name and (ops is None or op in ops)
                   and (context is None or ctx == context))

    def count_total(self, name: str, ops=None, context: str | None = None) -> float:
        return sum(v for (op, ctx, n), v in self.counts.items()
                   if n == name and (ops is None or op in ops)
                   and (context is None or ctx == context))

    def count_max(self, name: str, ops=None) -> float:
        return max((v for (op, _, n), v in self.counts.items()
                    if n == name and (ops is None or op in ops)), default=0.0)

    def to_dict(self) -> dict:
        return {
            "spans": [{"op": op, "context": ctx, "span": n, "calls": v[0],
                       "self_s": v[1], "inclusive_s": v[2], "macs": v[3]}
                      for (op, ctx, n), v in sorted(self.spans.items())],
            "counts": [{"op": op, "context": ctx, "counter": n, "value": v}
                       for (op, ctx, n), v in sorted(self.counts.items())],
        }


def instrument(rec: Recorder) -> None:
    """Install span wrappers on the program's modules for this process, and
    record the analytic MAC counts of ``checks`` beside the counted ones."""
    from eomae import autodiff, backbone, cli, pipeline, router, training

    def set_attr(owner, attr, name, hook=None):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), hook))

    def on_encode(args, kwargs):
        mask_plan, plan, dims = args[1], args[2], args[4]
        rec.add("router.encode.expected_macs", checks.encoder_macs(mask_plan, plan, dims))
        rec.add("router.sequences",
                sum(1 for n in checks.visible_lengths(mask_plan, plan) if n > 0))

    def on_decode(args, kwargs):
        rec.add("router.decode.expected_macs", checks.decoder_macs(args[1], args[2], args[4]))

    def on_backward(args, kwargs):
        before = rss_bytes()
        return lambda: rec.peak("autodiff.backward_rss_bytes", rss_bytes() - before)

    def on_step(args, kwargs):
        params = args[0].params.values()
        rec.add("training.optim_params", sum(p.data.size for p in params))
        rec.add("training.optim_grad_params",
                sum(p.data.size for p in params if p.grad is not None))

    def on_eval(args, kwargs):
        prev, rec.context = rec.context, "eval"

        def restore():
            rec.context = prev
        return restore

    def on_save(args, kwargs):
        return lambda: rec.add("backbone.checkpoint_bytes", os.path.getsize(args[0]))

    def on_load(args, kwargs):
        rec.add("backbone.checkpoint_bytes", os.path.getsize(args[0]))

    def on_generate(args, kwargs):
        rec.add("synthetic.tiles", args[0].num_tiles)

    set_attr(pipeline, "read_tile", "tiles.read")
    set_attr(training, "assemble_tile", "pipeline.assemble")
    set_attr(training, "sample_mask_plan", "masking.sample")
    set_attr(pipeline, "normalize_targets", "targets.normalize")
    set_attr(pipeline, "reconstruction_loss", "targets.loss")
    set_attr(pipeline, "embed", "tokenizer.embed")
    set_attr(pipeline, "project_out", "tokenizer.project_out")
    set_attr(pipeline, "encode_visible", "router.encode", on_encode)
    set_attr(pipeline, "decode_with_masks", "router.decode", on_decode)
    set_attr(backbone, "transformer_block", "backbone.block")
    set_attr(router, "transformer_block", "backbone.block")
    set_attr(backbone, "multi_head_attention", "backbone.attention")
    for fn in ("gelu", "layer_norm", "softmax"):
        set_attr(autodiff, fn, f"autodiff.{fn}")
    set_attr(pipeline, "classification_head", "heads.head")
    set_attr(training, "evaluate_model", "training.eval", on_eval)
    set_attr(training, "ema_update", "training.ema")
    set_attr(training, "save_checkpoint", "backbone.checkpoint", on_save)
    set_attr(training, "load_checkpoint", "backbone.checkpoint", on_load)
    set_attr(backbone, "load_checkpoint", "backbone.checkpoint", on_load)
    set_attr(cli, "generate", "synthetic.generate", on_generate)
    set_attr(autodiff.Tensor, "backward", "autodiff.backward", on_backward)
    set_attr(training.AdamW, "step", "training.optim", on_step)

    make = autodiff.Tensor.__dict__["_make"].__func__

    def counted_make(data, parents, backward):
        rec.counts[(rec.op, rec.context, "autodiff.nodes")] += 1
        return make(data, parents, backward)

    autodiff.Tensor._make = staticmethod(counted_make)
