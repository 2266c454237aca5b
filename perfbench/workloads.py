"""The benchmark's workloads: inputs made from a seed, and the operations of
one round.

A round is the fixed list of operations a workload repeats while it is
measured. Training operations call the ``eomae`` command's entry point,
``eomae.cli.main``; an ``evaluate`` operation times
``training.evaluate_model`` on the final checkpoint of the round. Set-up
(``eomae gen-data`` and, for ``transfer_desk``, the pretraining that makes
the start checkpoint) runs once per process and is timed as ``setup_s``.

``python3 perfbench/workloads.py <workload> <seed> <work directory>`` runs
the set-up alone, untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

NAMES = ("pretrain_desk", "transfer_desk", "paper_width")
EVALUATIONS = 3


def run_cli(argv: list[str]) -> None:
    """Run one ``eomae`` command in this process; raise on a non-zero exit."""
    from eomae import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"eomae {argv[0]} exited {rc}: {sink.getvalue().strip()}")


def _write_recipe(work: Path, seed: int, recipe: str) -> Path:
    """The named generator recipe with its seed replaced by the run's seed."""
    from eomae.synthetic import load_recipe

    fields = asdict(load_recipe(recipe))
    fields["seed"] = seed
    path = work / "recipe.json"
    path.write_text(json.dumps(fields, indent=1, sort_keys=True), encoding="utf-8")
    return path


def _train(phase: str, preset: str, data: Path, out: Path, seed: int, epochs: int,
           batch: int, base_lr: float, fusion: str | None = None,
           init: Path | None = None) -> dict:
    argv = [phase, "--preset", preset, "--data", str(data), "--out", str(out),
            "--seed", str(seed), "--epochs", str(epochs), "--batch", str(batch),
            "--base-lr", repr(base_lr)]
    if fusion:
        argv += ["--fusion", fusion]
    if init:
        argv += ["--init", str(init)]
    return {"kind": phase, "argv": argv, "out": str(out), "epochs": epochs,
            "batch": batch, "init": str(init) if init else None}


def _evaluate(checkpoint: Path) -> list[dict]:
    """``EVALUATIONS`` timed evaluations of the round's final checkpoint."""
    return [{"kind": "evaluate", "checkpoint": str(checkpoint)}] * EVALUATIONS


def setup(name: str, seed: int, work: Path) -> dict:
    """Make the workload's inputs under ``work`` and return its plan.

    The plan is plain JSON: it is handed to the measuring process.
    """
    work.mkdir(parents=True, exist_ok=True)
    data = work / "data"
    rounds = work / "round"
    if name == "pretrain_desk":
        preset = "synthetic_pretrain"
        run_cli(["gen-data", "--recipe", str(_write_recipe(work, seed, "pretrain")),
                 "--spec", preset, "--out", str(data)])
        pre = _train("pretrain", preset, data, rounds / "pre", seed, epochs=2,
                     batch=8, base_lr=2e-3)
        probe = _train("probe", preset, data, rounds / "probe", seed, epochs=2,
                       batch=8, base_lr=3e-3,
                       init=rounds / "pre" / "checkpoint.mstr")
        ops = [pre, probe, *_evaluate(rounds / "probe" / "checkpoint.mstr")]
        return {"preset": preset, "fusion": None, "data": str(data), "ops": ops,
                "falling": ["pretrain", "probe"], "gradcheck": False}
    if name == "transfer_desk":
        preset = "synthetic_temporal"
        run_cli(["gen-data", "--recipe", str(_write_recipe(work, seed, "temporal")),
                 "--spec", preset, "--out", str(data)])
        start = work / "start"
        run_cli(_train("pretrain", preset, data, start, seed, epochs=1, batch=8,
                       base_lr=2e-3, fusion="shared")["argv"])
        init = start / "checkpoint.mstr"
        probe = _train("probe", preset, data, rounds / "probe", seed, epochs=2,
                       batch=8, base_lr=3e-3, fusion="shared", init=init)
        ft = _train("finetune", preset, data, rounds / "ft", seed, epochs=2,
                    batch=8, base_lr=1e-3, fusion="shared", init=init)
        ops = [probe, ft, *_evaluate(rounds / "ft" / "checkpoint_ema.mstr")]
        return {"preset": preset, "fusion": "shared", "data": str(data), "ops": ops,
                "falling": ["probe", "finetune"], "gradcheck": False}
    if name == "paper_width":
        preset = str(CONFIGS / "paper_width.json")
        recipe = json.loads((CONFIGS / "recipe_paper_width.json").read_text(encoding="utf-8"))
        recipe["seed"] = seed
        recipe_path = work / "recipe.json"
        recipe_path.write_text(json.dumps(recipe, indent=1), encoding="utf-8")
        run_cli(["gen-data", "--recipe", str(recipe_path), "--spec", preset,
                 "--out", str(data)])
        ft = _train("finetune", preset, data, rounds / "ft", seed, epochs=2,
                    batch=1, base_lr=1e-4)
        ops = [ft, *_evaluate(rounds / "ft" / "checkpoint_ema.mstr")]
        return {"preset": preset, "fusion": None, "data": str(data), "ops": ops,
                "falling": ["finetune"], "gradcheck": True}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
