"""Command-line surface: pretrain / probe / finetune / cost / gen-data /
audit-mask / inspect / report.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error. Flags
override config-file fields, which override preset defaults. The default
data root comes from the EOMAE_DATA_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import specs
from .backbone import CheckpointError
from .costs import cost_for_phase
from .encodings import spatial_table, table_digest
from .masking import empirical_axis_stats, layout_from
from .router import build_routing
from .synthetic import generate, load_recipe
from .tiles import TileError
from .training import RunConfig, run_phase


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _data_root() -> str:
    return os.environ.get("EOMAE_DATA_ROOT", ".")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", required=True, help="preset name or config path")
    p.add_argument("--data", default=None, help="dataset directory (manifest.json)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--base-lr", type=float, default=None)
    p.add_argument("--fusion", default=None, choices=specs.FUSION_MODES)
    p.add_argument("--multispectral", default=None, choices=specs.MULTISPECTRAL_FLAVORS)
    p.add_argument("--target-norm", default=None, choices=specs.TARGET_NORMS)
    p.add_argument("--mask-ratio", type=float, default=None)
    p.add_argument("--init", default=None, help="initial checkpoint")


def _run_config(args, phase: str) -> RunConfig:
    data = args.data or _data_root()
    return RunConfig(
        preset=args.preset, data_dir=data, phase=phase, out_dir=args.out,
        seed=args.seed, epochs=args.epochs, batch_size=args.batch,
        base_lr=args.base_lr, fusion_mode=args.fusion,
        multispectral=args.multispectral, target_norm=args.target_norm,
        mask_ratio=args.mask_ratio, init_checkpoint=args.init)


def _cmd_phase(args, phase: str) -> int:
    result = run_phase(_run_config(args, phase))
    final = result.final
    print(f"{phase} done: epochs={len(result.history)} final_loss={final.get('loss'):.6f}")
    if "metric" in final:
        print("metric:", json.dumps(final["metric"], sort_keys=True))
    return 0


def _cmd_cost(args) -> int:
    dataset, fusion, dims = specs.load_preset(args.preset)
    if args.fusion:
        fusion.mode = args.fusion
    if args.multispectral:
        fusion.multispectral = args.multispectral
    specs.validate(dataset, fusion, dims).raise_if_failed()
    report = cost_for_phase(dataset, fusion, dims, args.phase)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["term", "macs"])
        for term, macs in report.terms.items():
            w.writerow([term, f"{macs:.0f}"])
        w.writerow(["total", f"{report.total_macs:.0f}"])
    else:
        for term, macs in report.terms.items():
            print(f"  {term:<12} {macs / 1e9:10.3f} GMACs")
        print(f"{dataset.name} {fusion.multispectral} {fusion.mode} {args.phase}: "
              f"{report.gmacs():.1f} GMACs / {report.gflops():.1f} GFLOPs")
    return 0


def _cmd_gen_data(args) -> int:
    recipe = load_recipe(args.recipe)
    dataset, _, _ = specs.load_preset(args.spec)
    specs.validate(dataset).raise_if_failed()
    manifest = generate(recipe, dataset, args.out)
    print(f"wrote {len(manifest.tiles)} tiles to {manifest.root}")
    return 0


def _cmd_audit_mask(args) -> int:
    dataset, fusion, _ = specs.load_preset(args.preset)
    layout = layout_from(dataset, fusion)
    rows = empirical_axis_stats(layout, fusion, args.seed, args.plans)
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        w = csv.DictWriter(out, fieldnames=["axis", "modality", "index", "masked_frequency"])
        w.writeheader()
        w.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_inspect(args) -> int:
    dataset, fusion, dims = specs.load_preset(args.preset)
    if args.fusion:
        fusion.mode = args.fusion
    if args.multispectral:
        fusion.multispectral = args.multispectral
    specs.validate(dataset, fusion, dims).raise_if_failed()
    if args.what == "routing":
        plan = build_routing(dataset, fusion, dims)
        print(json.dumps(plan.to_dict(), indent=1, sort_keys=True))
    else:
        tables = spatial_table(dataset.active_modalities(), dims.encoder_width)
        payload = {
            "preset": dataset.name,
            "encoder_width": dims.encoder_width,
            "tables": {
                name: {"shape": list(t.shape), "sha256": table_digest(t),
                       "corner": [float(x) for x in t[0, :4]]}
                for name, t in sorted(tables.items())
            },
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    path = Path(args.log)
    if not path.exists():
        raise TileError(f"no metrics log at {path}")
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    w = csv.writer(sys.stdout)
    w.writerow(["phase", "epoch", "lr", "loss", "metric"])
    for r in rows:
        metric = r.get("metric")
        w.writerow([r.get("phase"), r.get("epoch"), f"{r.get('lr', 0):.3e}",
                    f"{r.get('loss', float('nan')):.6f}",
                    json.dumps(metric, sort_keys=True) if metric else ""])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="eomae")
    sub = parser.add_subparsers(dest="command", required=True)

    for phase in ("pretrain", "probe", "finetune"):
        p = sub.add_parser(phase)
        _add_run_args(p)

    p = sub.add_parser("cost")
    p.add_argument("--preset", required=True)
    p.add_argument("--fusion", default=None, choices=specs.FUSION_MODES)
    p.add_argument("--multispectral", default=None, choices=specs.MULTISPECTRAL_FLAVORS)
    p.add_argument("--phase", default="pretrain", choices=["pretrain", "probe", "finetune"])
    p.add_argument("--format", default="text", choices=["text", "json", "csv"])

    p = sub.add_parser("gen-data")
    p.add_argument("--recipe", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("audit-mask")
    p.add_argument("--preset", required=True)
    p.add_argument("--plans", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("inspect")
    p.add_argument("--preset", required=True)
    p.add_argument("--what", default="routing", choices=["routing", "encodings"])
    p.add_argument("--fusion", default=None, choices=specs.FUSION_MODES)
    p.add_argument("--multispectral", default=None, choices=specs.MULTISPECTRAL_FLAVORS)

    p = sub.add_parser("report")
    p.add_argument("--log", required=True, help="metrics.jsonl path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("pretrain", "probe", "finetune"):
            return _cmd_phase(args, args.command)
        if args.command == "cost":
            return _cmd_cost(args)
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "audit-mask":
            return _cmd_audit_mask(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "report":
            return _cmd_report(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CheckpointError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, TileError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
