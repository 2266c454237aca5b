from __future__ import annotations

import csv
import io
import json

import pytest

from eomae.cli import main


def test_cost_prints_treesat_pretrain_line(capsys):
    code = main(["cost", "--preset", "treesatai_ts", "--fusion", "group",
                 "--multispectral", "joint-token", "--phase", "pretrain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "14.3 GMACs" in out and "28.7 GFLOPs" in out


def test_cost_json_format(capsys):
    code = main(["cost", "--preset", "pastis_hd", "--phase", "finetune",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_flops"] == 2 * payload["total_macs"]
    assert abs(payload["total_macs"] / 1e9 - 163.4) < 163.4 * 0.005


def test_unknown_flag_exits_1(capsys):
    assert main(["cost", "--preset", "treesatai_ts", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_preset_exits_1(capsys):
    assert main(["cost", "--preset", "not_a_preset"]) == 1


def test_gen_data_then_pretrain_exit_zero(tmp_path, capsys):
    data = tmp_path / "data"
    code = main(["gen-data", "--recipe", "pretrain", "--spec", "synthetic_pretrain",
                 "--out", str(data)])
    assert code == 0
    # shrink: regenerate with a small recipe through the API for speed
    from eomae import specs
    from eomae.synthetic import generate, load_recipe
    recipe = load_recipe("pretrain")
    recipe.num_tiles = 8
    generate(recipe, specs.load_preset("synthetic_pretrain")[0], data)
    code = main(["pretrain", "--preset", "synthetic_pretrain", "--data", str(data),
                 "--out", str(tmp_path / "run"), "--epochs", "1", "--batch", "4",
                 "--base-lr", "1e-3"])
    assert code == 0
    assert (tmp_path / "run" / "metrics.jsonl").exists()


def test_missing_data_dir_is_io_error(tmp_path):
    code = main(["pretrain", "--preset", "synthetic_pretrain",
                 "--data", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_truncated_checkpoint_is_io_error(tmp_path, capsys):
    from eomae import specs
    from eomae.synthetic import generate, load_recipe
    recipe = load_recipe("pretrain")
    recipe.num_tiles = 4
    generate(recipe, specs.load_preset("synthetic_pretrain")[0], tmp_path / "data")
    init = tmp_path / "cut.mstr"
    init.write_bytes(b"MSTR\x01\x00\x05")
    code = main(["probe", "--preset", "synthetic_pretrain", "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "o"), "--init", str(init)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: truncated checkpoint") and err.count("\n") == 1


def test_audit_mask_csv(tmp_path):
    out = tmp_path / "audit.csv"
    code = main(["audit-mask", "--preset", "treesatai_ts", "--plans", "20",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["axis"] == "overall"
    assert abs(float(rows[0]["masked_frequency"]) - 331 / 441) < 1e-9


def test_inspect_routing_json(capsys):
    code = main(["inspect", "--preset", "treesatai_ts", "--what", "routing",
                 "--fusion", "group"])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert sorted(s["length"] for s in plan["sequences"]) == [72, 144, 225]


def test_inspect_encodings_matches_golden(capsys):
    from importlib import resources
    code = main(["inspect", "--preset", "synthetic_pretrain", "--what", "encodings"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    golden = json.loads((resources.files("eomae") / "goldens" / "encoding_tables.json")
                        .read_text())
    for mod, info in payload["tables"].items():
        assert info["sha256"] == golden["synthetic_pretrain"][mod]["sha256"]


def test_report_csv(tmp_path, capsys):
    log = tmp_path / "metrics.jsonl"
    log.write_text(json.dumps({"phase": "probe", "epoch": 0, "lr": 1e-4,
                               "loss": 0.5, "metric": {"accuracy": 0.75}}) + "\n")
    code = main(["report", "--log", str(log)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["phase", "epoch", "lr", "loss", "metric"]
    assert rows[1][0] == "probe" and "accuracy" in rows[1][4]


def test_report_missing_log_is_io_error(tmp_path):
    assert main(["report", "--log", str(tmp_path / "none.jsonl")]) == 2
