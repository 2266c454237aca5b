from __future__ import annotations

import json
import re

import numpy as np
import pytest

from eomae.cli import main
from eomae.tiles import (TileError, TileMagicError, TileShapeError, TileTruncatedError,
                         load_manifest, read_tensor, read_tile, write_tensor)


class TestTensorFormat:
    def test_roundtrip_f32(self, tmp_path, rng):
        arr = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr)

    def test_roundtrip_u16(self, tmp_path):
        arr = np.arange(12, dtype=np.uint16).reshape(3, 4)
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        out = read_tensor(path)
        assert out.dtype == np.uint16 and np.array_equal(out, arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(TileMagicError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "t.bin"
        write_tensor(path, rng.normal(size=(4, 4)).astype(np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TileTruncatedError):
            read_tensor(path)

    def test_deterministic_bytes(self, tmp_path, rng):
        arr = rng.normal(size=(2, 3)).astype(np.float32)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_tensor(p1, arr)
        write_tensor(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()


class TestManifestAndReadTile:
    def test_read_tile_roundtrip(self, tiny_dataset):
        series = read_tile(tiny_dataset, 0, "hires")
        spec = tiny_dataset.dataset.modality("hires")
        assert series.data.shape[1:] == (spec.channels, spec.image_size, spec.image_size)
        assert len(series.times) == series.data.shape[0]

    def test_manifest_reload_equivalent(self, tiny_dataset):
        again = load_manifest(tiny_dataset.root)
        assert again.dataset == tiny_dataset.dataset
        assert len(again.tiles) == len(tiny_dataset.tiles)
        a = read_tile(tiny_dataset, 3, "series")
        b = read_tile(again, 3, "series")
        assert np.array_equal(a.data, b.data)
        assert a.times == b.times

    def test_unknown_modality(self, tiny_dataset):
        with pytest.raises(KeyError):
            read_tile(tiny_dataset, 0, "nope")

    def test_shape_mismatch_detected(self, tiny_dataset, rng):
        entry = tiny_dataset.tile(1)
        path = tiny_dataset.root / entry.files["hires"]["data"]
        write_tensor(path, rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        with pytest.raises(TileShapeError):
            read_tile(tiny_dataset, 1, "hires")
        # restore for other tests
        from eomae.synthetic import generate, load_recipe
        recipe = load_recipe("pretrain")
        recipe.num_tiles = 16
        generate(recipe, tiny_dataset.dataset, tiny_dataset.root)

    def test_corrupted_magic_detected(self, tiny_dataset):
        entry = tiny_dataset.tile(2)
        path = tiny_dataset.root / entry.files["hires"]["data"]
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(TileMagicError):
            read_tile(tiny_dataset, 2, "hires")
        from eomae.synthetic import generate, load_recipe
        recipe = load_recipe("pretrain")
        recipe.num_tiles = 16
        generate(recipe, tiny_dataset.dataset, tiny_dataset.root)


def _first_tile_id_as_string(text: str) -> str:
    d = json.loads(text)
    d["tiles"][0]["tile_id"] = str(d["tiles"][0]["tile_id"])
    return json.dumps(d)


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[: len(text) // 2], r"line \d+ column \d+"),
    (lambda text: text.replace('"split"', '"splt"', 1),
     re.escape("tiles[0]: unknown field(s) ['splt']")),
    (lambda text: json.dumps({"dataset": json.loads(text)["dataset"]}),
     re.escape("missing required field 'tiles'")),
    (lambda text: _first_tile_id_as_string(text),
     re.escape("tiles[0].tile_id: expected int, got str")),
], ids=["truncated", "unknown_tile_field", "no_tiles", "wrong_typed_tile_field"])
def test_malformed_manifest_is_tile_error(tiny_dataset, tmp_path, capsys, corrupt, message):
    text = (tiny_dataset.root / "manifest.json").read_text(encoding="utf-8")
    (tmp_path / "manifest.json").write_text(corrupt(text), encoding="utf-8")
    with pytest.raises(TileError, match=message) as e:
        load_manifest(tmp_path)
    assert str(tmp_path / "manifest.json") in str(e.value)
    code = main(["probe", "--preset", "synthetic_pretrain", "--data", str(tmp_path),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("i/o error: ") and err.count("\n") == 1
