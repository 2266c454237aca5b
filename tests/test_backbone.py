from __future__ import annotations

import struct

import numpy as np
import pytest

from eomae import autodiff as ad
from eomae.autodiff import Tensor, grad_check
from eomae.backbone import (CheckpointError, attentive_pool, block_macs,
                            init_block_params, load_checkpoint, save_checkpoint,
                            transformer_block)


def _block_tensors(width, seed=0, zero=False):
    raw = init_block_params(np.random.default_rng(seed), width)
    out = {}
    for k, v in raw.items():
        if zero:
            v = np.zeros_like(v)
        t = Tensor(v)
        t.requires_grad = True
        out[k] = t
    return out


class TestBlock:
    def test_single_token_finite(self, rng):
        p = _block_tensors(8)
        x = Tensor(rng.normal(size=(1, 8)))
        y = transformer_block(x, p, heads=2)
        assert y.shape == (1, 8) and np.isfinite(y.data).all()

    def test_zero_params_identity(self, rng):
        p = _block_tensors(8, zero=True)
        x = Tensor(rng.normal(size=(5, 8)))
        y = transformer_block(x, p, heads=2)
        assert np.allclose(y.data, x.data)

    def test_gradients_vs_fd(self, rng):
        p = _block_tensors(8, seed=3)
        x = Tensor(rng.normal(size=(3, 8)))
        w = Tensor(rng.normal(size=(3, 8)))
        report = grad_check(
            lambda: (transformer_block(x, p, heads=2) * w).sum(),
            p, tol=1e-4, max_coords_per_tensor=4)
        assert report["passed"], report

    @pytest.mark.parametrize("length,width,heads", [(5, 8, 2), (7, 12, 4), (1, 8, 1)])
    def test_multiply_count_matches_formula(self, length, width, heads, rng):
        p = _block_tensors(width)
        x = Tensor(rng.normal(size=(length, width)))
        ad.reset_macs()
        transformer_block(x, p, heads=heads)
        assert ad.macs() == block_macs(length, width)

    def test_softmax_rows_inside_attention(self, rng):
        # indirect check: outputs stay bounded for large inputs
        p = _block_tensors(8)
        x = Tensor(rng.normal(size=(4, 8)) * 50)
        y = transformer_block(x, p, heads=2)
        assert np.isfinite(y.data).all()


class TestAttentivePool:
    def test_single_token_is_value_projection(self, rng):
        q = Tensor(rng.normal(size=8))
        wv = Tensor(rng.normal(size=(8, 8)))
        bv = Tensor(rng.normal(size=8))
        tok = rng.normal(size=(1, 8))
        out = attentive_pool(Tensor(tok), q, wv, bv)
        assert np.allclose(out.data, tok[0] @ wv.data + bv.data)

    def test_duplicate_tokens_same_output(self, rng):
        q = Tensor(rng.normal(size=8))
        wv = Tensor(rng.normal(size=(8, 8)))
        bv = Tensor(rng.normal(size=8))
        a = rng.normal(size=(1, 8))
        single = attentive_pool(Tensor(a), q, wv, bv)
        double = attentive_pool(Tensor(np.vstack([a, a])), q, wv, bv)
        assert np.allclose(single.data, double.data)

    def test_gradients_vs_fd(self, rng):
        q = Tensor(rng.normal(size=8))
        wv = Tensor(rng.normal(size=(8, 8)))
        bv = Tensor(rng.normal(size=8))
        for t in (q, wv, bv):
            t.requires_grad = True
        tokens = Tensor(rng.normal(size=(5, 8)))
        report = grad_check(
            lambda: (attentive_pool(tokens, q, wv, bv) ** 2).sum(),
            {"q": q, "wv": wv, "bv": bv}, tol=1e-4)
        assert report["passed"], report


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        params = {
            "enc/0/blk0/wq": Tensor(rng.normal(size=(4, 4))),
            "tok/a/embed_b": Tensor(rng.normal(size=6)),
            "scalar": Tensor(np.array(2.5)),
        }
        path = tmp_path / "model.mstr"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for k in params:
            assert np.allclose(loaded[k], params[k].data.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mstr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "model.mstr"
        save_checkpoint(path, {"w": Tensor(rng.normal(size=(8, 8)))})
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_every_truncation_raises_checkpoint_error(self, tmp_path, rng):
        path = tmp_path / "model.mstr"
        save_checkpoint(path, {"b": Tensor(rng.normal(size=(2, 3))),
                               "s": Tensor(np.array(1.5))})
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_undecodable_name(self, tmp_path):
        path = tmp_path / "model.mstr"
        path.write_bytes(b"MSTR" + struct.pack("<HIH", 1, 1, 1) + b"\xff")
        with pytest.raises(CheckpointError, match="name"):
            load_checkpoint(path)

    def test_byte_determinism(self, tmp_path, rng):
        params = {"a": Tensor(rng.normal(size=(3, 3))), "b": Tensor(rng.normal(size=2))}
        p1, p2 = tmp_path / "1.mstr", tmp_path / "2.mstr"
        save_checkpoint(p1, params)
        save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()


def test_grad_check_full_pretrain_toy():
    """Finite differences over every parameter family of a tiny pretrain loss."""
    from eomae import specs
    from eomae.masking import sample_mask_plan
    from eomae.pipeline import TileCache, assemble_tile, build_tables, pretrain_loss
    from eomae.router import build_parameters, build_routing
    from eomae.synthetic import generate, load_recipe
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        recipe = load_recipe("pretrain")
        recipe.num_tiles = 2
        dataset, fusion, dims = specs.load_preset("synthetic_pretrain")
        manifest = generate(recipe, dataset, td)
        cache = TileCache(manifest)
        tables = build_tables(dataset, dims)
        plan = build_routing(dataset, fusion, dims)
        params = build_parameters(dataset, fusion, dims, seed=0)
        batch = assemble_tile(cache, 0, dataset, fusion, tables, train=True,
                              seed=0, epoch=0)
        mask_plan = sample_mask_plan(batch.layout, fusion,
                                     np.random.default_rng(7))

        def loss():
            return pretrain_loss(batch, dataset, fusion, dims, plan, params,
                                 mask_plan)

        report = grad_check(loss, params, tol=1e-4, max_coords_per_tensor=2,
                            seed=1)
        assert report["passed"], report
