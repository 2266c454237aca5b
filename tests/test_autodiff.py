from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from eomae import autodiff as ad
from eomae.autodiff import Tensor, grad_check


def _leaf(arr):
    t = Tensor(np.asarray(arr, dtype=float))
    t.requires_grad = True
    return t


class TestBasics:
    def test_scalar_chain(self):
        x = _leaf(3.0)
        y = _leaf(2.0)
        out = x * y + x / y
        out.backward()
        assert np.isclose(x.grad, 2.0 + 0.5)
        assert np.isclose(y.grad, 3.0 - 3.0 / 4.0)

    def test_broadcast_add(self):
        a = _leaf(np.zeros((3, 4)))
        b = _leaf(np.zeros(4))
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4) and (a.grad == 1).all()
        assert b.grad.shape == (4,) and (b.grad == 3).all()

    def test_reused_node_accumulates(self):
        x = _leaf(2.0)
        out = x * x * x
        out.backward()
        assert np.isclose(x.grad, 12.0)

    def test_backward_needs_scalar(self):
        x = _leaf(np.zeros(3))
        with pytest.raises(ValueError):
            x.backward()

    def test_getitem_scatter(self):
        x = _leaf(np.arange(5.0))
        x[np.array([0, 0, 2])].sum().backward()
        assert np.array_equal(x.grad, [2, 0, 1, 0, 0])

    def test_backward_consumes_graph(self):
        x = _leaf(np.arange(4.0))
        gc.disable()
        try:
            mid = x * 2
            out = (mid * 3).sum()
            ref = weakref.ref(mid)
            del mid
            out.backward()
            assert out._backward is None and out._prev == () and out.grad is None
            del out
            assert ref() is None
        finally:
            gc.enable()
        assert np.array_equal(x.grad, np.full(4, 6.0))

    def test_no_grad_mode(self):
        x = _leaf(1.0)
        with ad.no_grad():
            y = x * 3.0
        assert y._backward is None and not y.requires_grad


class TestMatmul:
    def test_macs_counted(self):
        ad.reset_macs()
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(np.zeros((4, 5)))
        _ = a @ b
        assert ad.macs() == 3 * 4 * 5

    def test_batched_macs(self):
        ad.reset_macs()
        a = Tensor(np.zeros((2, 3, 4)))
        b = Tensor(np.zeros((2, 4, 5)))
        _ = a @ b
        assert ad.macs() == 2 * 3 * 4 * 5

    def test_vector_cases(self):
        a = _leaf(np.arange(6.0).reshape(2, 3))
        v = _leaf(np.ones(3))
        (a @ v).sum().backward()
        assert np.array_equal(v.grad, a.data.sum(axis=0))
        w = _leaf(np.ones(2))
        a.zero_grad()
        (w @ a).sum().backward()
        assert np.array_equal(a.grad, np.ones((2, 3)))

    def test_matmul_grads_vs_fd(self, rng):
        a = _leaf(rng.normal(size=(3, 4)))
        b = _leaf(rng.normal(size=(4, 2)))
        report = grad_check(lambda: ((a @ b) ** 2).sum(), {"a": a, "b": b})
        assert report["passed"], report


class TestFusedOps:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(7, 11)) * 10)
        s = ad.softmax(x, axis=-1)
        assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("op", ["softmax", "layer_norm", "gelu", "tanh",
                                    "exp", "abs", "sigmoid"])
    def test_gradients_vs_fd(self, op, rng):
        x = _leaf(rng.normal(size=(3, 6)) + 0.3)
        if op == "softmax":
            w = Tensor(rng.normal(size=(3, 6)))
            f = lambda: (ad.softmax(x) * w).sum()
        elif op == "layer_norm":
            g, b = _leaf(rng.normal(size=6)), _leaf(rng.normal(size=6))
            f = lambda: (ad.layer_norm(x, g, b) ** 2).sum()
        elif op == "gelu":
            f = lambda: ad.gelu(x).sum()
        elif op == "tanh":
            f = lambda: x.tanh().sum()
        elif op == "exp":
            f = lambda: x.exp().sum()
        elif op == "abs":
            f = lambda: x.abs().sum()
        else:
            f = lambda: ad.sigmoid(x).sum()
        report = grad_check(f, {"x": x}, max_coords_per_tensor=12)
        assert report["passed"], (op, report)

    def test_gelu_matches_pow_formula(self, rng):
        x = _leaf(rng.normal(size=(40, 50)) * 3)
        ad.gelu(x).sum().backward()
        c = np.sqrt(2.0 / np.pi)
        xd = x.data
        th = np.tanh(c * (xd + 0.044715 * xd ** 3))
        value = 0.5 * xd * (1.0 + th)
        grad = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * c * (1.0 + 3 * 0.044715 * xd * xd)
        np.testing.assert_allclose(ad.gelu(x).data, value, rtol=1e-12, atol=0)
        np.testing.assert_allclose(x.grad, grad, rtol=1e-12, atol=0)

    def test_layer_norm_param_grads(self, rng):
        x = _leaf(rng.normal(size=(4, 8)))
        g = _leaf(rng.normal(size=8))
        b = _leaf(rng.normal(size=8))
        report = grad_check(lambda: (ad.layer_norm(x, g, b) ** 2).sum(),
                            {"g": g, "b": b})
        assert report["passed"], report

    def test_bce_matches_manual(self, rng):
        z = _leaf(rng.normal(size=(4, 3)))
        y = (rng.random((4, 3)) < 0.5).astype(float)
        loss = ad.bce_with_logits(z, y)
        p = 1 / (1 + np.exp(-z.data))
        manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert np.isclose(loss.data, manual)
        report = grad_check(lambda: ad.bce_with_logits(z, y), {"z": z})
        assert report["passed"], report

    def test_cross_entropy_with_ignored(self, rng):
        z = _leaf(rng.normal(size=(5, 4)))
        labels = np.array([0, 1, 2, 3, 0])
        valid = np.array([True, True, False, True, True])
        loss = ad.cross_entropy(z, labels, valid)
        zmax = z.data.max(axis=1, keepdims=True)
        lse = (zmax[:, 0] + np.log(np.exp(z.data - zmax).sum(axis=1)))
        manual = ((lse - z.data[np.arange(5), labels]) * valid).sum() / valid.sum()
        assert np.isclose(loss.data, manual)
        report = grad_check(lambda: ad.cross_entropy(z, labels, valid), {"z": z})
        assert report["passed"], report

    def test_concat_grads(self, rng):
        a = _leaf(rng.normal(size=(2, 3)))
        b = _leaf(rng.normal(size=(4, 3)))
        report = grad_check(lambda: (ad.concat([a, b], axis=0) ** 2).sum(),
                            {"a": a, "b": b})
        assert report["passed"], report


class TestGradCheck:
    def test_quadratic_nearly_exact(self):
        x = _leaf(np.array([1.0, -2.0, 3.0]))
        report = grad_check(lambda: (x * x).sum(), {"x": x}, tol=1e-8)
        assert report["max_rel_err"] < 1e-9

    def test_detects_corrupted_gradient(self, rng):
        x = _leaf(rng.normal(size=4))

        def bad_loss():
            out_data = np.array((x.data ** 2).sum())
            out = Tensor(out_data)
            out.requires_grad = True
            out._prev = (x,)

            def bwd():
                x._accumulate(3.14 * np.ones_like(x.data))  # wrong on purpose

            out._backward = bwd
            return out

        report = grad_check(bad_loss, {"x": x}, tol=1e-4)
        assert not report["passed"]
