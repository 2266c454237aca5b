"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine in the micrograd style: every operation returns a
new :class:`Tensor` holding the forward value and a closure that propagates
gradients to its inputs. ``backward()`` topologically sorts the graph and
visits each node exactly once, in reverse. It consumes the graph: once a
node's closure has run, the node drops its closure, its parents and its
gradient, so activations are freed during the pass and no reference cycle
outlives it. Leaf tensors keep their ``.grad``. To differentiate again,
build a new graph.

Matrix-multiply work is tracked in a module-level MAC counter so tests can
compare an instrumented forward pass against analytic cost formulas.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

# Multiply-accumulate counter for matmul-shaped ops (elementwise ops excluded).
_MACS = 0

# When False, ops skip graph construction entirely (inference mode).
_GRAD_ENABLED = True


def reset_macs() -> None:
    global _MACS
    _MACS = 0


def macs() -> int:
    return _MACS


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64) if not isinstance(data, np.ndarray) else data
        self.grad = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._backward = None
        self._prev = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy: g may alias another node's gradient buffer
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                # Consume the interior node: breaks the out -> closure -> out
                # cycle and frees its gradient and activations now.
                node._backward = None
                node._prev = ()
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction helper -------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def bwd():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out = Tensor._make(out_data, (self, other), bwd)
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def bwd():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out = Tensor._make(out_data, (self, other), bwd)
        return out

    __rmul__ = __mul__

    def __neg__(self):
        out_data = -self.data

        def bwd():
            if self.requires_grad:
                self._accumulate(-out.grad)

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data

        def bwd():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-out.grad, other.data.shape))

        out = Tensor._make(out_data, (self, other), bwd)
        return out

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def bwd():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data * other.data), other.data.shape)
                )

        out = Tensor._make(out_data, (self, other), bwd)
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, p):
        assert isinstance(p, (int, float)), "only scalar powers supported"
        out_data = self.data ** p

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad * p * self.data ** (p - 1))

        out = Tensor._make(out_data, (self,), bwd)
        return out

    # -- matmul (the only counted op) ----------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        out_data = a @ b
        global _MACS
        # m*n*p multiplies per (possibly batched) matmul; vector operands count
        # as 1-row / 1-column matrices.
        m = a.shape[-2] if a.ndim >= 2 else 1
        n = a.shape[-1]
        p = b.shape[-1] if b.ndim >= 2 else 1
        batch = 1
        lead = np.broadcast_shapes(a.shape[:-2] if a.ndim > 2 else (), b.shape[:-2] if b.ndim > 2 else ())
        for d in lead:
            batch *= d
        _MACS += batch * m * n * p

        def bwd():
            g = out.grad
            if a.ndim == 1 and b.ndim == 1:
                if self.requires_grad:
                    self._accumulate(g * b)
                if other.requires_grad:
                    other._accumulate(g * a)
                return
            ga = gb = None
            if a.ndim == 1:  # (n,) @ (..., n, p)
                g2 = g[..., None, :]
                if self.requires_grad:
                    ga = _unbroadcast((g2 @ np.swapaxes(b, -1, -2))[..., 0, :], a.shape)
                if other.requires_grad:
                    gb = _unbroadcast(a[:, None] @ g2, b.shape)
            elif b.ndim == 1:  # (..., m, n) @ (n,)
                g2 = g[..., :, None]
                if self.requires_grad:
                    ga = _unbroadcast(g2 @ b[None, :], a.shape)
                if other.requires_grad:
                    gb = _unbroadcast((np.swapaxes(a, -1, -2) @ g2)[..., 0], b.shape)
            else:
                if self.requires_grad:
                    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
                if other.requires_grad:
                    gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
            if ga is not None:
                self._accumulate(ga)
            if gb is not None:
                other._accumulate(gb)

        out = Tensor._make(out_data, (self, other), bwd)
        return out

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src_shape = self.data.shape

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(src_shape))

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inv))

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def bwd():
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, idx, out.grad)
                self._accumulate(g)

        out = Tensor._make(out_data, (self,), bwd)
        return out

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.data.shape

        def bwd():
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    ax = axis if isinstance(axis, tuple) else (axis,)
                    ax = tuple(a % len(src_shape) for a in ax)
                    shape = [1 if i in ax else n for i, n in enumerate(src_shape)]
                    g = g.reshape(shape)
                self._accumulate(np.broadcast_to(g, src_shape).copy())

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else (
            np.prod([self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- elementwise nonlinearities ----------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad * out_data)

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def log(self):
        out_data = np.log(self.data)

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def tanh(self):
        out_data = np.tanh(self.data)

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out_data * out_data))

        out = Tensor._make(out_data, (self,), bwd)
        return out

    def abs(self):
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def bwd():
            if self.requires_grad:
                self._accumulate(out.grad * sign)

        out = Tensor._make(out_data, (self,), bwd)
        return out


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * out_data.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(sl)])

    out = Tensor._make(out_data, tuple(tensors), bwd)
    return out


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift is treated as constant."""
    z = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd():
        if t.requires_grad:
            g = out.grad
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            t._accumulate(out_data * (g - dot))

    out = Tensor._make(out_data, (t,), bwd)
    return out


def layer_norm(t: Tensor, gain: Tensor, offset: Tensor, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis with learned gain/offset."""
    x = t.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out_data = xhat * gain.data + offset.data

    def bwd():
        g = out.grad
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if offset.requires_grad:
            offset._accumulate(g.reshape(-1, x.shape[-1]).sum(axis=0))
        if t.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            t._accumulate(inv * (gx - m1 - xhat * m2))

    out = Tensor._make(out_data, (t, gain, offset), bwd)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(t: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(C*x*(1 + 0.044715*x^2))).

    ``x**3`` would call libm ``pow`` per element; ``x*x`` is computed once
    and kept, with ``th``, for the backward.
    """
    x = t.data
    x2 = x * x
    u = x2 * 0.044715
    u += 1.0
    u *= x
    u *= _GELU_C
    th = np.tanh(u, out=u)
    out_data = th + 1.0
    out_data *= x
    out_data *= 0.5

    def bwd():
        if t.requires_grad:
            # 0.5*(1 + th) + 0.5*x*(1 - th^2) * C*(1 + 3*0.044715*x^2)
            du = x2 * (3 * 0.044715)
            du += 1.0
            du *= _GELU_C
            g = th * th
            np.subtract(1.0, g, out=g)
            g *= x
            g *= 0.5
            g *= du
            np.add(th, 1.0, out=du)
            du *= 0.5
            g += du
            g *= out.grad
            t._accumulate(g)

    out = Tensor._make(out_data, (t,), bwd)
    return out


def sigmoid(t: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-t.data))

    def bwd():
        if t.requires_grad:
            t._accumulate(out.grad * out_data * (1.0 - out_data))

    out = Tensor._make(out_data, (t,), bwd)
    return out


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on logits, numerically stable."""
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.array(loss.mean())

    def bwd():
        if logits.requires_grad:
            s = 1.0 / (1.0 + np.exp(-z))
            logits._accumulate(out.grad * (s - y) / z.size)

    out = Tensor._make(out_data, (logits,), bwd)
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray, valid: np.ndarray | None = None) -> Tensor:
    """Mean softmax cross-entropy over rows of ``logits`` [N, K].

    Rows where ``valid`` is False are excluded from both the sum and the
    denominator.
    """
    z = logits.data
    n, k = z.shape
    labels = np.asarray(labels, dtype=np.int64)
    if valid is None:
        valid = np.ones(n, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: no valid rows")
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(n), labels]
    out_data = np.array(((lse - picked) * valid).sum() / n_valid)

    def bwd():
        if logits.requires_grad:
            p = np.exp(z - zmax)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), labels] -= 1.0
            p *= (valid / n_valid)[:, None]
            logits._accumulate(out.grad * p)

    out = Tensor._make(out_data, (logits,), bwd)
    return out


def grad_check(f, params: dict[str, Tensor], tol: float = 1e-4, h: float = 1e-5,
               max_coords_per_tensor: int = 8, seed: int = 0,
               floor: float = 1e-5) -> dict:
    """Compare analytic gradients of scalar ``f(params)`` with central differences.

    For each parameter tensor a deterministic sample of coordinates is probed
    (all of them for small tensors). ``floor`` bounds the relative-error
    denominator from below: gradients smaller than the finite-difference
    noise floor cannot be resolved at step ``h``. Returns a report with the
    max relative error and a pass flag against ``tol``.
    """
    for p in params.values():
        p.zero_grad()
    out = f()
    out.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_at = None
    for name, p in sorted(params.items()):
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + h
                fp = float(f().data)
                flat[c] = orig - h
                fm = float(f().data)
            flat[c] = orig
            num = (fp - fm) / (2 * h)
            ana = float(analytic[name].reshape(-1)[c])
            denom = max(abs(num), abs(ana), floor)
            rel = abs(num - ana) / denom
            if rel > worst:
                worst = rel
                worst_at = (name, int(c), ana, num)
    return {"max_rel_err": worst, "worst": worst_at, "passed": worst < tol}
