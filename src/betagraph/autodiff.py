"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus the vector-Jacobian products linking it to
its parents.  Calling backward() on a scalar walks the tape in reverse
topological order and accumulates gradients into every reachable leaf
with requires_grad=True.  Only the operations the models need are
implemented; all of them broadcast like numpy and un-broadcast their
gradients.

Special-function nodes (lgamma, digamma) delegate to betagraph.special,
so losses built from Beta/Dirichlet terms differentiate exactly
(d lgamma = digamma, d digamma = trigamma).

grad_check compares these analytic gradients against central finite
differences, parameter by parameter, and is the independent oracle for
every gradient used in training.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import special
from .sparse import SparseMatrix

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_vjps")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._vjps = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._vjps:
                pg = vjp(g)
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg
            if node._vjps:
                node.grad = None if node is not self else node.grad
        return self

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _topo_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._vjps:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, dtype=None):
    arr = np.array(data, dtype=dtype if dtype is not None else np.float64)
    return Tensor(arr, requires_grad=True)


def _node(data, vjps):
    out = Tensor(data)
    if _GRAD_ENABLED:
        live = tuple((p, f) for p, f in vjps if p.requires_grad)
        if live:
            out._vjps = live
            out.requires_grad = True
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic --------------------------------------------------------
# Non-Tensor operands (python scalars, ndarrays) stay untaped constants;
# python scalars in particular keep numpy's weak promotion so float32
# graphs are not silently upcast.

def _raw(x):
    return x.data if isinstance(x, Tensor) else x


def add(a, b):
    data = _raw(a) + _raw(b)
    vjps = []
    if isinstance(a, Tensor):
        vjps.append((a, lambda g: _unbroadcast(g, a.data.shape)))
    if isinstance(b, Tensor):
        vjps.append((b, lambda g: _unbroadcast(g, b.data.shape)))
    return _node(data, vjps)


def sub(a, b):
    data = _raw(a) - _raw(b)
    vjps = []
    if isinstance(a, Tensor):
        vjps.append((a, lambda g: _unbroadcast(g, a.data.shape)))
    if isinstance(b, Tensor):
        vjps.append((b, lambda g: _unbroadcast(-g, b.data.shape)))
    return _node(data, vjps)


def mul(a, b):
    ad, bd = _raw(a), _raw(b)
    data = ad * bd
    vjps = []
    if isinstance(a, Tensor):
        vjps.append((a, lambda g: _unbroadcast(g * bd, a.data.shape)))
    if isinstance(b, Tensor):
        vjps.append((b, lambda g: _unbroadcast(g * ad, b.data.shape)))
    return _node(data, vjps)


def div(a, b):
    ad, bd = _raw(a), _raw(b)
    out = ad / bd
    vjps = []
    if isinstance(a, Tensor):
        vjps.append((a, lambda g: _unbroadcast(g / bd, a.data.shape)))
    if isinstance(b, Tensor):
        vjps.append((b, lambda g: _unbroadcast(-g * out / bd, b.data.shape)))
    return _node(out, vjps)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    return _node(a.data @ b.data, (
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ))


def spmm(adj: SparseMatrix, x):
    """adj @ x with the adjacency held constant; gradient is adj^T @ g."""
    x = as_tensor(x)
    return _node(adj.matmul(x.data), (
        (x, lambda g: adj.T.matmul(g)),
    ))


# -- reductions and shaping --------------------------------------------

def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False)
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, x.data.shape).astype(x.data.dtype, copy=False)

    return _node(x.data.sum(axis=axis, keepdims=keepdims), ((x, vjp),))


def tmean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    if axis is None:
        n = x.data.size
    else:
        n = x.data.shape[axis]

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype, copy=False)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape) / n).astype(x.data.dtype, copy=False)

    return _node(x.data.mean(axis=axis, keepdims=keepdims), ((x, vjp),))


def colmean_exact(x):
    """Column means of a 2-D tensor via math.fsum.

    fsum returns the correctly rounded sum, so the result is exactly
    invariant under row permutation and exactly halves under row
    duplication; used by the set aggregation in the disjunction operator.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError("colmean_exact expects a 2-D tensor")
    m = x.data.shape[0]
    cols = x.data.astype(np.float64, copy=False)
    out = np.array([math.fsum(cols[:, j]) / m for j in range(cols.shape[1])])
    out = out.astype(x.data.dtype, copy=False)

    def vjp(g):
        return np.broadcast_to(g / m, x.data.shape).astype(x.data.dtype, copy=False)

    return _node(out, ((x, vjp),))


def reshape(x, shape):
    x = as_tensor(x)
    return _node(x.data.reshape(shape), (
        (x, lambda g: g.reshape(x.data.shape)),
    ))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * tensors[i].data.ndim
        sl[axis] = slice(bounds[i], bounds[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _node(data, tuple((t, make_vjp(i)) for i, t in enumerate(tensors)))


def take_rows(x, idx):
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(x.data)
        np.add.at(out, idx, g)
        return out

    return _node(x.data[idx], ((x, vjp),))


def cols(x, start, stop):
    x = as_tensor(x)

    def vjp(g):
        out = np.zeros_like(x.data)
        out[..., start:stop] = g
        return out

    return _node(x.data[..., start:stop], ((x, vjp),))


# -- elementwise nonlinearities ----------------------------------------

def relu(x):
    x = as_tensor(x)
    mask = x.data > 0
    return _node(relu_data(x.data), ((x, lambda g: g * mask),))


def relu_data(x):
    """max(x, 0) on an array, with NaN -> 0 and -0 -> +0: the same bits as
    np.where(x > 0, x, 0) without a data-dependent branch per element,
    about 12x faster at (5e4, 64) float32 with random signs.
    """
    out = np.fmax(x, 0)
    # np.fmax's scalar loop (0-d input, short float64 tails) keeps -0
    out += 0
    return out


def softplus(x):
    x = as_tensor(x)
    out = special.softplus(x.data)
    return _node(out, ((x, lambda g: g * special.sigmoid(x.data)),))


def exp(x):
    x = as_tensor(x)
    out = np.exp(x.data)
    return _node(out, ((x, lambda g: g * out),))


def log(x):
    x = as_tensor(x)
    return _node(np.log(x.data), ((x, lambda g: g / x.data),))


def sqrt(x):
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return _node(out, ((x, lambda g: g * 0.5 / out),))


def lgamma(x):
    x = as_tensor(x)
    return _node(special.lgamma(x.data),
                 ((x, lambda g: g * special.digamma(x.data)),))


def digamma(x):
    x = as_tensor(x)
    return _node(special.digamma(x.data),
                 ((x, lambda g: g * special.trigamma(x.data)),))


def logsumexp(x, axis=1, keepdims=False):
    """log(sum(exp(x))) with the usual max shift (composite, fully taped)."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    shifted = exp(sub(x, m))
    s = log(tsum(shifted, axis=axis, keepdims=True))
    out = add(s, m)
    if not keepdims:
        out = reshape(out, tuple(d for i, d in enumerate(out.data.shape) if i != axis))
    return out


def dropout(x, rate, generator, training=True):
    """Inverted dropout with a mask drawn from the given generator."""
    if not training or rate <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    return mul(x, dropout_mask(x.data.shape, x.data.dtype, rate, generator))


def dropout_mask(shape, dtype, rate, generator):
    """Inverted-dropout mask (0 or 1/(1-rate) per entry) of the given
    shape and dtype, drawn from generator; float32 masks draw float32."""
    dtype = np.dtype(dtype)
    draw_dtype = dtype if dtype == np.float32 else np.float64
    u = generator.random(shape, dtype=draw_dtype)
    mask = (u >= rate).astype(dtype)
    mask /= np.asarray(1.0 - rate, dtype=dtype)
    return mask


# -- optimization -------------------------------------------------------

class Adam:
    """Adam over a list of parameter tensors (full-batch usage)."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64, copy=False)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            mhat = self.m[i] / bias1
            vhat = self.v[i] / bias2
            upd = self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.data = (p.data - upd.astype(p.data.dtype, copy=False)).astype(
                p.data.dtype, copy=False
            )


# -- finite-difference verification -------------------------------------

@dataclass
class GradCheckReport:
    name: str
    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_err: float


def _rel_err(a, n):
    return np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))


def grad_check(loss_fn, params, epsilon=1e-6):
    """Compare analytic gradients of loss_fn against central differences.

    loss_fn must rebuild its graph from the live parameter tensors on
    every call.  params maps name -> Tensor.  Raises if the loss is
    non-finite at any probe point.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")

    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("non-finite loss at the base point")
    for p in params.values():
        p.grad = None
    loss.backward()
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }

    reports = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            with no_grad():
                lp = float(loss_fn().data)
            flat[i] = orig - epsilon
            with no_grad():
                lm = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise FloatingPointError(f"non-finite loss probing {name}[{i}]")
            numeric[i] = (lp - lm) / (2.0 * epsilon)
        numeric = numeric.reshape(p.data.shape)
        err = float(_rel_err(analytic[name], numeric).max()) if flat.size else 0.0
        reports.append(GradCheckReport(name, analytic[name], numeric, err))
    return reports
