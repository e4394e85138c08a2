"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray plus the vector-Jacobian products linking it to
its parents.  Calling backward() on a scalar walks the tape in reverse
topological order and accumulates gradients into every reachable leaf
with requires_grad=True.  Only the operations the models need are
implemented; all of them broadcast like numpy and un-broadcast their
gradients.

The digamma node delegates to betagraph.special, so the Dirichlet loss
differentiates exactly (d digamma = trigamma).

backward() frees the tape as it goes: each interior node drops its VJP
closures (and with them every intermediate array they hold) once its
gradient has reached its parents, and the walk lets go of the node.  A
finished backward holds nothing of the graph, which it walks only once.
Layers with a hand-written VJP use fused_node, one tape node whose
gradients for all parents come from a single call; for dropout they keep
dropout_keep's bool array (PCG64 generators only), or nothing.

The finite-difference oracle for these gradients, and the lgamma and
sqrt nodes only the per-op references use, live with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

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

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's grad.

        Interior nodes lose their grad and their VJPs as soon as their
        gradient has been passed on, so the graph cannot be walked again.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:                # popped: a walked node can be freed
            node = order.pop()
            vjps, node._vjps = node._vjps, ()
            if node.grad is None or not vjps:
                continue
            g = node.grad
            if node is not self:
                node.grad = None
            for parent, vjp in vjps:
                parent.grad = vjp(g) if parent.grad is None \
                    else parent.grad + vjp(g)
            del g
        return self


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


def grad_needed(*parents):
    """Whether a node over these parents is taped: grad is enabled and
    one of them requires grad.  Lets a fused node skip computing what
    only its VJP would use."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _node(data, vjps):
    out = Tensor(data)
    if _GRAD_ENABLED:
        live = tuple((p, f) for p, f in vjps if p.requires_grad)
        if live:
            out._vjps = live
            out.requires_grad = True
    return out


def fused_node(data, parents, grads):
    """One tape node over several parents whose gradients share work.

    grads(g) returns one gradient per parent, in the order of parents; it
    runs once per backward, and each gradient is dropped as soon as the
    engine has taken it.  Entries for parents that do not require grad
    are ignored.
    """
    live = {i for i, p in enumerate(parents) if p.requires_grad}
    pending = {}

    def vjp_of(i):
        def vjp(g):
            if not pending:
                pending.update((j, pg) for j, pg in enumerate(grads(g))
                               if j in live)
            return pending.pop(i)
        return vjp

    return _node(data, [(p, vjp_of(i)) for i, p in enumerate(parents)])


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


def spmm(adj: SparseMatrix, x, adj_t: SparseMatrix = None):
    """adj @ x with the adjacency held constant; the gradient is
    adj_t @ g, with adj_t = adj^T.  It defaults to adj itself, which
    needs adj symmetric, as graphs.normalize_adjacency's output is bit
    for bit."""
    x = as_tensor(x)
    grad_matrix = adj if adj_t is None else adj_t
    return _node(adj.matmul(x.data), ((x, grad_matrix.matmul),))


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


def digamma(x):
    x = as_tensor(x)
    return _node(special.digamma(x.data),
                 ((x, lambda g: g * special.trigamma(x.data)),))


def logsumexp(x, axis=1):
    """log(sum(exp(x))) along axis, which the result drops, with the usual
    max shift (composite, fully taped)."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    s = log(tsum(exp(sub(x, m)), axis=axis, keepdims=True))
    return reshape(add(s, m), x.data.shape[:axis] + x.data.shape[axis + 1:])


def dropout(x, rate, generator):
    """Inverted dropout with a mask drawn from the given generator."""
    if rate <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    keep = dropout_keep(x.data.shape, x.data.dtype, rate, generator)
    return mul(x, keep * dropout_scale(rate, x.data.dtype))


def dropout_scale(rate, dtype):
    """1/(1-rate) in dtype: a kept unit's inverted-dropout factor."""
    return np.dtype(dtype).type(1) / np.dtype(dtype).type(1.0 - rate)


def dropout_keep(shape, dtype, rate, generator):
    """Bool keep array equal bit for bit to generator.random(shape, draw)
    >= rate (draw: float32 for float32, else float64), with the same
    generator state after; PCG64 only.  The draw is an integer times a
    power of two, so keep iff the raw 64-bit r >= ceil(rate * 2**53) << 11,
    or in float32 iff each 32-bit half u of r (low first) is >= ceil(rate
    * 2**24) << 8, rate rounded as numpy compares (float32 for a Python float).
    """
    bitgen = generator.bit_generator
    if np.dtype(dtype) != np.float32:
        return bitgen.random_raw(shape) >= math.ceil(rate * 2.0 ** 53) << 11
    # numpy's own draws take, and leave, the half PCG64 keeps buffered
    keep = np.empty(math.prod(shape), dtype=bool)
    start = min(bitgen.state["has_uint32"], keep.size)
    end = keep.size - (keep.size - start) % 2
    keep[:start] = generator.random(start, dtype=np.float32) >= rate
    halves = bitgen.random_raw((end - start) // 2).astype("<u8", copy=False)
    bound = math.ceil(float(np.result_type(np.float32, rate).type(rate))
                      * 2.0 ** 24) << 8
    np.greater_equal(halves.view("<u4"), bound, out=keep[start:end])
    keep[end:] = generator.random(keep.size - end, dtype=np.float32) >= rate
    return keep.reshape(shape)


# -- optimization -------------------------------------------------------

class Adam:
    """Adam with the default betas and eps over named parameter tensors
    (full-batch usage); params maps each name to its tensor.

    The first and second moments of all parameters are two flat float64
    vectors, so a step is a few numpy calls over the concatenated
    gradients.  A parameter whose grad is None keeps its data and its
    moments.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.names = list(params)
        self.params = list(params.values())
        self.lr = float(lr)
        self.t = 0
        self._sizes = [p.data.size for p in self.params]
        self.m = np.zeros(sum(self._sizes))
        self.v = np.zeros(sum(self._sizes))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        has_grad = [p.grad is not None for p in self.params]
        live = [p for p in self.params if p.grad is not None]
        if not live:
            return
        g = np.concatenate([np.ravel(p.grad) for p in live], dtype=np.float64)
        sel = slice(None) if all(has_grad) \
            else np.repeat(has_grad, self._sizes)
        # the per-parameter update b1*m + (1-b1)*g, ..., evaluated in place
        # over the flat vectors: the same operations, so the same bits
        m, v = self.m[sel], self.v[sel]
        m *= b1
        m += (1.0 - b1) * g
        g *= g
        g *= 1.0 - b2
        v *= b2
        v += g
        self.m[sel], self.v[sel] = m, v
        upd = m / bias1
        upd *= self.lr
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        upd /= g
        start = 0
        for p in live:
            u = upd[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size
            p.data = (p.data - u.astype(p.data.dtype, copy=False)).astype(
                p.data.dtype, copy=False
            )
