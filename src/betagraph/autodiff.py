"""Minimal reverse-mode autodiff over numpy arrays.

A Tensor wraps an ndarray and, if it is a tape node, its parents and
one function grads(upstream) that gives the gradients of all of them at
once; fused_node is the only node constructor.  Calling backward() on a
scalar walks the tape in reverse topological order, calls each node's
grads once and adds each entry into its parent, in parent order, for
every parent with requires_grad=True.  Every layer, the baseline's
cross entropy included, is one node whose grads is a single
hand-written call (reasoning, evidence, evaluation); for dropout they
keep a bool keep array (dropout_keep, dropout_keeps; PCG64 generators
only), or nothing.
But for the encoder layer's and the Beta-KL's closed forms, they replay
the per-op composition's expressions in the tape's order of
accumulation.

What else lives here: the few generic ops the library still chains
between nodes (reshape, take_rows), dropout, mul and tsum
(bench/test_bench.py's tape check; no library caller), the array kernels
of the fused layers (colmean_exact, relu_data, the dropout keep arrays)
and Adam.  All ops broadcast like numpy and un-broadcast their gradients.

backward() frees the tape as it goes: each interior node drops its
parents and grads (and with them every intermediate array grads holds)
once its gradient has reached its parents, each entry is dropped as it
is added, and the walk lets go of the node before its grads runs.  A
finished backward holds nothing of the graph, which it walks only once,
so a VJP may form its gradients in the buffers its own closure owns;
never in a parent's data, which others read.

Who owns the upstream gradient: the VJP.  backward hands it over as
the one item of a list, keeps no reference of its own, and every grads
takes it with upstream.pop(), so a VJP can drop it as soon as it has
formed what it needs from it (propagate's once adj @ g is formed).  A
VJP never writes into the upstream gradient: the gradients one VJP
returns may share memory (evidence_forward's output biases get views of
one array), and backward hands each on as it is.

The finite-difference oracle for these gradients, the per-op
compositions, and the generic ops only they use (add, sub, tmean, relu,
exp, log, logsumexp, spmm, concat, cols, div, digamma, lgamma, softplus,
sqrt, matmul, a taped colmean_exact) live with the tests
(tests/oracles.py), whose per-op VJPs reach fused_node through a small
adapter.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from . import sparse

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grads = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's grad.

        Interior nodes lose their grad, parents and grads as soon as their
        gradient has been passed on, so the graph cannot be walked again.
        The walk lets go of each node before calling its grads, so an
        output that nothing else holds (propagate's in phase 1) is freed
        while its own VJP runs, and hands the node's gradient to grads
        in a one-item list, without keeping it: a VJP that pops it and
        drops it frees it.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:                # popped: a walked node can be freed
            node = order.pop()
            parents, grads = node._parents, node._grads
            node._parents, node._grads = (), None
            if node.grad is None or not parents:
                continue
            upstream = [node.grad]          # the VJP's to pop and drop
            if node is not self:
                node.grad = None
            del node            # an output held by nothing else goes now
            pgs = list(grads(upstream))
            del upstream, grads
            for i, parent in enumerate(parents):
                pg, pgs[i] = pgs[i], None       # dropped once taken
                if parent.requires_grad:
                    parent.grad = pg if parent.grad is None \
                        else parent.grad + pg
                del pg
            del parent, parents     # before the next node is popped
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
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def grad_needed(*parents):
    """Whether a node over these parents is taped: grad is enabled and
    one of them requires grad.  Lets a fused node skip computing what
    only its VJP would use."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def fused_node(data, parents, grads):
    """The tape node of data over the Tensors parents, the only node
    constructor.

    grads(upstream) returns one gradient per parent, in the order of
    parents, from the upstream gradient g = upstream.pop(), which it
    owns and never writes into; it runs once per backward, and each
    gradient is dropped as soon as the engine has taken it.  The entry
    of a parent that does not require grad is ignored: grads should give
    None there without computing it.  Nothing is taped when grad is
    disabled or no parent requires grad.
    """
    out = Tensor(data)
    if grad_needed(*parents):
        out._parents, out._grads = tuple(parents), grads
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


# -- products, sums and shaping -----------------------------------------
# Non-Tensor operands (python scalars, ndarrays) stay untaped constants;
# python scalars in particular keep numpy's weak promotion so float32
# graphs are not silently upcast.  mul and tsum have no library caller:
# bench/test_bench.py builds its tape from them.

def mul(a, b):
    ad, bd = (x.data if isinstance(x, Tensor) else x for x in (a, b))
    taped = [(x, other) for x, other in ((a, bd), (b, ad))
             if isinstance(x, Tensor)]

    def grads(upstream):
        g = upstream.pop()
        return [_unbroadcast(g * other, x.data.shape) if x.requires_grad
                else None for x, other in taped]

    return fused_node(ad * bd, [x for x, _ in taped], grads)


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)

    def grads(upstream):
        g = upstream.pop()
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).astype(x.data.dtype,
                                                         copy=False),)

    return fused_node(x.data.sum(axis=axis, keepdims=keepdims), (x,), grads)


def colmean_exact(x):
    """Column means of a 2-D array: each column's correctly rounded sum
    (_fsum_columns), divided by the row count, in x's dtype.

    Correct rounding makes the means exactly invariant under row
    permutation and duplication; the disjunction operator's set
    aggregation relies on both.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("colmean_exact expects a 2-D array")
    return (_fsum_columns(x) / x.shape[0]).astype(x.dtype, copy=False)


def _fsum_columns(x):
    """math.fsum of every column of the 2-D array x, as float64.

    A finite float32 column of m values whose nonzero magnitudes span at
    most 29 - m.bit_length() binades (np.frexp exponents of its largest
    and smallest) holds multiples of its smallest value's ulp whose every
    partial sum fits float64's 53 bits, so np.sum gives fsum's value, in
    one vectorised pass.  Other columns, non-finite ones and float64
    input take fsum.
    """
    m = x.shape[0]
    exact = np.zeros(x.shape[1], dtype=bool)
    if x.dtype == np.float32 and m:
        a = np.abs(x)
        top = a.max(axis=0)
        low = np.where(a > 0, a, np.inf).min(axis=0)   # inf: all zero
        span = np.frexp(top)[1] - np.frexp(low)[1]
        exact = np.isfinite(top) & (span <= 29 - m.bit_length())
    cols = x.astype(np.float64, copy=False)
    sums = cols.sum(axis=0, where=exact)
    for j in np.flatnonzero(~exact):
        sums[j] = math.fsum(cols[:, j])
    return sums


def reshape(x, shape):
    x = as_tensor(x)
    return fused_node(x.data.reshape(shape), (x,),
                      lambda upstream: (upstream.pop().reshape(x.data.shape),))


def take_rows(x, idx):
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)

    def grads(upstream):
        out = np.zeros_like(x.data)
        np.add.at(out, idx, upstream.pop())
        return (out,)

    return fused_node(x.data[idx], (x,), grads)


# -- elementwise kernels -----------------------------------------------

def relu_data(x, out=None):
    """max(x, 0) on an array, into out (which may be x) when given, with
    NaN -> 0 and -0 -> +0: the same bits as np.where(x > 0, x, 0) without
    a data-dependent branch per element, about 12x faster at (5e4, 64)
    float32 with random signs."""
    out = np.fmax(x, 0, out=out)
    # np.fmax's scalar loop (0-d input, short float64 tails) keeps -0
    out += 0
    return out


def dropout(x, rate, generator):
    """Inverted dropout with a mask drawn from the given generator."""
    if rate <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    mask = dropout_keep(x.data.shape, x.data.dtype, rate, generator) \
        * dropout_scale(rate, x.data.dtype)
    return fused_node(x.data * mask, (x,),
                      lambda upstream: (upstream.pop() * mask,))


def dropout_scale(rate, dtype):
    """1/(1-rate) in dtype: a kept unit's inverted-dropout factor."""
    return np.dtype(dtype).type(1) / np.dtype(dtype).type(1.0 - rate)


def dropout_keep(shape, dtype, rate, generator):
    """Bool keep array equal bit for bit to generator.random(shape, draw)
    >= rate (draw: float32 for float32, else float64), with the same
    generator state after; PCG64 only.  See dropout_keeps."""
    return next(dropout_keeps(1, shape, dtype, rate, generator))


def dropout_keeps(count, shape, dtype, rate, generator):
    """count bool keep arrays of shape, each drawn when it is asked for,
    which together equal dropout_keep((count, *shape), ...) bit for bit,
    with the same generator state after the last; nothing else may draw
    from generator between them.  PCG64 only.

    The draw is an integer times a power of two, so keep iff the raw
    64-bit r >= ceil(rate * 2**53) << 11, or in float32 iff each 32-bit
    half u of r (low first) is >= ceil(rate * 2**24) << 8, rate rounded
    as numpy compares (float32 for a Python float).  The arrays share
    this setup: a float32 array of odd size ends in half a word, which
    numpy's own draw keeps buffered for the next array's first unit.

    The raw words come a block of sparse.ROW_BLOCK rows of the last axis
    (an even number of units) at a time, each block compared into the
    keep array: the same words in the same order as one draw, with one
    block's words the only temporary.  At (5, 36000, 64) float32 the
    peak is 1.2 keep arrays, against 5.0 for one draw of 46 MB.
    """
    bitgen = generator.bit_generator
    size = math.prod(shape)
    halves = np.dtype(dtype) == np.float32
    if halves:  # numpy's own draws take, and leave, the half PCG64 buffers
        bound = math.ceil(float(np.result_type(np.float32, rate).type(rate))
                          * 2.0 ** 24) << 8
        buffered = bitgen.state["has_uint32"]
    else:
        bound, buffered = math.ceil(rate * 2.0 ** 53) << 11, 0
    step = sparse.ROW_BLOCK * max(shape[-1] if shape else 1, 1)    # even

    def draw(start):                # start: 1 to take the buffered half
        keep = np.empty(size, dtype=bool)
        end = size - (size - start) % 2 if halves else size
        keep[:start] = generator.random(start, dtype=np.float32) >= rate
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            words = bitgen.random_raw((hi - lo) // (2 if halves else 1))
            np.greater_equal(words.astype("<u8", copy=False).view("<u4")
                             if halves else words, bound, out=keep[lo:hi])
            del words               # before the next block's are drawn
        keep[end:] = generator.random(size - end, dtype=np.float32) >= rate
        return keep.reshape(shape)

    for _ in range(count):          # yielded unnamed: the caller's to free
        start = min(buffered, size)
        if halves:
            buffered = (buffered + size) % 2
        yield draw(start)


# -- optimization -------------------------------------------------------

class Adam:
    """Adam with the default betas and eps over named parameter tensors
    (full-batch usage); params maps each name to its tensor, and every
    step reads every parameter's grad.

    The first and second moments of all parameters are two flat float64
    vectors, updated in place, so a step is a few numpy calls over the
    concatenated gradients.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.names = list(params)
        self.params = list(params.values())
        self.lr = float(lr)
        self.t = 0
        size = sum(p.data.size for p in self.params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update of every parameter; ValueError naming the first one
        without a gradient, before anything moves."""
        for name, p in zip(self.names, self.params):
            if p.grad is None:
                raise ValueError(f"parameter {name} has no gradient")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        g = np.concatenate([np.ravel(p.grad) for p in self.params],
                           dtype=np.float64)
        # the per-parameter update b1*m + (1-b1)*g, ..., evaluated in place
        # over the flat vectors: the same operations, so the same bits
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        g *= g
        g *= 1.0 - b2
        v *= b2
        v += g
        upd = m / bias1
        upd *= self.lr
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        upd /= g
        start = 0
        for p in self.params:
            u = upd[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size
            p.data = (p.data - u.astype(p.data.dtype, copy=False)).astype(
                p.data.dtype, copy=False
            )
