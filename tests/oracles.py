"""Test-only oracles: the generic per-op tape nodes, per-op reference
compositions, the finite-difference gradient check, the scalar
subjective-logic forms, ln B(a, b), the float-draw dropout mask, the
per-cell CSV writer and a sparse matrix built from coordinates.

The library fuses every layer and loss into single tape nodes with
hand-written VJPs, and steps Adam over flat vectors.  The per-op
compositions, the generic nodes they are built from (add, sub, tmean,
relu, exp, log, logsumexp, spmm and the others below, with autodiff's
mul, tsum, matmul, reshape and take_rows) and the per-parameter Adam
step here are what those replaced.  The fused nodes' values must equal
the compositions' bit for bit.  So must the gradients of the nodes whose
VJPs replay the composition's (the class regions, the margin loss, the
evidence heads and their assembly, the Dirichlet loss, propagate, the
direct head, the baseline's cross entropy); the encoder layer's and the
Beta-KL's gradients are closed forms, which must agree with the
compositions' to 1e-12 of the largest entry in float64 (1e-5 in
float32).  The Adam step must equal its reference bit for bit.
grad_check is the independent oracle for every gradient used in
training, and the one-opinion forms are the reference for subjective's
batch forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from betagraph import autodiff as ad
from betagraph import evidence as ev
from betagraph import reasoning as rs
from betagraph import special
from betagraph.ioutil import atomic_write_text
from betagraph.sparse import SparseMatrix


# -- a sparse matrix from coordinates --------------------------------------

def sparse_from_coo(rows, cols, vals, shape):
    """SparseMatrix of coordinate triplets; duplicate entries are summed."""
    m = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    return SparseMatrix(m.indptr, m.indices, m.data, shape)


# -- per-op tape nodes ------------------------------------------------------
# Non-Tensor operands (python scalars, ndarrays) stay untaped constants,
# as in autodiff.

def parameter(data, dtype=None):
    arr = np.array(data, dtype=dtype if dtype is not None else np.float64)
    return ad.Tensor(arr, requires_grad=True)


def _raw(x):
    return x.data if isinstance(x, ad.Tensor) else x


def _node(data, vjps):
    """ad.fused_node over per-op (parent, VJP) pairs; a VJP runs only for
    a parent that requires grad."""
    return ad.fused_node(data, [p for p, _ in vjps], lambda g: [
        vjp(g) if p.requires_grad else None for p, vjp in vjps])


def add(a, b):
    data = _raw(a) + _raw(b)
    vjps = []
    if isinstance(a, ad.Tensor):
        vjps.append((a, lambda g: ad._unbroadcast(g, a.data.shape)))
    if isinstance(b, ad.Tensor):
        vjps.append((b, lambda g: ad._unbroadcast(g, b.data.shape)))
    return _node(data, vjps)


def sub(a, b):
    data = _raw(a) - _raw(b)
    vjps = []
    if isinstance(a, ad.Tensor):
        vjps.append((a, lambda g: ad._unbroadcast(g, a.data.shape)))
    if isinstance(b, ad.Tensor):
        vjps.append((b, lambda g: ad._unbroadcast(-g, b.data.shape)))
    return _node(data, vjps)


def spmm(adj, x):
    """adj @ x with the adjacency held constant.  The gradient adj^T @ g
    is taken as adj @ g, which needs adj symmetric bit for bit, as
    graphs.normalize_adjacency's output is (sparse_matmul takes any
    adj)."""
    x = ad.as_tensor(x)
    return _node(adj.matmul(x.data), ((x, adj.matmul),))


def tmean(x, axis=None, keepdims=False):
    x = ad.as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype,
                                                               copy=False)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape) / n).astype(x.data.dtype,
                                                              copy=False)

    return _node(x.data.mean(axis=axis, keepdims=keepdims), ((x, vjp),))


def relu(x):
    x = ad.as_tensor(x)
    mask = x.data > 0
    return _node(ad.relu_data(x.data), ((x, lambda g: g * mask),))


def exp(x):
    x = ad.as_tensor(x)
    out = np.exp(x.data)
    return _node(out, ((x, lambda g: g * out),))


def log(x):
    x = ad.as_tensor(x)
    return _node(np.log(x.data), ((x, lambda g: g / x.data),))


def logsumexp(x, axis=1):
    """log(sum(exp(x))) along axis, which the result drops, with the usual
    max shift (composite, fully taped)."""
    x = ad.as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    s = log(ad.tsum(exp(sub(x, m)), axis=axis, keepdims=True))
    return ad.reshape(add(s, m), x.data.shape[:axis] + x.data.shape[axis + 1:])


def sqrt(x):
    x = ad.as_tensor(x)
    out = np.sqrt(x.data)
    return _node(out, ((x, lambda g: g * 0.5 / out),))


def div(a, b):
    ad_, bd = _raw(a), _raw(b)
    out = ad_ / bd
    vjps = []
    if isinstance(a, ad.Tensor):
        vjps.append((a, lambda g: ad._unbroadcast(g / bd, a.data.shape)))
    if isinstance(b, ad.Tensor):
        vjps.append((b, lambda g: ad._unbroadcast(-g * out / bd,
                                                  b.data.shape)))
    return _node(out, vjps)


def concat(tensors, axis=0):
    tensors = [ad.as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * tensors[i].data.ndim
        sl[axis] = slice(bounds[i], bounds[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _node(data, tuple((t, make_vjp(i))
                                for i, t in enumerate(tensors)))


def softplus(x):
    x = ad.as_tensor(x)
    out = special.softplus(x.data)
    return _node(out, ((x, lambda g: g * special.sigmoid(x.data)),))


def cols(x, start, stop):
    x = ad.as_tensor(x)

    def vjp(g):
        out = np.zeros_like(x.data)
        out[..., start:stop] = g
        return out

    return _node(x.data[..., start:stop], ((x, vjp),))


def digamma(x):
    x = ad.as_tensor(x)
    return _node(special.digamma(x.data),
                    ((x, lambda g: g * special.trigamma(x.data)),))


def colmean_exact(x):
    """ad.colmean_exact's column means of a 2-D tensor, taped."""
    x = ad.as_tensor(x)
    m = x.data.shape[0]

    def vjp(g):
        return np.broadcast_to(g / m, x.data.shape).astype(x.data.dtype,
                                                           copy=False)

    return _node(ad.colmean_exact(x.data), ((x, vjp),))


def lgamma(x):
    x = ad.as_tensor(x)
    return _node(special.lgamma(x.data),
                    ((x, lambda g: g * special.digamma(x.data)),))


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), a, b > 0,
    in float64 (a Python float for scalars); lgamma rejects a <= 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return special.lgamma(a) + special.lgamma(b) - special.lgamma(a + b)


# -- float-draw dropout -----------------------------------------------------

def dropout_mask(shape, dtype, rate, generator):
    """Inverted-dropout mask (0 or 1/(1-rate) per entry) from numpy's float
    draws, float32 for float32 masks: the reference for ad.dropout_keep's
    integer thresholds on the raw stream."""
    dtype = np.dtype(dtype)
    draw_dtype = dtype if dtype == np.float32 else np.float64
    u = generator.random(shape, dtype=draw_dtype)
    mask = (u >= rate).astype(dtype)
    mask /= np.asarray(1.0 - rate, dtype=dtype)
    return mask


def dropout(x, rate, generator):
    """Inverted dropout as one mul node over a dropout_mask draw."""
    x = ad.as_tensor(x)
    return ad.mul(x, dropout_mask(x.data.shape, x.data.dtype, rate,
                                  generator))


# -- per-cell CSV writer ----------------------------------------------------

def write_csv(path, header, columns):
    """Write a table given as columns: a float array's cells in repr (the
    round-trip form), any other array's in str, any other cell via _fmt.
    One Python string per cell: the reference for ioutil.write_csv."""
    cells = [map(repr if col.dtype.kind == "f" else str, col.tolist())
             if isinstance(col, np.ndarray) else map(_fmt, col)
             for col in columns]
    atomic_write_text(path, "\n".join(
        [",".join(header), *map(",".join, zip(*cells))]) + "\n")


def _fmt(v):
    return "" if v is None else repr(v) if isinstance(v, float) else str(v)


# -- per-op encoder layer -------------------------------------------------

def batch_norm(x, bn: rs.BatchNormParams, training):
    """Batch norm composed of tape ops (ten nodes in training mode)."""
    if training:
        mu = tmean(x, axis=0, keepdims=True)
        centered = sub(x, mu)
        var = tmean(ad.mul(centered, centered), axis=0, keepdims=True)
        m = rs.BN_MOMENTUM
        bn.running_mean = (1 - m) * bn.running_mean + m * mu.data.ravel()
        bn.running_var = (1 - m) * bn.running_var + m * var.data.ravel()
        xhat = div(centered, sqrt(add(var, rs.BN_EPS)))
    else:
        mean = bn.running_mean.astype(x.data.dtype)
        std = np.sqrt(bn.running_var + rs.BN_EPS).astype(x.data.dtype)
        xhat = div(sub(x, mean), std)
    return add(ad.mul(xhat, bn.gamma), bn.beta)


def encoder_layer(z, bn, *, training, floor=0.0, dropout_rate=0.0,
                  generator=None):
    """softplus(batch_norm(z)) (+ floor), then dropout, op by op: the
    reference for reasoning.encoder_layer."""
    out = softplus(batch_norm(z, bn, training))
    if floor:
        out = add(out, floor)
    if dropout_rate > 0.0:
        out = dropout(out, dropout_rate, generator)
    return out


def encode(adj, px, params, *, training=False, dropout_rate=0.0,
           generator=None):
    """reasoning.encode with both layers composed op by op."""
    h1 = encoder_layer(ad.matmul(px, params.w1), params.bn1,
                       training=training,
                       dropout_rate=dropout_rate if training else 0.0,
                       generator=generator)
    z2 = spmm(adj, ad.matmul(h1, params.w2))
    return encoder_layer(z2, params.bn2, training=training, floor=rs.EMB_EPS)


# -- per-op Beta-KL -------------------------------------------------------

def beta_kl(node, cls):
    """Summed per-dimension KL(Beta_node || Beta_class) from tape ops
    (about 25 nodes); operands are [alpha || beta] and broadcast."""
    d = node.data.shape[-1] // 2
    a_n, b_n = cols(node, 0, d), cols(node, d, 2 * d)
    a_c, b_c = cols(cls, 0, d), cols(cls, d, 2 * d)
    ln_b_c = add(lgamma(a_c), lgamma(b_c))
    ln_b_c = sub(ln_b_c, lgamma(add(a_c, b_c)))
    ln_b_n = add(lgamma(a_n), lgamma(b_n))
    ln_b_n = sub(ln_b_n, lgamma(add(a_n, b_n)))
    s_n = add(a_n, b_n)
    term = sub(ln_b_c, ln_b_n)
    term = add(term, ad.mul(sub(a_n, a_c), digamma(a_n)))
    term = add(term, ad.mul(sub(b_n, b_c), digamma(b_n)))
    term = add(term, ad.mul(sub(add(a_c, b_c), s_n), digamma(s_n)))
    return ad.tsum(term, axis=-1)


def dist_matrix(nodes, classes):
    """(m, C) distances, every node row against every class row, through
    (m, 1, 2d) and (1, C, 2d) reshapes of the per-op beta_kl."""
    m, d2 = nodes.data.shape
    c = classes.data.shape[0]
    return beta_kl(ad.reshape(nodes, (m, 1, d2)),
                   ad.reshape(classes, (1, c, d2)))


# -- per-op class regions and margin loss ------------------------------------

@dataclass
class Regions:
    """The class regions as the per-op composition builds them."""
    per_class: ad.Tensor       # (K, 2d)
    known: ad.Tensor           # (1, 2d)
    novel: ad.Tensor           # (1, 2d)

    def fused(self):
        """The (K+1, 2d) rows of reasoning.build_class_embeddings:
        per_class, then novel."""
        return np.concatenate([self.per_class.data, self.novel.data])


def disjunction(x2d, params):
    """The set-to-one disjunction from tape ops (eleven nodes): the
    reference for reasoning.disjunction and build_class_embeddings."""
    if x2d.data.shape[0] == 0:
        raise ValueError("disjunction over an empty set")
    u = relu(add(ad.matmul(x2d, params.h1_w), params.h1_b))
    pooled = colmean_exact(u)
    z = add(ad.mul(pooled, params.w), params.bias)
    z = ad.reshape(z, (1, z.data.shape[0]))
    return add(softplus(add(ad.matmul(z, params.h2_w), params.h2_b)),
                  rs.EMB_EPS)


def negation(x):
    return div(1.0, x)


def build_class_embeddings(node_embs_2d, class_train_indices, params):
    """Per-class disjunction over gathered rows, then the union region and
    its negation, op by op."""
    per = []
    for idx in class_train_indices:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("a known class has no training nodes")
        per.append(disjunction(ad.take_rows(node_embs_2d, idx), params))
    per_class = concat(per, axis=0)
    known = disjunction(per_class, params)
    return Regions(per_class=per_class, known=known, novel=negation(known))


def beta_loss(node_embs_2d, labels, regions, gamma, *, include_novel=True):
    """reasoning.beta_loss from tape ops over the Regions of
    build_class_embeddings."""
    labels = np.asarray(labels, dtype=np.int64)
    k = regions.per_class.data.shape[0]
    stack = regions.per_class
    if include_novel:
        stack = concat([stack, regions.novel], axis=0)
    dists = rs.dist_matrix(node_embs_2d, stack)           # (m, K or K+1)
    m, c = dists.data.shape
    onehot = np.zeros((m, c), dtype=dists.data.dtype)
    onehot[np.arange(m), labels] = 1.0
    pos = ad.tsum(ad.mul(dists, onehot), axis=1)
    pos_term = softplus(sub(pos, gamma))
    neg_terms = softplus(sub(gamma, dists))
    neg_sum = ad.tsum(ad.mul(neg_terms, 1.0 - onehot), axis=1)
    per_node = add(pos_term, ad.mul(neg_sum, 1.0 / k))
    return tmean(per_node)


# -- per-op evidence heads, assembly and Dirichlet loss -----------------------

@dataclass
class Opinions:
    """Evidence and prior weight as the per-op composition builds them."""
    evidence: ad.Tensor        # (n, K)
    prior_weight: ad.Tensor    # (n, 1)
    base_rates: np.ndarray

    def fused(self):
        """The (n, K+1) opinions of evidence.NodeOpinionBatch."""
        return np.concatenate([self.evidence.data, self.prior_weight.data],
                              axis=1)


def sparse_matmul(adj, x):
    """adj @ x for any sparse adj, held constant, as one tape node whose
    gradient is adj.T @ g: the propagation by the training block, which
    is not symmetric."""
    x = ad.as_tensor(x)
    return _node(adj.matmul(x.data), ((x, adj.T.matmul),))


def evidence_forward(adj, prop, row_scale, regions, params, *, dropout_rate,
                     generator, learned_prior):
    """evidence.evidence_forward with every head composed op by op (about
    ten nodes each, one dropout draw per head in order) and the assembly
    op by op, over the same frozen arrays."""
    k = regions.shape[0] - 1
    d2 = prop.shape[1]
    prop, row_scale = ad.Tensor(prop), ad.Tensor(row_scale)

    def head_out(head, cls_row):
        w_node = ad.take_rows(head.w1, np.arange(0, d2))
        w_cls = ad.take_rows(head.w1, np.arange(d2, 2 * d2))
        shift = ad.matmul(cls_row, w_cls)
        z = add(ad.matmul(prop, w_node), ad.mul(row_scale, shift))
        h = relu(add(z, head.b1))
        if dropout_rate > 0.0:
            h = dropout(h, dropout_rate, generator)
        return ad.matmul(h, head.w2)

    heads = list(params.per_class) + ([params.novel] if learned_prior else [])
    stacked = concat([head_out(h, regions[[i]]) for i, h in enumerate(heads)],
                     axis=1)
    if adj is not None:
        stacked = sparse_matmul(adj, stacked)
    stacked = add(stacked, concat([head.b2 for head in heads], axis=0))
    evidence = softplus(cols(stacked, 0, k))
    if learned_prior:
        prior = add(softplus(cols(stacked, k, k + 1)), ev.PRIOR_EPS)
    else:
        prior = ad.Tensor(np.full((stacked.data.shape[0], 1), float(k),
                                  dtype=prop.data.dtype))
    return Opinions(evidence=evidence, prior_weight=prior,
                    base_rates=np.full(k, 1.0 / k))


def dirichlet_loss(batch, labels):
    """evidence.dirichlet_loss from tape ops over Opinions."""
    labels = np.asarray(labels, dtype=np.int64)
    k = batch.base_rates.size
    e, w = batch.evidence, batch.prior_weight
    s = add(ad.tsum(e, axis=1, keepdims=True), w)     # (m, 1)
    onehot = np.zeros((labels.size, k), dtype=e.data.dtype)
    onehot[np.arange(labels.size), labels] = 1.0
    e_y = ad.tsum(ad.mul(e, onehot), axis=1, keepdims=True)
    a_y = batch.base_rates[labels].reshape(-1, 1).astype(e.data.dtype)
    xi_y = add(e_y, ad.mul(w, a_y))
    per_node = sub(digamma(s), digamma(xi_y))
    return tmean(per_node)


# -- per-op direct head and cross entropy -------------------------------------

def direct_logits(adj, px, params, *, dropout_rate=0.0, generator=None,
                  rows=None):
    """evidence.direct_logits op by op (six nodes, one more each for
    dropout, a float-draw mask, and for rows)."""
    h = relu(add(ad.matmul(px, params.w1), params.b1))
    if dropout_rate > 0.0:
        h = dropout(h, dropout_rate, generator)
    out = add(spmm(adj, ad.matmul(h, params.w2)), params.b2)
    return out if rows is None else ad.take_rows(out, rows)


def cross_entropy(logits, labels):
    """evaluation.cross_entropy from tape ops: the mean of logsumexp minus
    the labelled logit."""
    onehot = np.zeros_like(logits.data)
    onehot[np.arange(onehot.shape[0]), labels] = 1.0
    lse = logsumexp(logits, axis=1)
    return tmean(sub(lse, ad.tsum(ad.mul(logits, onehot), axis=1)))


# -- per-parameter Adam -----------------------------------------------------

def adam_step(params, lr, t, m, v, b1=0.9, b2=0.999, eps=1e-8):
    """Step t of Adam, parameter by parameter, with the moments in the
    lists m and v: the reference for autodiff.Adam's flat-vector step."""
    bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        g = p.grad.astype(np.float64, copy=False)
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        upd = lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + eps)
        p.data = (p.data - upd.astype(p.data.dtype, copy=False)).astype(
            p.data.dtype, copy=False)


# -- finite-difference verification ----------------------------------------

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
            with ad.no_grad():
                lp = float(loss_fn().data)
            flat[i] = orig - epsilon
            with ad.no_grad():
                lm = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise FloatingPointError(f"non-finite loss probing {name}[{i}]")
            numeric[i] = (lp - lm) / (2.0 * epsilon)
        numeric = numeric.reshape(p.data.shape)
        err = float(_rel_err(analytic[name], numeric).max()) if flat.size else 0.0
        reports.append(GradCheckReport(name, analytic[name], numeric, err))
    return reports


# -- scalar subjective-logic forms ------------------------------------------

@dataclass(frozen=True)
class MultinomialOpinion:
    evidence: np.ndarray          # (K,) nonnegative
    prior_weight: float           # > 0
    base_rates: np.ndarray = None  # (K,) summing to 1; uniform if omitted

    def __post_init__(self):
        e = np.asarray(self.evidence, dtype=np.float64)
        object.__setattr__(self, "evidence", e)
        if e.ndim != 1 or e.size == 0:
            raise ValueError("evidence must be a nonempty vector")
        if np.any(e < 0) or not np.all(np.isfinite(e)):
            raise ValueError("evidence must be nonnegative and finite")
        if not (self.prior_weight > 0 and np.isfinite(self.prior_weight)):
            raise ValueError("prior weight must be positive")
        if self.base_rates is None:
            a = np.full(e.size, 1.0 / e.size)
        else:
            a = np.asarray(self.base_rates, dtype=np.float64)
            if a.shape != e.shape or np.any(a < 0):
                raise ValueError("base rates must be nonnegative, one per class")
            if abs(a.sum() - 1.0) > 1e-9:
                raise ValueError("base rates must sum to 1")
        object.__setattr__(self, "base_rates", a)

    @property
    def strength(self) -> float:
        return float(self.prior_weight + self.evidence.sum())


@dataclass(frozen=True)
class OpinionView:
    belief: np.ndarray
    uncertainty: float
    strength: float


def to_view(op: MultinomialOpinion) -> OpinionView:
    s = op.strength
    return OpinionView(belief=op.evidence / s, uncertainty=op.prior_weight / s,
                       strength=s)


def vacuity(op: MultinomialOpinion) -> float:
    return op.prior_weight / op.strength


def balance(b_j: float, b_i: float) -> float:
    """Relative mass balance; 0 by convention when both masses vanish."""
    if b_j < 0 or b_i < 0:
        raise ValueError("balance requires nonnegative masses")
    tot = b_j + b_i
    if tot == 0.0:
        return 0.0
    return 1.0 - abs(b_j - b_i) / tot


def dissonance(op: MultinomialOpinion) -> float:
    b = to_view(op).belief
    total = 0.0
    for i in range(b.size):
        others = np.delete(b, i)
        denom = others.sum()
        if denom == 0.0:
            continue
        num = sum(bj * balance(bj, b[i]) for bj in others)
        total += b[i] * num / denom
    return total


def projected_probability(op: MultinomialOpinion) -> np.ndarray:
    view = to_view(op)
    return view.belief + op.base_rates * view.uncertainty


def expected_probability(op: MultinomialOpinion) -> np.ndarray:
    """xi_k / sum(xi) with xi_k = e_k + a_k W; equals projected_probability."""
    xi = op.evidence + op.base_rates * op.prior_weight
    return xi / xi.sum()
