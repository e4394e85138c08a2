"""Beta embeddings: graph encoder, neural disjunction, negation, KL distance.

A Beta embedding is d independent Beta distributions.  Every embedding
(nodes, class regions, the known union and the novel region) is one
(rows, 2d) tensor laid out [alpha || beta]; beta_kl is the only code
that reads the two halves apart.  Every producer ends in a softplus (or
a reciprocal), so all parameters stay strictly positive.

The set-to-one disjunction operator is

    softplus(h2(colmean(h1([alpha || beta])) * w + bias))

where h1 projects rows into a D-dimensional space in which averaging is
meaningful, w is an elementwise weight vector over that space, and h2
projects back.  The column mean is computed with correctly rounded
summation, so the operator is exactly invariant under permutation and
duplication of its inputs.

The distance between two embeddings is the summed per-dimension
KL(Beta_node || Beta_class); node-first ordering makes the trained class
embeddings cover the node modes rather than the reverse.

Each encoder layer (batch norm, softplus, dropout), the second layer's
propagation adj @ (h1 @ w2) and the Beta-KL are one tape node each,
whose values equal the per-op composition (tests/oracles.py) bit for
bit.  The encoder layer's and the Beta-KL's gradients are closed forms,
which agree with the composition's to 1e-12 of the largest in float64;
propagate's VJP replays the composition exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special
from .autodiff import Tensor
from .sparse import SparseMatrix


# floor added to softplus outputs so Beta parameters stay positive even
# where float32 softplus would underflow to exactly zero
EMB_EPS = 1e-10
# batch norm: running-statistics momentum and the variance epsilon
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class EncoderParams:
    w1: Tensor                 # (F, H)
    bn1: BatchNormParams
    w2: Tensor                 # (H, 2d)
    bn2: BatchNormParams

    def tensors(self):
        return {"encoder.w1": self.w1, "encoder.bn1.gamma": self.bn1.gamma,
                "encoder.bn1.beta": self.bn1.beta, "encoder.w2": self.w2,
                "encoder.bn2.gamma": self.bn2.gamma,
                "encoder.bn2.beta": self.bn2.beta}


@dataclass
class DisjunctionParams:
    h1_w: Tensor               # (2d, D)
    h1_b: Tensor               # (D,)
    h2_w: Tensor               # (D, 2d)
    h2_b: Tensor               # (2d,)
    w: Tensor                  # (D,)
    bias: Tensor               # (D,)

    def tensors(self):
        return {"disjunction.h1_w": self.h1_w, "disjunction.h1_b": self.h1_b,
                "disjunction.h2_w": self.h2_w, "disjunction.h2_b": self.h2_b,
                "disjunction.w": self.w, "disjunction.bias": self.bias}


@dataclass
class ClassEmbeddings:
    """Support regions: one per known class, their union, its complement."""
    per_class: Tensor          # (K, 2d)
    known: Tensor              # (1, 2d)
    novel: Tensor              # (1, 2d)

    @property
    def class_count(self):
        return self.per_class.data.shape[0]


def glorot(generator, rows, cols, dtype):
    limit = np.sqrt(6.0 / (rows + cols))
    return ad.Tensor(
        generator.uniform(-limit, limit, size=(rows, cols)).astype(dtype),
        requires_grad=True,
    )


def init_encoder(generator, feature_dim, hidden_dim, embed_dim, dtype):
    def bn(width):
        return BatchNormParams(
            gamma=ad.Tensor(np.ones(width, dtype=dtype), requires_grad=True),
            beta=ad.Tensor(np.zeros(width, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(width),
            running_var=np.ones(width),
        )

    return EncoderParams(
        w1=glorot(generator, feature_dim, hidden_dim, dtype),
        bn1=bn(hidden_dim),
        w2=glorot(generator, hidden_dim, 2 * embed_dim, dtype),
        bn2=bn(2 * embed_dim),
    )


# softplus(x) = 1 at this bias, so freshly initialized regions sit near
# Beta(1, 1) and their negation stays tame
_UNIT_BIAS = 0.5413248546129181


def init_disjunction(generator, embed_dim, reasoning_dim, dtype):
    return DisjunctionParams(
        h1_w=glorot(generator, 2 * embed_dim, reasoning_dim, dtype),
        h1_b=ad.Tensor(np.zeros(reasoning_dim, dtype=dtype), requires_grad=True),
        h2_w=glorot(generator, reasoning_dim, 2 * embed_dim, dtype),
        h2_b=ad.Tensor(np.full(2 * embed_dim, _UNIT_BIAS, dtype=dtype),
                       requires_grad=True),
        w=ad.Tensor(np.ones(reasoning_dim, dtype=dtype), requires_grad=True),
        bias=ad.Tensor(np.zeros(reasoning_dim, dtype=dtype), requires_grad=True),
    )


def encode(adj: SparseMatrix, px: Tensor, params: EncoderParams, *,
           training=False, dropout_rate=0.0, generator=None) -> Tensor:
    """Two propagation layers, each batch-normed then softplused; the
    (n, 2d) output is the [alpha || beta] node embedding matrix.

    px is the propagated feature matrix adj @ x: the features are
    constant, so the first propagation is computed once per graph
    (RunContext.propagated_x).  Training updates the batch-norm running
    statistics; inference reads them.
    """
    h1 = encoder_layer(ad.matmul(px, params.w1), params.bn1,
                       training=training,
                       dropout_rate=dropout_rate if training else 0.0,
                       generator=generator)
    z2 = propagate(adj, h1, params.w2)
    return encoder_layer(z2, params.bn2, training=training, floor=EMB_EPS)


def propagate(adj: SparseMatrix, h: Tensor, w: Tensor) -> Tensor:
    """adj @ (h @ w) as one tape node, which does not keep the (n, H)
    product h @ w.  The VJP computes adj @ g once, then the gradients of
    h and w from it, in the order of ad.spmm's and ad.matmul's VJPs, so
    values and gradients equal that composition bit for bit (adj is
    symmetric, see ad.spmm)."""
    out = adj.matmul(h.data @ w.data)

    def grads(g):
        ga = adj.matmul(g)
        return ga @ w.data.T, h.data.T @ ga

    return ad.fused_node(out, (h, w), grads)


def encoder_layer(z: Tensor, bn: BatchNormParams, *, training, floor=0.0,
                  dropout_rate=0.0, generator=None) -> Tensor:
    """softplus(batch_norm(z)) + floor, then inverted dropout, as one tape
    node.

    Batch norm uses the column statistics of z in training (and updates
    the running ones) and the running ones otherwise.  The forward runs
    the per-op composition's ops in its order, in place where it can.
    The VJP is the closed form of Ioffe & Szegedy (2015), with gy the
    gradient of the batch-norm output and xhat = (z - mean) / std:
    dbeta = sum gy, dgamma = sum gy xhat, and dz = gy gamma / std, less
    (dbeta + xhat dgamma) gamma / (n std) in training.  The dbeta term
    goes last, as a column mean, so that dz's columns sum to zero to
    rounding like the composition's (float32 sums downstream cancel).
    Backward keeps the softplus derivative, the dropout mask and two
    (1, H) statistics.
    """
    x = z.data
    if training:
        mean = x.mean(axis=0, keepdims=True)
        y = x - mean
        var = (y * y).mean(axis=0, keepdims=True)
        m = BN_MOMENTUM
        bn.running_mean = (1 - m) * bn.running_mean + m * mean.ravel()
        bn.running_var = (1 - m) * bn.running_var + m * var.ravel()
        std = np.sqrt(var + BN_EPS)
    else:
        mean = bn.running_mean.astype(x.dtype)
        std = np.sqrt(bn.running_var + BN_EPS).astype(x.dtype)
        y = x - mean
    gamma, beta = bn.gamma.data, bn.beta.data
    y /= std
    y *= gamma
    y += beta
    e = np.abs(y)
    np.negative(e, out=e)
    np.exp(e, out=e)                        # exp(-|y|)
    taped = ad.grad_needed(z, bn.gamma, bn.beta)
    if taped:                               # special.sigmoid, see there
        sig = np.maximum(e, y >= 0)
    np.maximum(y, 0, out=y)
    y += np.log1p(e)                        # special.softplus
    if taped:
        e += 1
        sig /= e
    del e
    if floor:
        y += floor
    mask = None
    if dropout_rate > 0.0:
        mask = ad.dropout_mask(y.shape, y.dtype, dropout_rate, generator)
        y *= mask

    def grads(g):
        # through dropout and softplus: dL/dy
        if mask is None:
            gy = g * sig
        else:
            gy = g * mask
            gy *= sig
        g_beta = gy.sum(axis=0)
        xhat = z.data - mean
        xhat /= std
        g_gamma = (gy * xhat).sum(axis=0)
        if training:                        # mean and std depend on z
            xhat *= g_gamma
            xhat /= x.shape[0]
            gy -= xhat
        gy *= gamma / std
        if training:                        # the dbeta / n term
            gy -= gy.mean(axis=0)
        return gy, g_gamma, g_beta

    return ad.fused_node(y, (z, bn.gamma, bn.beta), grads)


def disjunction(x2d: Tensor, params: DisjunctionParams) -> Tensor:
    """Aggregate the (m, 2d) rows of x2d into one (1, 2d) region.

    Order and multiplicity of the rows do not affect the result.
    """
    if x2d.data.shape[0] == 0:
        raise ValueError("disjunction over an empty set")
    u = ad.relu(ad.add(ad.matmul(x2d, params.h1_w), params.h1_b))
    pooled = ad.colmean_exact(u)
    z = ad.add(ad.mul(pooled, params.w), params.bias)
    z = ad.reshape(z, (1, z.data.shape[0]))
    return ad.add(ad.softplus(ad.add(ad.matmul(z, params.h2_w), params.h2_b)),
                  EMB_EPS)


def negation(x: Tensor) -> Tensor:
    """(alpha, beta) -> (1/alpha, 1/beta); an exact involution."""
    return ad.div(1.0, x)


def build_class_embeddings(node_embs_2d: Tensor, class_train_indices,
                           params: DisjunctionParams) -> ClassEmbeddings:
    """Per-class disjunction over training rows, then the union region and
    its negation for the novel side."""
    per = []
    for idx in class_train_indices:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("a known class has no training nodes")
        per.append(disjunction(ad.take_rows(node_embs_2d, idx), params))
    per_class = ad.concat(per, axis=0)
    known = disjunction(per_class, params)
    return ClassEmbeddings(per_class=per_class, known=known,
                           novel=negation(known))


def beta_kl(node: Tensor, cls: Tensor) -> Tensor:
    """Summed per-dimension KL(Beta_node || Beta_class), one tape node.

    Operands are [alpha || beta] along the last axis.  Shapes broadcast:
    (m, 2d) against (C, 2d) evaluates every pair when the operands are
    reshaped to (m, 1, 2d) and (1, C, 2d) by dist_matrix.  Per dimension,
    with s = alpha + beta,

        ln B(a_c, b_c) - ln B(a_n, b_n) + (a_n - a_c) psi(a_n)
        + (b_n - b_c) psi(b_n) + (s_c - s_n) psi(s_n).

    The forward runs the per-op composition's ops in its order.  Read as
    the Bregman divergence of ln B (Banerjee et al., 2005), the gradient
    is, with psi' the trigamma and x each of a and b,

        d/dx_n = psi'(x_n)(x_n - x_c) - psi'(s_n)(s_n - s_c)
        d/dx_c = psi(x_c) - psi(s_c) - psi(x_n) + psi(s_n).
    """
    if node.data.shape[-1] != cls.data.shape[-1] or node.data.shape[-1] % 2:
        raise ValueError("embeddings must be [alpha || beta] of one width")
    d = node.data.shape[-1] // 2
    a_n, b_n = node.data[..., :d], node.data[..., d:2 * d]
    a_c, b_c = cls.data[..., :d], cls.data[..., d:2 * d]
    s_c, s_n = a_c + b_c, a_n + b_n
    ln_b_c = special.lgamma(a_c) + special.lgamma(b_c)
    ln_b_c -= special.lgamma(s_c)
    ln_b_n = special.lgamma(a_n) + special.lgamma(b_n)
    ln_b_n -= special.lgamma(s_n)
    psi_a, psi_b, psi_s = (special.digamma(v) for v in (a_n, b_n, s_n))
    term = ln_b_c - ln_b_n
    del ln_b_c, ln_b_n
    term += (a_n - a_c) * psi_a
    term += (b_n - b_c) * psi_b
    term += (s_c - s_n) * psi_s
    out = term.sum(axis=-1)
    del term

    def grads(g):
        # the a and b halves side by side on a second-to-last axis of 2
        x_n = node.data.reshape(node.data.shape[:-1] + (2, d))
        x_c = cls.data.reshape(cls.data.shape[:-1] + (2, d))
        g_n = x_n - x_c
        g_n *= special.trigamma(x_n)
        g_n -= ((s_n - s_c) * special.trigamma(s_n))[..., None, :]
        g_c = special.digamma(x_c) - np.stack([psi_a, psi_b], axis=-2)
        g_c += (psi_s - special.digamma(s_c))[..., None, :]
        g = np.expand_dims(g, (-2, -1)).astype(out.dtype, copy=False)
        g_n *= g
        g_c *= g
        return (ad._unbroadcast(g_n, x_n.shape).reshape(node.data.shape),
                ad._unbroadcast(g_c, x_c.shape).reshape(cls.data.shape))

    return ad.fused_node(out, (node, cls), grads)


def dist_matrix(nodes: Tensor, classes: Tensor) -> Tensor:
    """(m, C) distances from every node row to every class row."""
    m, d2 = nodes.data.shape
    c = classes.data.shape[0]
    return beta_kl(ad.reshape(nodes, (m, 1, d2)),
                   ad.reshape(classes, (1, c, d2)))


def beta_loss(node_embs_2d: Tensor, labels, class_embs: ClassEmbeddings,
              gamma, *, include_novel=True) -> Tensor:
    """Margin loss pulling nodes toward their class region and pushing all
    other regions (optionally including the novel region) past the margin.

      -log sigmoid(gamma - Dist(N, C_y))
      - sum_negatives (1/K) log sigmoid(Dist(N, C_k) - gamma)
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = class_embs.class_count
    stack = class_embs.per_class
    if include_novel:
        stack = ad.concat([stack, class_embs.novel], axis=0)
    dists = dist_matrix(node_embs_2d, stack)              # (m, K or K+1)
    m, c = dists.data.shape
    onehot = np.zeros((m, c), dtype=dists.data.dtype)
    onehot[np.arange(m), labels] = 1.0
    pos = ad.tsum(ad.mul(dists, onehot), axis=1)
    pos_term = ad.softplus(ad.sub(pos, gamma))
    neg_terms = ad.softplus(ad.sub(gamma, dists))
    neg_sum = ad.tsum(ad.mul(neg_terms, 1.0 - onehot), axis=1)
    per_node = ad.add(pos_term, ad.mul(neg_sum, 1.0 / k))
    return ad.tmean(per_node)
