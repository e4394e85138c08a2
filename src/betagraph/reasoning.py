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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .sparse import SparseMatrix


# floor added to softplus outputs so Beta parameters stay positive even
# where float32 softplus would underflow to exactly zero
EMB_EPS = 1e-10


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5


def batch_norm(x, bn: BatchNormParams, training, update_running=True):
    if training:
        mu = ad.tmean(x, axis=0, keepdims=True)
        centered = ad.sub(x, mu)
        var = ad.tmean(ad.mul(centered, centered), axis=0, keepdims=True)
        if update_running:
            m = bn.momentum
            bn.running_mean = (1 - m) * bn.running_mean + m * mu.data.ravel()
            bn.running_var = (1 - m) * bn.running_var + m * var.data.ravel()
        xhat = ad.div(centered, ad.sqrt(ad.add(var, bn.eps)))
    else:
        mean = bn.running_mean.astype(x.data.dtype)
        std = np.sqrt(bn.running_var + bn.eps).astype(x.data.dtype)
        xhat = ad.div(ad.sub(x, mean), std)
    return ad.add(ad.mul(xhat, bn.gamma), bn.beta)


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


def encode(adj: SparseMatrix, x, params: EncoderParams, *, training=False,
           dropout_rate=0.0, generator=None, update_running=True,
           propagated_x=None) -> Tensor:
    """Two propagation layers, each batch-normed then softplused; the
    (n, 2d) output is the [alpha || beta] node embedding matrix.

    propagated_x may carry a cached adj @ x (the features are constant,
    so the first propagation never changes between epochs).
    """
    x = ad.as_tensor(x)
    px = propagated_x if propagated_x is not None else ad.spmm(adj, x)
    z1 = ad.matmul(px, params.w1)
    h1 = ad.softplus(batch_norm(z1, params.bn1, training, update_running))
    if training and dropout_rate > 0.0:
        h1 = ad.dropout(h1, dropout_rate, generator, training=True)
    z2 = ad.spmm(adj, ad.matmul(h1, params.w2))
    out = ad.add(ad.softplus(batch_norm(z2, params.bn2, training,
                                        update_running)), EMB_EPS)
    return out


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
    """Summed per-dimension KL(Beta_node || Beta_class).

    Operands are [alpha || beta] along the last axis.  Shapes broadcast:
    (m, 2d) against (C, 2d) evaluates every pair when the operands are
    reshaped to (m, 1, 2d) and (1, C, 2d) by dist_matrix.
    """
    if node.data.shape[-1] != cls.data.shape[-1]:
        raise ValueError("embedding dimension mismatch")
    d = node.data.shape[-1] // 2
    a_n, b_n = ad.cols(node, 0, d), ad.cols(node, d, 2 * d)
    a_c, b_c = ad.cols(cls, 0, d), ad.cols(cls, d, 2 * d)
    ln_b_c = ad.add(ad.lgamma(a_c), ad.lgamma(b_c))
    ln_b_c = ad.sub(ln_b_c, ad.lgamma(ad.add(a_c, b_c)))
    ln_b_n = ad.add(ad.lgamma(a_n), ad.lgamma(b_n))
    ln_b_n = ad.sub(ln_b_n, ad.lgamma(ad.add(a_n, b_n)))
    s_n = ad.add(a_n, b_n)
    term = ad.sub(ln_b_c, ln_b_n)
    term = ad.add(term, ad.mul(ad.sub(a_n, a_c), ad.digamma(a_n)))
    term = ad.add(term, ad.mul(ad.sub(b_n, b_c), ad.digamma(b_n)))
    term = ad.add(term, ad.mul(ad.sub(ad.add(a_c, b_c), s_n), ad.digamma(s_n)))
    return ad.tsum(term, axis=-1)


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
