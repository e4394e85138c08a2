"""Beta embeddings: graph encoder, neural disjunction, negation, KL distance.

A Beta embedding is d independent Beta distributions; node and class
embeddings are carried as (rows, 2d) tensors laid out [alpha || beta],
with every producer ending in a softplus (or a reciprocal), so all
parameters stay strictly positive.

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
class BetaEmbedding:
    """(rows, d) alpha/beta parameter pair; rows may be 1 for a single region."""
    alpha: Tensor
    beta: Tensor

    @property
    def d(self):
        return self.alpha.data.shape[-1]

    def stacked(self) -> Tensor:
        """[alpha || beta] layout, shape (rows, 2d)."""
        return ad.concat([self.alpha, self.beta], axis=1)

    def values(self):
        return self.alpha.data, self.beta.data


def split_embedding(x2d: Tensor) -> BetaEmbedding:
    d = x2d.data.shape[-1] // 2
    return BetaEmbedding(alpha=ad.cols(x2d, 0, d), beta=ad.cols(x2d, d, 2 * d))


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
    per_class: BetaEmbedding   # (K, d) pair
    known: BetaEmbedding       # (1, d) pair
    novel: BetaEmbedding       # (1, d) pair

    @property
    def class_count(self):
        return self.per_class.alpha.data.shape[0]


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


def disjunction(inputs, params: DisjunctionParams) -> BetaEmbedding:
    """Aggregate a set of Beta embeddings into one region.

    inputs: a (m, 2d) tensor of [alpha || beta] rows, a BetaEmbedding, or
    a list of either (rows are concatenated).  Order and multiplicity of
    the rows do not affect the result.
    """
    x2d = _rows_2d(inputs)
    if x2d.data.shape[0] == 0:
        raise ValueError("disjunction over an empty set")
    u = ad.relu(ad.add(ad.matmul(x2d, params.h1_w), params.h1_b))
    pooled = ad.colmean_exact(u)
    z = ad.add(ad.mul(pooled, params.w), params.bias)
    z = ad.reshape(z, (1, z.data.shape[0]))
    out = ad.add(ad.softplus(ad.add(ad.matmul(z, params.h2_w), params.h2_b)),
                 EMB_EPS)
    return split_embedding(out)


def _rows_2d(inputs) -> Tensor:
    if isinstance(inputs, Tensor):
        return inputs
    if isinstance(inputs, BetaEmbedding):
        return inputs.stacked()
    if isinstance(inputs, (list, tuple)):
        if not inputs:
            raise ValueError("disjunction over an empty set")
        return ad.concat([_rows_2d(e) for e in inputs], axis=0)
    raise TypeError(f"cannot interpret {type(inputs)!r} as Beta embeddings")


def negation(emb: BetaEmbedding) -> BetaEmbedding:
    """(alpha, beta) -> (1/alpha, 1/beta); an exact involution."""
    return BetaEmbedding(alpha=ad.div(1.0, emb.alpha),
                         beta=ad.div(1.0, emb.beta))


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
    stacked = ad.concat([c.stacked() for c in per], axis=0)
    known = disjunction(stacked, params)
    return ClassEmbeddings(
        per_class=split_embedding(stacked),
        known=known,
        novel=negation(known),
    )


def beta_kl(node: BetaEmbedding, cls: BetaEmbedding) -> Tensor:
    """Summed per-dimension KL(Beta_node || Beta_class).

    Shapes broadcast: (m, d) against (C, d) evaluates every pair when the
    operands are reshaped to (m, 1, d) and (1, C, d) by dist_matrix.
    """
    a_n, b_n = node.alpha, node.beta
    a_c, b_c = cls.alpha, cls.beta
    if node.d != cls.d:
        raise ValueError("embedding dimension mismatch")
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


def dist_matrix(nodes: BetaEmbedding, classes: BetaEmbedding) -> Tensor:
    """(m, C) distances from every node row to every class row."""
    m, d = nodes.alpha.data.shape
    c = classes.alpha.data.shape[0]
    left = BetaEmbedding(alpha=ad.reshape(nodes.alpha, (m, 1, d)),
                         beta=ad.reshape(nodes.beta, (m, 1, d)))
    right = BetaEmbedding(alpha=ad.reshape(classes.alpha, (1, c, d)),
                          beta=ad.reshape(classes.beta, (1, c, d)))
    return beta_kl(left, right)


def beta_loss(node_embs_2d: Tensor, labels, class_embs: ClassEmbeddings,
              gamma, *, include_novel=True) -> Tensor:
    """Margin loss pulling nodes toward their class region and pushing all
    other regions (optionally including the novel region) past the margin.

      -log sigmoid(gamma - Dist(N, C_y))
      - sum_negatives (1/K) log sigmoid(Dist(N, C_k) - gamma)
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = class_embs.class_count
    nodes = split_embedding(node_embs_2d)
    if include_novel:
        stack = BetaEmbedding(
            alpha=ad.concat([class_embs.per_class.alpha, class_embs.novel.alpha],
                            axis=0),
            beta=ad.concat([class_embs.per_class.beta, class_embs.novel.beta],
                           axis=0),
        )
    else:
        stack = class_embs.per_class
    dists = dist_matrix(nodes, stack)                     # (m, K or K+1)
    m, c = dists.data.shape
    onehot = np.zeros((m, c), dtype=dists.data.dtype)
    onehot[np.arange(m), labels] = 1.0
    pos = ad.tsum(ad.mul(dists, onehot), axis=1)
    pos_term = ad.softplus(ad.sub(pos, gamma))
    neg_terms = ad.softplus(ad.sub(gamma, dists))
    neg_sum = ad.tsum(ad.mul(neg_terms, 1.0 - onehot), axis=1)
    per_node = ad.add(pos_term, ad.mul(neg_sum, 1.0 / k))
    return ad.tmean(per_node)
