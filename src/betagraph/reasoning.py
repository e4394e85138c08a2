"""Beta embeddings: graph encoder, neural disjunction, negation, KL distance.

A Beta embedding is d independent Beta distributions.  Every embedding
is one (rows, 2d) tensor laid out [alpha || beta]: the nodes, and the
class regions, whose K+1 rows are one support region per known class,
then the novel region, the negation of their union.  beta_kl is the only
code that reads the two halves apart.  Every producer ends in a softplus (or
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
propagation adj @ (h1 @ w2), the Beta-KL, all class regions (K
disjunctions, their union and its negation) and the margin loss are one
tape node each, whose values equal the per-op composition
(tests/oracles.py) bit for bit.  The encoder layer's and the Beta-KL's
gradients are closed forms, which agree with the composition's to 1e-12
of the largest in float64.  The other VJPs replay the composition's:
its expressions, with Python-float constants as its own, summed in the
order the tape accumulates them, so their gradients are its gradients.
Batching the classes' products into one GEMM would round differently,
so the class regions keep a loop over the classes inside their node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special
from .autodiff import Tensor
from .sparse import SparseMatrix, row_blocks


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
           training=False, dropout_rate=0.0, generator=None,
           rows=None) -> Tensor:
    """Two propagation layers, each batch-normed then softplused; the
    (n, 2d) output is the [alpha || beta] node embedding matrix, or only
    its given rows, so that the tape does not hold all n.

    px is the propagated feature matrix adj @ x: the features are
    constant, so the first propagation is computed once per graph
    (training.PreparedGraph).  The first layer's node reads px and w1,
    not their (n, H) product, which it forms in its forward and again in
    its VJP.  Training updates the batch-norm running statistics;
    inference reads them.  Untaped, each layer's softplus runs in place,
    in row blocks, and the first layer's output is let go of once
    multiplied by w2, before the sparse product: at most two (n, H)
    arrays and a block are alive at a time.
    """
    z2 = propagate(adj, encoder_layer(
        px, params.bn1, weight=params.w1, training=training,
        dropout_rate=dropout_rate if training else 0.0,
        generator=generator), params.w2)
    return encoder_layer(z2, params.bn2, training=training, floor=EMB_EPS,
                         rows=rows)


def propagate(adj: SparseMatrix, h: Tensor, w: Tensor) -> Tensor:
    """adj @ (h @ w) as one tape node, which does not keep the (n, H)
    product h @ w.  The VJP computes adj @ g once, and drops g, then the
    gradients of h and w from it, in the order of the per-op spmm's and
    matmul's VJPs (tests/oracles.py), so values and gradients equal that
    composition bit for bit (adj is symmetric, see
    graphs.normalize_adjacency)."""
    hw = h.data @ w.data
    if not ad.grad_needed(h, w):    # untaped, h goes before adj @ hw: one
        del h                       # passed as a temporary is freed here
        return Tensor(adj.matmul(hw))
    out = adj.matmul(hw)

    def grads(upstream):
        ga = adj.matmul(upstream.pop())     # g goes once adj @ g is formed
        return ga @ w.data.T, h.data.T @ ga

    return ad.fused_node(out, (h, w), grads)


def encoder_layer(z: Tensor, bn: BatchNormParams, *, training, weight=None,
                  floor=0.0, dropout_rate=0.0, generator=None,
                  rows=None) -> Tensor:
    """softplus(batch_norm(x)) + floor, then inverted dropout, then the
    given rows (all by default), as one tape node, where x is z, or
    z @ weight when a weight is given.

    Batch norm uses the column statistics of all of x in training (and
    updates the running ones) and the running ones otherwise.  The
    forward runs the per-op composition's ops in its order, in place
    where it can (the variance squares x - mean in its own buffer, which
    then takes x - mean again), and once the statistics are taken on the
    rows that are read only (dropout draws for all n, as the composition
    does); the softplus runs a row block at a time (sparse.row_blocks).
    With a weight, the node's parents are z and the weight, not their
    product: the forward lets go of x once x - mean is formed, and the
    VJP forms z @ weight again (the same product, so the same bits) as
    xhat's buffer, and returns the weight's gradient z.T @ dz, and z's
    dz @ weight.T where z requires grad, as the per-op matmul's VJP does.
    The VJP is the closed form of Ioffe & Szegedy (2015), with gy the
    gradient of the batch-norm output and xhat = (x - mean) / std: dbeta
    = sum gy, dgamma = sum gy xhat, and dx = gy gamma / std, less (dbeta
    + xhat dgamma) gamma / (n std) in training.  The dbeta term goes
    last, as a column mean, so that dx's columns sum to zero to rounding
    like the composition's (float32 sums downstream cancel).  gy is zero
    off the read rows, so both sums run over those rows, in row order:
    numpy's column sums start from +0, and the unread rows' zero terms
    change no bit.  The upstream gradient is summed per read row (a row
    can be asked for twice).  Backward keeps the softplus derivative and
    the bool dropout keep array of the read rows (float32 softplus can
    underflow to 0) and two (1, H) statistics.  The VJP, which the tape
    runs once, forms gy in the softplus derivative's buffer, a row block
    at a time, and drops the upstream gradient; then xhat dgamma / n (t)
    in xhat's buffer; with read rows, dx is then formed in xhat's
    buffer, gy - t on the read rows and 0 - t off them: the
    composition's zero array less t, without the zero array.  An
    upstream gradient of another dtype than the layer's is a ValueError,
    not a silent rounding into those buffers.
    """
    parents = (z, bn.gamma, bn.beta) if weight is None else \
        (z, weight, bn.gamma, bn.beta)
    taped = ad.grad_needed(*parents)
    x = z.data if weight is None else z.data @ weight.data
    n, width = x.shape
    if rows is not None:                    # the read rows, sorted
        read, inv = np.unique(rows, return_inverse=True)
    if training:
        mean = x.mean(axis=0, keepdims=True)
        y = x - mean
        y *= y                              # the variance's squares
        var = y.mean(axis=0, keepdims=True)
        np.subtract(x, mean, out=y)
        m = BN_MOMENTUM
        bn.running_mean = (1 - m) * bn.running_mean + m * mean.ravel()
        bn.running_var = (1 - m) * bn.running_var + m * var.ravel()
        std = np.sqrt(var + BN_EPS)
    else:
        mean = bn.running_mean.astype(x.dtype)
        std = np.sqrt(bn.running_var + BN_EPS).astype(x.dtype)
        y = x - mean
    del x                                   # z @ weight goes here
    if rows is not None:
        y = y[read]
    gamma, beta = bn.gamma.data, bn.beta.data
    y /= std
    y *= gamma
    y += beta
    sig = np.empty_like(y) if taped else None
    for r in row_blocks(y.shape[0]):        # softplus and sigmoid in place
        yr = y[r]
        e = np.abs(yr)
        np.negative(e, out=e)
        np.exp(e, out=e)                    # exp(-|y|)
        if taped:                           # special.sigmoid, see there
            np.maximum(e, yr >= 0, out=sig[r])
        np.maximum(yr, 0, out=yr)
        yr += np.log1p(e, out=None if taped else e)     # special.softplus
        if taped:
            e += 1
            sig[r] /= e
        del e                               # before the next block's
    if floor:
        y += floor
    keep = None
    if dropout_rate > 0.0:
        keep = ad.dropout_keep((n, width), y.dtype, dropout_rate, generator)
        if rows is not None:
            keep = keep[read]
        y *= keep
        y *= ad.dropout_scale(dropout_rate, y.dtype)

    def grads(upstream):
        g = upstream.pop()
        if g.dtype != sig.dtype:
            raise ValueError(f"the upstream gradient is {g.dtype}, the "
                             f"layer {sig.dtype}")
        if rows is not None:                # ad.take_rows's VJP, read rows
            g, gathered = np.zeros((read.size, width), g.dtype), g
            np.add.at(g, inv, gathered)
            del gathered
        # through dropout and softplus: dL/dy, in sig's buffer a row block
        # at a time (nothing reads sig after the VJP, which runs once)
        gy, scale = sig, ad.dropout_scale(dropout_rate, g.dtype)
        for r in row_blocks(gy.shape[0]):
            if keep is None:
                gy[r] *= g[r]
            else:
                block = g[r] * keep[r]
                block *= scale
                gy[r] *= block
                del block                   # before the next block's
        del g                               # the upstream goes here
        g_beta = gy.sum(axis=0)
        if weight is None:
            xhat = z.data - mean
        else:                               # z @ weight again
            xhat = z.data @ weight.data
            xhat -= mean
        xhat /= std
        g_gamma = (gy * (xhat if rows is None else xhat[read])).sum(axis=0)
        if training:                        # mean and std depend on x: t
            xhat *= g_gamma
            xhat /= n
        if rows is not None:        # dL/dx in xhat's buffer: gy - t on the
            if training:            # read rows, 0 - t (0 untrained) off them
                gy -= xhat[read]
                np.subtract(0, xhat, out=xhat)
            else:
                xhat[...] = 0
            xhat[read] = gy
            gy = xhat
        elif training:
            gy -= xhat
        gy *= gamma / std
        if training:                        # the dbeta / n term
            gy -= gy.mean(axis=0)
        if weight is None:
            return gy, g_gamma, g_beta
        return (gy @ weight.data.T if z.requires_grad else None,
                z.data.T @ gy, g_gamma, g_beta)

    return ad.fused_node(y if rows is None else y[inv], parents, grads)


def _disjoin(x, p: DisjunctionParams):
    """The disjunction of the rows of the array x, which their order and
    multiplicity do not change: its (1, 2d) value, from the per-op
    composition's ops in its order (tests/oracles.py), and its VJP g ->
    (dx, then one gradient per p.tensors() entry), each the expression of
    that composition's VJP."""
    m = x.shape[0]
    b = x @ p.h1_w.data + p.h1_b.data
    pooled = ad.colmean_exact(ad.relu_data(b))
    z = (pooled * p.w.data + p.bias.data).reshape(1, -1)
    e = z @ p.h2_w.data + p.h2_b.data

    def vjp(g):
        ge = g * special.sigmoid(e)
        gz = (ge @ p.h2_w.data.T).reshape(pooled.shape)
        gb = gz * p.w.data / m * (b > 0)
        gw = z.T * ge + 0                   # z.T @ ge, as evidence._head has
        return (gb @ p.h1_w.data.T, x.T @ gb,
                ad._unbroadcast(gb, p.h1_b.data.shape), gw,
                ad._unbroadcast(ge, p.h2_b.data.shape), gz * pooled, gz)

    return special.softplus(e) + EMB_EPS, vjp


def build_class_embeddings(node_embs_2d: Tensor, class_train_indices,
                           params: DisjunctionParams) -> Tensor:
    """The (K+1, 2d) class regions: the disjunction of each class's rows,
    then the negation of the union of those regions, as one tape node.

    The novel region is the negation (alpha, beta) -> (1/alpha, 1/beta)
    of the union.  The VJP walks them as the per-op tape does: the novel
    region, the union, then the classes in order, so each parameter's
    gradient is ((union + class 0) + class 1) + ..., or (class 0 + class
    1) + ... where the novel row's gradient is all zero: the tape never
    reaches an unread union.  The classes' rows are disjoint, as
    RunContext.class_rows are, so theirs need no order.
    """
    x = node_embs_2d.data
    parts = []
    for idx in class_train_indices:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("a known class has no training nodes")
        parts.append((idx, *_disjoin(x[idx], params)))
    per_class = np.concatenate([out for _, out, _ in parts])
    known, union_vjp = _disjoin(per_class, params)
    novel = 1.0 / known

    def grads(upstream):
        g = upstream.pop()
        g_per, total = g[:-1], None
        if g[-1:].any():
            g_union, *total = union_vjp(-g[-1:] * novel / known)
            g_per = g_per + g_union
        dx = np.zeros_like(x)
        for c, (idx, _, vjp) in enumerate(parts):
            gx, *pg = vjp(g_per[c:c + 1])
            np.add.at(dx, idx, gx)
            total = pg if total is None else [a + b for a, b in zip(total, pg)]
        return dx, *total

    return ad.fused_node(np.concatenate([per_class, novel]),
                         (node_embs_2d, *params.tensors().values()), grads)


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

    def grads(upstream):
        g = upstream.pop()
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


def beta_loss(node_embs_2d: Tensor, labels, regions: Tensor, gamma, *,
              include_novel=True) -> Tensor:
    """Margin loss pulling nodes toward their class region and pushing all
    other regions (optionally including the novel region) past the margin.

      -log sigmoid(gamma - Dist(N, C_y))
      - sum_negatives (1/K) log sigmoid(Dist(N, C_k) - gamma)

    One tape node over dist_matrix's output, whose VJP replays the per-op
    composition's (tests/oracles.py).
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = regions.data.shape[0] - 1
    if not include_novel:
        regions = ad.take_rows(regions, np.arange(k))
    dists = dist_matrix(node_embs_2d, regions)           # (m, K or K+1)
    d = dists.data
    m = d.shape[0]
    onehot = np.zeros(d.shape, dtype=d.dtype)
    onehot[np.arange(m), labels] = 1.0
    pos = (d * onehot).sum(axis=1) - gamma
    neg = gamma - d
    per_node = special.softplus(pos) + \
        (special.softplus(neg) * (1.0 - onehot)).sum(axis=1) * (1.0 / k)

    def grads(upstream):                   # broadcasting spreads the means
        g = upstream.pop() / m
        return ((g * special.sigmoid(pos))[:, None] * onehot
                - g * (1.0 / k) * (1.0 - onehot) * special.sigmoid(neg),)

    return ad.fused_node(per_node.mean(), (dists,), grads)
