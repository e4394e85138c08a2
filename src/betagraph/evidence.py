"""Context-aware evidence heads and the per-node opinion assembly.

Each known class gets its own two-layer graph head; one more head
produces the per-node prior weight from the novel-class region.  A head
consumes the concatenation [node embedding || class embedding] (4d wide)
and emits one value per node, squashed through softplus so evidence is
nonnegative and prior weights strictly positive.

The forward pass exploits two identities to stay cheap on dense graphs
while remaining the same function:

  * propagate(X' W) = propagate(X') W, and the class half of X' is the
    same row everywhere, so its propagation is rowsums ⊗ (c W);
  * the heads' scalar outputs are stacked and propagated together.

The heads and the assembly of their outputs into opinions are one tape
node over the heads' parameters; the node embeddings and class regions
it reads are frozen arrays.  Each head's VJP (_head) keeps one (n, H)
array, the hidden activation (dropout draws need a PCG64 generator).
The Dirichlet loss is one more node.  Both VJPs replay the per-op
composition's (tests/oracles.py) expressions in the tape's order, so
values and gradients are the composition's bit for bit.  The heads stay
K+1 two-dimensional products: stacking them into one (K+1, n, H) batch
gives the same bits but was slower on an ER graph of n=5e4 (heads
forward 258 -> 384 ms on one vCPU, BLAS single-threaded) and held about
110 MB more.  Training runs the heads, and their VJPs, concurrently
(sparse.parallel); scoring runs them one by one, freeing each (n, H)
activation before the next head.

Scoring runs the heads on every node.  Training runs them on the rows R
its loss reads, the training nodes and their neighbours, and propagates
by the block adj[train][:, R] (training.phase2_forward).

An ablation flag swaps propagation for identity (plain MLP heads, adj
None), and the prior weight can be pinned to the classic constant K instead of the
learned head.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special, subjective
from .autodiff import Tensor
from .reasoning import glorot
from .sparse import SparseMatrix, parallel

PRIOR_EPS = 1e-6


@dataclass
class HeadParams:
    """One two-layer head: input -> hidden -> outputs per node."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def tensors(self, prefix):
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


@dataclass
class EvidenceHeadParams:
    per_class: list            # K heads, input width 4d
    novel: HeadParams          # prior-weight head, input width 4d

    def tensors(self):
        out = {}
        for k, head in enumerate(self.per_class):
            out.update(head.tensors(f"head{k}"))
        out.update(self.novel.tensors("head_nov"))
        return out


@dataclass
class NodeOpinionBatch:
    """Per-node opinions, the columns of one tensor: K evidence values,
    nonnegative, then the prior weight, strictly positive."""
    opinions: Tensor           # (n, K+1)

    @property
    def base_rates(self):                # (K,), uniform 1/K
        k = self.opinions.data.shape[1] - 1
        return np.full(k, 1.0 / k)

    @property
    def evidence(self):
        return self.opinions.data[:, :-1]

    @property
    def prior_weight(self):
        return self.opinions.data[:, -1:]


@dataclass
class ScoreBatch:
    prediction: np.ndarray     # argmax of projected probability
    dissonance: np.ndarray
    vacuity: np.ndarray
    probability: np.ndarray    # (n, K) projected probabilities


def init_head(generator, input_dim, hidden_dim, dtype) -> HeadParams:
    # zero output layer: evidence starts at softplus(0) for every node,
    # whatever the scale of the (possibly reciprocal-blown) class inputs
    return HeadParams(
        w1=glorot(generator, input_dim, hidden_dim, dtype),
        b1=ad.Tensor(np.zeros(hidden_dim, dtype=dtype), requires_grad=True),
        w2=ad.Tensor(np.zeros((hidden_dim, 1), dtype=dtype), requires_grad=True),
        b2=ad.Tensor(np.zeros(1, dtype=dtype), requires_grad=True),
    )


def init_evidence_heads(generator, embed_dim, hidden_dim, class_count,
                        dtype) -> EvidenceHeadParams:
    width = 4 * embed_dim
    return EvidenceHeadParams(
        per_class=[init_head(generator, width, hidden_dim, dtype)
                   for _ in range(class_count)],
        novel=init_head(generator, width, hidden_dim, dtype),
    )


def evidence_forward(adj: SparseMatrix, prop, row_scale, regions,
                     params: EvidenceHeadParams, *, dropout_rate, generator,
                     learned_prior) -> NodeOpinionBatch:
    """Run every head on the rows of prop and assemble the opinions of the
    rows of adj @ heads, or of prop's rows when adj is None (no
    propagation).

    e_ik = softplus(head_k over [N || C_k]), W_i = softplus(head_nov over
    [N || C_Nov]) + eps (or the constant K when learned_prior is off),
    with C_k and C_Nov the rows of the class regions.
    prop is the node embedding matrix N propagated once, adj @ N, or N
    itself without propagation, and row_scale the full adjacency's (rows,
    1) row sums on prop's rows, or ones.  All three and the regions are
    arrays: nothing differentiates them.

    One dropout draw covers every head, the K+1 draws the heads took one
    by one.  The heads and the assembly (their outputs side by side, adj
    @ them, the output biases, the softplus and the prior) are one tape
    node over every head's w1, b1, w2 and b2, whose VJP replays the
    per-op composition's (tests/oracles.py).
    """
    k = regions.shape[0] - 1
    heads = list(params.per_class) + ([params.novel] if learned_prior else [])
    parents = [t for head in heads
               for t in (head.w1, head.b1, head.w2, head.b2)]
    keep = [None] * len(heads)
    if dropout_rate > 0.0:
        keep = ad.dropout_keep((len(heads), prop.shape[0],
                                heads[0].b1.data.size), prop.dtype,
                               dropout_rate, generator)
    scale = ad.dropout_scale(dropout_rate, prop.dtype)
    calls = [functools.partial(_head, prop, regions[[i]], row_scale, head,
                               keep[i], scale)     # head i reads row i
             for i, head in enumerate(heads)]
    work = prop.size * heads[0].b1.data.size * len(heads)
    if ad.grad_needed(*parents):
        outs, vjps = zip(*parallel(calls, work))
    else:       # scoring frees each hidden activation before the next head
        outs = [call()[0] for call in calls]
    stacked = np.concatenate(outs, axis=1)
    if adj is not None:
        stacked = adj.matmul(stacked)                   # heads batched
    stacked += np.concatenate([head.b2.data for head in heads])
    out = special.softplus(stacked)
    if learned_prior:
        out[:, k:] += PRIOR_EPS
    else:
        out = np.concatenate([out, np.full((out.shape[0], 1), float(k),
                                           dtype=out.dtype)], axis=1)

    def grads(g):
        g = g[:, :len(heads)] * special.sigmoid(stacked)
        g_bias = ad._unbroadcast(g, (len(heads),))
        if adj is not None:
            g = adj.T.matmul(g)
        parts = parallel([functools.partial(vjp, g[:, i:i + 1])
                          for i, vjp in enumerate(vjps)], work)
        return [pg for i, part in enumerate(parts)
                for pg in (*part, g_bias[i:i + 1])]

    return NodeOpinionBatch(ad.fused_node(out, parents, grads))


def _head(prop, cls_row, row_scale, head: HeadParams, keep, scale):
    """One head's (rows, 1) output before the shared propagation, over the
    class region cls_row, and its VJP g -> (dw1, db1, dw2):

        z = prop @ w1[:w] + row_scale * (cls_row @ w1[w:]) + b1
        h = relu(z) * keep * scale,  out = h @ w2

    in that op order, so it equals the per-op composition bit for bit;
    keep is the dropout keep array, None without dropout, and scale
    1/(1-rate).  The VJP keeps only h and makes dL/dz = (g @ w2.T) *
    (h > 0) * scale once for every parameter: h > 0 iff z > 0 and the
    unit was kept.
    """
    w = prop.shape[1]
    w1, w2 = head.w1.data, head.w2.data
    z = prop @ w1[:w]
    z += row_scale * (cls_row @ w1[w:])
    z += head.b1.data
    h = ad.relu_data(z)
    del z
    if keep is not None:
        h *= keep
        h *= scale

    def vjp(g):
        gz = g @ w2.T                                   # dL/dz
        gz *= h > 0
        gz *= scale
        gshift = (gz * row_scale).sum(axis=0, keepdims=True)
        return (np.concatenate([prop.T @ gz, cls_row.T @ gshift]),
                gz.sum(axis=0), h.T @ g)

    return h @ w2, vjp


def score(batch: NodeOpinionBatch) -> ScoreBatch:
    """Predictions plus uncertainty scores, delegating the subjective-logic
    arithmetic to the vectorized opinion functions."""
    e, w = batch.evidence, batch.prior_weight
    belief, vac = subjective.belief_batch(e, w)
    prob = subjective.projected_batch(e, w, batch.base_rates)
    diss = subjective.dissonance_batch(belief)
    return ScoreBatch(
        prediction=np.argmax(prob, axis=1),
        dissonance=diss,
        vacuity=vac,
        probability=prob,
    )


def dirichlet_loss(batch: NodeOpinionBatch, labels) -> Tensor:
    """Mean over the rows of batch, labelled in order by labels, of
    psi(S_i) - psi(xi_{i, y_i}).

    xi_ik = e_ik + a_k W_i is the Dirichlet concentration implied by the
    opinion; the loss is the expected cross entropy under it and is
    nonnegative because xi_{i,y} <= S_i.  One tape node, whose VJP
    replays the per-op composition's (tests/oracles.py).
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = batch.base_rates.size
    op = batch.opinions.data
    e, w = op[:, :k], op[:, k:]
    m = labels.size
    onehot = np.zeros((m, k), dtype=op.dtype)
    onehot[np.arange(m), labels] = 1.0
    a_y = batch.base_rates[labels].reshape(-1, 1).astype(op.dtype)
    s = e.sum(axis=1, keepdims=True) + w                 # (m, 1)
    xi_y = (e * onehot).sum(axis=1, keepdims=True) + w * a_y
    per_node = special.digamma(s) - special.digamma(xi_y)

    def grads(g):                          # broadcasting spreads the sums
        g = g / m
        g_s = g * special.trigamma(s)
        g_xi = -g * special.trigamma(xi_y)
        return (np.concatenate([g_s + g_xi * onehot, g_s + g_xi * a_y],
                               axis=1),)

    return ad.fused_node(per_node.mean(), (batch.opinions,), grads)


# -- direct evidence (no Beta reasoning) ---------------------------------

def init_direct_head(generator, feature_dim, hidden_dim, class_count,
                     dtype) -> HeadParams:
    """Single graph head mapping raw features to K evidence values."""
    return HeadParams(
        w1=glorot(generator, feature_dim, hidden_dim, dtype),
        b1=ad.Tensor(np.zeros(hidden_dim, dtype=dtype), requires_grad=True),
        w2=glorot(generator, hidden_dim, class_count, dtype),
        b2=ad.Tensor(np.zeros(class_count, dtype=dtype), requires_grad=True),
    )


def direct_logits(adj: SparseMatrix, px, params: HeadParams, *,
                  dropout_rate=0.0, generator=None) -> Tensor:
    """(n, K) outputs of the plain two-layer graph network on px = adj @ x;
    also the logits of the MaxLogit/Energy baseline."""
    h = ad.relu(ad.add(ad.matmul(px, params.w1), params.b1))
    h = ad.dropout(h, dropout_rate, generator)
    return ad.add(ad.spmm(adj, ad.matmul(h, params.w2)), params.b2)


def direct_evidence_forward(adj: SparseMatrix, px, params: HeadParams, *,
                            dropout_rate=0.0, generator=None,
                            rows=None) -> NodeOpinionBatch:
    """Evidence for every class at once from direct_logits on px = adj @ x,
    with the classic fixed prior W = K; for the given rows only, in their
    order, when rows is set.  The opinions are one tape node, whose VJP is
    the per-op softplus's."""
    logits = direct_logits(adj, px, params, dropout_rate=dropout_rate,
                           generator=generator)
    if rows is not None:
        logits = ad.take_rows(logits, rows)
    x = logits.data
    out = np.concatenate([special.softplus(x), np.full(
        (x.shape[0], 1), float(x.shape[1]), dtype=x.dtype)], axis=1)
    return NodeOpinionBatch(ad.fused_node(
        out, (logits,), lambda g: (g[:, :-1] * special.sigmoid(x),)))
