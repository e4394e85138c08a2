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

Each head up to its scalar output is one tape node with a hand-written
VJP (_head), in place of about ten per-op nodes on (n, H) arrays, so
backward holds one (n, H) array per head, the hidden activation (dropout
draws need a PCG64 generator).  The heads stay a Python loop over K+1
two-dimensional products: stacking them into one (K+1, n, H) batch gives
the same bits but was slower on an ER graph of n=5e4 (heads forward 258
-> 384 ms on one vCPU, BLAS single-threaded) and held about 110 MB more.

An ablation flag swaps propagation for identity (plain MLP heads), and
the prior weight can be pinned to the classic constant K instead of the
learned head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import subjective
from .autodiff import Tensor
from .reasoning import ClassEmbeddings, glorot
from .sparse import SparseMatrix

PRIOR_EPS = 1e-6


@dataclass
class HeadParams:
    """One two-layer head: input -> hidden -> scalar per node."""
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
    evidence: Tensor           # (n, K) nonnegative
    prior_weight: Tensor       # (n, 1) strictly positive
    base_rates: np.ndarray     # (K,), uniform 1/K


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


def evidence_forward(adj: SparseMatrix, prop: Tensor,
                     class_embs: ClassEmbeddings, params: EvidenceHeadParams,
                     *, training=False, dropout_rate=0.0, generator=None,
                     propagate=True, learned_prior=True) -> NodeOpinionBatch:
    """Run every head and assemble the per-node opinions.

    e_ik = softplus(head_k over [N || C_k]), W_i = softplus(head_nov over
    [N || C_Nov]) + eps (or the constant K when learned_prior is off).
    prop is the node embedding matrix N propagated once, adj @ N, or N
    itself when propagate is off.
    """
    n = prop.data.shape[0]
    k = class_embs.class_count
    dtype = prop.data.dtype

    row_scale = adj.row_sums().astype(dtype).reshape(n, 1) if propagate \
        else np.ones((n, 1), dtype=dtype)

    drop = dropout_rate if training else 0.0
    heads = list(params.per_class)
    regions = [ad.take_rows(class_embs.per_class, [i]) for i in range(k)]
    if learned_prior:
        heads.append(params.novel)
        regions.append(class_embs.novel)

    stacked = ad.concat([_head(prop, region, row_scale, head, drop, generator)
                         for head, region in zip(heads, regions)],
                        axis=1)                          # (n, K or K+1)
    if propagate:
        stacked = ad.spmm(adj, stacked)                  # heads batched
    stacked = ad.add(stacked, ad.concat([head.b2 for head in heads], axis=0))

    evidence = ad.softplus(ad.cols(stacked, 0, k))
    if learned_prior:
        prior = ad.add(ad.softplus(ad.cols(stacked, k, k + 1)), PRIOR_EPS)
    else:
        prior = Tensor(np.full((n, 1), float(k), dtype=dtype))
    return NodeOpinionBatch(evidence=evidence, prior_weight=prior,
                            base_rates=np.full(k, 1.0 / k))


def _head(prop: Tensor, cls_row: Tensor, row_scale, head: HeadParams,
          dropout_rate, generator) -> Tensor:
    """One head's (n, 1) output before the shared propagation, as a single
    tape node:

        z = prop @ w1[:w] + row_scale * (cls_row @ w1[w:]) + b1
        h = dropout(relu(z)),  out = h @ w2

    in that op order, so it equals the per-op composition bit for bit.
    Backward keeps only h and makes dL/dz = (g @ w2.T) * (h > 0) / (1-rate)
    once for every parent: h > 0 iff z > 0 and the unit was kept.
    """
    w = prop.data.shape[1]
    w1, w2 = head.w1.data, head.w2.data
    z = prop.data @ w1[:w]
    z += row_scale * (cls_row.data @ w1[w:])
    z += head.b1.data
    h = ad.relu_data(z)
    del z
    scale = ad.dropout_scale(dropout_rate, h.dtype)     # 1 without dropout
    if dropout_rate > 0.0:
        h *= ad.dropout_keep(h.shape, h.dtype, dropout_rate, generator)
        h *= scale

    def grads(g):
        gz = g @ w2.T                                   # dL/dz
        gz *= h > 0
        gz *= scale
        gshift = (gz * row_scale).sum(axis=0, keepdims=True)
        return (np.concatenate([prop.data.T @ gz, cls_row.data.T @ gshift]),
                gz.sum(axis=0),
                gz @ w1[:w].T if prop.requires_grad else None,
                gshift @ w1[w:].T if cls_row.requires_grad else None,
                h.T @ g)

    return ad.fused_node(h @ w2, (head.w1, head.b1, prop, cls_row, head.w2),
                         grads)


def score(batch: NodeOpinionBatch) -> ScoreBatch:
    """Predictions plus uncertainty scores, delegating the subjective-logic
    arithmetic to the vectorized opinion functions."""
    e = batch.evidence.data
    w = batch.prior_weight.data
    belief, vac = subjective.belief_batch(e, w)
    prob = subjective.projected_batch(e, w, batch.base_rates)
    diss = subjective.dissonance_batch(belief)
    return ScoreBatch(
        prediction=np.argmax(prob, axis=1),
        dissonance=diss,
        vacuity=vac,
        probability=prob,
    )


def dirichlet_loss(batch: NodeOpinionBatch, labels, mask) -> Tensor:
    """Mean over masked nodes of psi(S_i) - psi(xi_{i, y_i}).

    xi_ik = e_ik + a_k W_i is the Dirichlet concentration implied by the
    opinion; the loss is the expected cross entropy under it and is
    nonnegative because xi_{i,y} <= S_i.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    k = batch.base_rates.size
    e = ad.take_rows(batch.evidence, mask)
    w = ad.take_rows(batch.prior_weight, mask)
    s = ad.add(ad.tsum(e, axis=1, keepdims=True), w)     # (m, 1)
    onehot = np.zeros((mask.size, k), dtype=batch.evidence.data.dtype)
    onehot[np.arange(mask.size), labels[mask]] = 1.0
    e_y = ad.tsum(ad.mul(e, onehot), axis=1, keepdims=True)
    a_y = batch.base_rates[labels[mask]].reshape(-1, 1)
    a_y = a_y.astype(batch.evidence.data.dtype)
    xi_y = ad.add(e_y, ad.mul(w, a_y))
    per_node = ad.sub(ad.digamma(s), ad.digamma(xi_y))
    return ad.tmean(per_node)


# -- direct evidence (no Beta reasoning) ---------------------------------

@dataclass
class DirectHeadParams:
    """Single graph head mapping raw features to K evidence values."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def tensors(self):
        return {"direct.w1": self.w1, "direct.b1": self.b1,
                "direct.w2": self.w2, "direct.b2": self.b2}


def init_direct_head(generator, feature_dim, hidden_dim, class_count,
                     dtype) -> DirectHeadParams:
    return DirectHeadParams(
        w1=glorot(generator, feature_dim, hidden_dim, dtype),
        b1=ad.Tensor(np.zeros(hidden_dim, dtype=dtype), requires_grad=True),
        w2=glorot(generator, hidden_dim, class_count, dtype),
        b2=ad.Tensor(np.zeros(class_count, dtype=dtype), requires_grad=True),
    )


def direct_logits(adj: SparseMatrix, px, params: DirectHeadParams, *,
                  training=False, dropout_rate=0.0, generator=None) -> Tensor:
    """(n, K) outputs of the plain two-layer graph network on px = adj @ x;
    also the logits of the MaxLogit/Energy baseline."""
    h = ad.relu(ad.add(ad.matmul(px, params.w1), params.b1))
    if training and dropout_rate > 0.0:
        h = ad.dropout(h, dropout_rate, generator)
    return ad.add(ad.spmm(adj, ad.matmul(h, params.w2)), params.b2)


def direct_evidence_forward(adj: SparseMatrix, px, params: DirectHeadParams,
                            class_count, *, training=False, dropout_rate=0.0,
                            generator=None) -> NodeOpinionBatch:
    """Evidence for every class at once from direct_logits on px = adj @ x,
    with the classic fixed prior W = K."""
    evidence = ad.softplus(direct_logits(
        adj, px, params, training=training,
        dropout_rate=dropout_rate, generator=generator))
    n = evidence.data.shape[0]
    prior = Tensor(np.full((n, 1), float(class_count),
                           dtype=evidence.data.dtype))
    return NodeOpinionBatch(evidence=evidence, prior_weight=prior,
                            base_rates=np.full(class_count, 1.0 / class_count))
