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
it reads are frozen arrays.  Each head keeps one (n, H) array, the
hidden activation, in which its VJP (_head) forms dL/dz, and draws its
own bool dropout keep array as it starts, from the raw PCG64 stream a
row block at a time; the K+1 arrays are together the one draw they
replace (autodiff.dropout_keeps; PCG64 generators only).  The
Dirichlet loss is one more node.  Both VJPs replay the per-op
composition's (tests/oracles.py) expressions in the tape's order, so
values and gradients are the composition's bit for bit (dL/dz alone may
hold a -0 for the composition's +0, which no gradient reads as such).
The heads stay K+1 two-dimensional products: stacking them into one
(K+1, n, H) batch gives the same bits but was slower on an ER graph of
n=5e4 (heads forward 258 -> 384 ms on one vCPU, BLAS single-threaded)
and held about 110 MB more.  The heads run one after another on the
caller, each in one (n, H) array that its relu overwrites (freed before
the next head in scoring), so a head's keep array is drawn as it starts
and lives only while it runs.  Concurrent forwards would need every
keep array drawn first (sparse.parallel's calls draw nothing); on two
workers they saved about 15 of a phase-2 epoch's 100 ms on an ER graph
of n=5e4.  Training runs the heads' VJPs concurrently (sparse.parallel).

Scoring runs the heads on every node.  Training runs them on the rows R
its loss reads, the training nodes and their neighbours, and propagates
by the block adj[train][:, R] (training.phase2_forward).

An ablation flag swaps propagation for identity (plain MLP heads, adj
None), and the prior weight can be pinned to the classic constant K instead of the
learned head.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special, subjective
from .autodiff import Tensor
from .reasoning import glorot
from .sparse import SparseMatrix, parallel, row_blocks

PRIOR_EPS = 1e-6
# rows per block of a head's shift: its product is the head's only
# temporary, alive beside the earlier heads' activations and the keep array
SHIFT_ROWS = 2**10


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

    The heads run in order on the caller, each drawing its keep array as
    it starts: the K+1 draws the per-op composition takes, sharing one
    setup (autodiff.dropout_keeps).  The heads and the assembly (their
    outputs side by side, adj @ them, the output biases, the softplus and
    the prior) are one tape node over every head's w1, b1, w2 and b2,
    whose VJP replays the per-op composition's (tests/oracles.py).  It
    forms dL/dz in the heads' own buffers, so an upstream gradient of
    another dtype than the opinions' is a ValueError.
    """
    k = regions.shape[0] - 1
    heads = list(params.per_class) + ([params.novel] if learned_prior else [])
    parents = [t for head in heads
               for t in (head.w1, head.b1, head.w2, head.b2)]
    taped = ad.grad_needed(*parents)
    keeps = itertools.repeat(None)
    if dropout_rate > 0.0:          # each head's drawn as it starts
        keeps = ad.dropout_keeps(len(heads), (prop.shape[0],
                                              heads[0].b1.data.size),
                                 prop.dtype, dropout_rate, generator)
    scale = ad.dropout_scale(dropout_rate, prop.dtype)
    outs, vjps = [], []
    for i, head in enumerate(heads):    # keep i goes before draw i + 1
        h_out, vjp = _head(prop, regions[[i]], row_scale, head, next(keeps),
                           scale)
        outs.append(h_out)                              # head i reads row i
        if taped:
            vjps.append(vjp)
        del vjp         # untaped, the hidden activation goes before the next
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

    work = prop.size * heads[0].b1.data.size * len(heads)

    def grads(upstream):
        g = upstream.pop()
        if g.dtype != stacked.dtype:        # the opinions' dtype
            raise ValueError(f"the upstream gradient is {g.dtype}, the "
                             f"opinions {stacked.dtype}")
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
    1/(1-rate).  The shift runs in blocks of SHIFT_ROWS rows and the
    relu over z, so a head holds one (rows, H) array.  The VJP keeps
    only h.  It takes dw2 = h.T @ g first, then makes dL/dz = (g @ w2.T)
    * (h > 0) * scale once for every parameter, a row block at a time in
    h's own buffer: nothing reads h after the VJP, which the tape runs
    once, so the VJP allocates no (rows, H) array.  h > 0 iff z > 0 and
    the unit was kept.  Its outer products are broadcast products, in a
    third of numpy's matmul loop's time.  That loop starts from +0, so
    the returned one adds 0 for the same bits; g * w2.T may hold a -0 where
    the composition's g @ w2.T holds +0, which no gradient shows, since
    the products and sums that read dL/dz start from +0 too.
    """
    w = prop.shape[1]
    w1, w2 = head.w1.data, head.w2.data
    z = prop @ w1[:w]
    shift = cls_row @ w1[w:]
    for lo in range(0, z.shape[0], SHIFT_ROWS):
        rows = slice(lo, lo + SHIFT_ROWS)
        z[rows] += row_scale[rows] * shift
    z += head.b1.data
    h = ad.relu_data(z, out=z)
    if keep is not None:
        h *= keep
        h *= scale

    def vjp(g):
        g_w2 = h.T @ g
        gz = h                  # dL/dz, in h's buffer a row block at a time
        for rows in row_blocks(h.shape[0]):
            kept = h[rows] > 0
            block = np.multiply(g[rows], w2.T, out=gz[rows])
            block *= kept
            block *= scale
            del kept                    # before the next block's
        g_w1, g_b1 = prop.T @ gz, gz.sum(axis=0)
        gz *= row_scale                                 # the shift's
        g_shift = gz.sum(axis=0, keepdims=True)
        return (np.concatenate([g_w1, cls_row.T * g_shift + 0]), g_b1, g_w2)

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

    def grads(upstream):                   # broadcasting spreads the sums
        g = upstream.pop() / m
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


def direct_logits(adj: SparseMatrix, px: Tensor, params: HeadParams, *,
                  dropout_rate=0.0, generator=None, rows=None) -> Tensor:
    """(n, K) outputs of the plain two-layer graph network on px = adj @ x,
    held constant, or their given rows in order; also the logits of the
    MaxLogit/Energy baseline:

        h = relu(px @ w1 + b1) * keep * scale,  out = adj @ (h @ w2) + b2

    One tape node over w1, b1, w2 and b2, whose VJP replays the per-op
    composition's (tests/oracles.py): the rows' gradient scattered into
    an (n, K) zero array, b2's the column sums of that, then adj @ g (adj
    is symmetric) and, as in _head, dL/dz = (g @ w2.T) * (h > 0) * scale.
    """
    x, w2 = px.data, params.w2.data
    z = x @ params.w1.data
    z += params.b1.data
    h = ad.relu_data(z, out=z)
    scale = ad.dropout_scale(dropout_rate, h.dtype)
    if dropout_rate > 0.0:
        h *= ad.dropout_keep(h.shape, h.dtype, dropout_rate, generator)
        h *= scale
    full = adj.matmul(h @ w2)
    full += params.b2.data

    def grads(upstream):
        g = upstream.pop()
        if rows is not None:
            g, taken = np.zeros_like(full), g
            np.add.at(g, rows, taken)
        g_b2 = g.sum(axis=0)
        g = adj.matmul(g)
        gz = g @ w2.T
        gz *= h > 0
        gz *= scale
        return x.T @ gz, gz.sum(axis=0), h.T @ g, g_b2

    return ad.fused_node(full if rows is None else full[rows],
                         (params.w1, params.b1, params.w2, params.b2), grads)


def direct_evidence_forward(adj: SparseMatrix, px, params: HeadParams, *,
                            dropout_rate=0.0, generator=None,
                            rows=None) -> NodeOpinionBatch:
    """Evidence for every class at once from direct_logits on px = adj @ x,
    with the classic fixed prior W = K; for the given rows only, in their
    order, when rows is set.  The opinions are one tape node over the
    logits node, whose VJP is the per-op softplus's: with dirichlet_loss,
    three nodes per training epoch."""
    logits = direct_logits(adj, px, params, dropout_rate=dropout_rate,
                           generator=generator, rows=rows)
    x = logits.data
    out = np.concatenate([special.softplus(x), np.full(
        (x.shape[0], 1), float(x.shape[1]), dtype=x.dtype)], axis=1)
    return NodeOpinionBatch(ad.fused_node(
        out, (logits,),
        lambda upstream: (upstream.pop()[:, :-1] * special.sigmoid(x),)))
