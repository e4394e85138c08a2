"""Test-only oracles: per-op reference compositions, the
finite-difference gradient check, the scalar subjective-logic forms,
ln B(a, b), the float-draw dropout mask and the per-cell CSV writer.

The library fuses some layers into single tape nodes with hand-written
VJPs, and steps Adam over flat vectors.  The per-op compositions and the
per-parameter Adam step here are what those replaced.  The fused nodes'
values must equal the compositions' bit for bit; the encoder layer's and
the Beta-KL's gradients are closed forms, which must agree with the
compositions' to 1e-12 of the largest entry in float64 (1e-5 in
float32).  The Adam step must equal its reference bit for bit.
grad_check is the independent oracle for every gradient used in
training, and the one-opinion forms are the reference for subjective's
batch forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from betagraph import autodiff as ad
from betagraph import reasoning as rs
from betagraph import special
from betagraph.ioutil import atomic_write_text


# -- tape helpers only the tests use ----------------------------------------

def parameter(data, dtype=None):
    arr = np.array(data, dtype=dtype if dtype is not None else np.float64)
    return ad.Tensor(arr, requires_grad=True)


def sqrt(x):
    x = ad.as_tensor(x)
    out = np.sqrt(x.data)
    return ad._node(out, ((x, lambda g: g * 0.5 / out),))


def lgamma(x):
    x = ad.as_tensor(x)
    return ad._node(special.lgamma(x.data),
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
        mu = ad.tmean(x, axis=0, keepdims=True)
        centered = ad.sub(x, mu)
        var = ad.tmean(ad.mul(centered, centered), axis=0, keepdims=True)
        m = rs.BN_MOMENTUM
        bn.running_mean = (1 - m) * bn.running_mean + m * mu.data.ravel()
        bn.running_var = (1 - m) * bn.running_var + m * var.data.ravel()
        xhat = ad.div(centered, sqrt(ad.add(var, rs.BN_EPS)))
    else:
        mean = bn.running_mean.astype(x.data.dtype)
        std = np.sqrt(bn.running_var + rs.BN_EPS).astype(x.data.dtype)
        xhat = ad.div(ad.sub(x, mean), std)
    return ad.add(ad.mul(xhat, bn.gamma), bn.beta)


def encoder_layer(z, bn, *, training, floor=0.0, dropout_rate=0.0,
                  generator=None):
    """softplus(batch_norm(z)) (+ floor), then dropout, op by op: the
    reference for reasoning.encoder_layer."""
    out = ad.softplus(batch_norm(z, bn, training))
    if floor:
        out = ad.add(out, floor)
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
    z2 = ad.spmm(adj, ad.matmul(h1, params.w2))
    return encoder_layer(z2, params.bn2, training=training, floor=rs.EMB_EPS)


# -- per-op Beta-KL -------------------------------------------------------

def beta_kl(node, cls):
    """Summed per-dimension KL(Beta_node || Beta_class) from tape ops
    (about 25 nodes); operands are [alpha || beta] and broadcast."""
    d = node.data.shape[-1] // 2
    a_n, b_n = ad.cols(node, 0, d), ad.cols(node, d, 2 * d)
    a_c, b_c = ad.cols(cls, 0, d), ad.cols(cls, d, 2 * d)
    ln_b_c = ad.add(lgamma(a_c), lgamma(b_c))
    ln_b_c = ad.sub(ln_b_c, lgamma(ad.add(a_c, b_c)))
    ln_b_n = ad.add(lgamma(a_n), lgamma(b_n))
    ln_b_n = ad.sub(ln_b_n, lgamma(ad.add(a_n, b_n)))
    s_n = ad.add(a_n, b_n)
    term = ad.sub(ln_b_c, ln_b_n)
    term = ad.add(term, ad.mul(ad.sub(a_n, a_c), ad.digamma(a_n)))
    term = ad.add(term, ad.mul(ad.sub(b_n, b_c), ad.digamma(b_n)))
    term = ad.add(term, ad.mul(ad.sub(ad.add(a_c, b_c), s_n), ad.digamma(s_n)))
    return ad.tsum(term, axis=-1)


def dist_matrix(nodes, classes):
    """(m, C) distances, every node row against every class row, through
    (m, 1, 2d) and (1, C, 2d) reshapes of the per-op beta_kl."""
    m, d2 = nodes.data.shape
    c = classes.data.shape[0]
    return beta_kl(ad.reshape(nodes, (m, 1, d2)),
                   ad.reshape(classes, (1, c, d2)))


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
