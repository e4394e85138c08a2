"""Multinomial opinions: belief/uncertainty mapping and uncertainty scores.

An opinion over K classes is held in evidence form: nonnegative evidence
e_k, a positive prior weight W, and base rates a_k summing to one.  With
S = W + sum(e) the derived view is

    b_k = e_k / S        belief mass
    u   = W / S          uncertainty mass (vacuity)
    p_k = b_k + a_k u    projected probability

Dissonance measures conflict among beliefs:

    Diss = sum_k b_k * (sum_{j!=k} b_j Bal(b_j, b_k)) / (sum_{j!=k} b_j)
    Bal(x, y) = 1 - |x - y| / (x + y)

with a term defined as 0 when its denominator vanishes (the limit value,
and the only choice that keeps the score total).  All functions are pure
and vectorize over the rows of (n, K) evidence batches; the scalar
one-opinion forms they are verified against live with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import numpy as np


def belief_batch(evidence, prior_weight):
    e = np.asarray(evidence)
    w = np.asarray(prior_weight).reshape(-1, 1)
    s = e.sum(axis=1, keepdims=True) + w
    return e / s, (w / s).ravel()


def projected_batch(evidence, prior_weight, base_rates):
    b, u = belief_batch(evidence, prior_weight)
    return b + np.asarray(base_rates)[None, :] * u[:, None]


def dissonance_batch(belief):
    """Vectorized dissonance from an (n, K) belief matrix."""
    b = np.asarray(belief, dtype=np.float64)
    n, k = b.shape
    bi = b[:, :, None]                       # varies over "own" class i
    bj = b[:, None, :]                       # varies over the partner j
    tot = bi + bj
    with np.errstate(invalid="ignore", divide="ignore"):
        bal = np.where(tot > 0.0, 1.0 - np.abs(bj - bi) / tot, 0.0)
    off = ~np.eye(k, dtype=bool)
    num = np.where(off[None], bj * bal, 0.0).sum(axis=2)   # (n, K)
    den = b.sum(axis=1, keepdims=True) - b                 # sum_{j != i} b_j
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(den > 0.0, b * num / den, 0.0)
    return terms.sum(axis=1)
