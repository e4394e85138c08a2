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
and vectorize over the rows of (n, K) evidence batches; dissonance runs
over them in row blocks, which bounds its (rows, K, K) temporaries.  The
scalar one-opinion forms they are verified against live with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from .sparse import row_blocks


def belief_batch(evidence, prior_weight):
    e = np.asarray(evidence)
    w = np.asarray(prior_weight).reshape(-1, 1)
    s = e.sum(axis=1, keepdims=True) + w
    return e / s, (w / s).ravel()


def projected_batch(evidence, prior_weight, base_rates):
    b, u = belief_batch(evidence, prior_weight)
    return b + np.asarray(base_rates)[None, :] * u[:, None]


def dissonance_batch(belief):
    """Vectorized dissonance from an (n, K) belief matrix, with (rows, K,
    K) float64 temporaries one row block at a time (sparse.row_blocks)."""
    b = np.asarray(belief, dtype=np.float64)
    off = ~np.eye(b.shape[1], dtype=bool)[None]
    out = np.empty(b.shape[0])
    for rows in row_blocks(b.shape[0]):
        r = b[rows]
        bi, bj = r[:, :, None], r[:, None, :]   # own class i, partner j
        tot = bi + bj
        den = r.sum(axis=1, keepdims=True) - r  # sum_{j != i} b_j
        with np.errstate(invalid="ignore", divide="ignore"):
            bal = np.where(tot > 0.0, 1.0 - np.abs(bj - bi) / tot, 0.0)
            num = np.where(off, bj * bal, 0.0).sum(axis=2)     # (rows, K)
            out[rows] = np.where(den > 0.0, r * num / den, 0.0).sum(axis=1)
    return out
