"""Special functions used by the Beta-embedding losses.

All kernels accept scalars or numpy arrays, compute in float64, and
return the input's floating dtype (a Python float for scalar input).
The gamma-family kernels raise ValueError on non-positive or non-finite
input.

lgamma and digamma are scipy.special.gammaln and scipy.special.psi.
trigamma stays hand-written: scipy.special.polygamma(1, x) is about 6x
slower than the kernel below at the phase-1 shape (80, 1, 32), since it
goes through the Hurwitz zeta function.  The kernel takes nine unmasked
steps of the recurrence

    psi'(x) = psi'(x+1) + 1/x^2,

so z = x + 9 >= 9 for every x > 0, then sums the asymptotic series
psi'(z) ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1), whose first omitted
term is below 1e-13 at z = 9.  The test suite checks all three kernels
against mpmath to 1e-12 relative on [1e-10, 1e10]: the EMB_EPS floor up
to the novel region's 1/alpha.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sc

# Bernoulli numbers B_2 .. B_10 for the trigamma series.
_BERN = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)


def _out_dtype(x):
    dt = np.asarray(x).dtype
    return dt if dt.kind == "f" else np.dtype(np.float64)


def _ret(value, like, scalar):
    value = value.astype(_out_dtype(like), copy=False)
    return value.item() if scalar else value


def softplus(x):
    """ln(1 + e^x), computed as max(x, 0) + log1p(e^{-|x|}).

    Strictly positive and overflow-free for every finite input; for
    large positive x it asymptotes to x, for large negative x to e^x.
    Stable in either float width, so the input dtype is kept.
    """
    x = np.asarray(x)
    scalar = x.ndim == 0
    out = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
    return out.item() if scalar else out.astype(_out_dtype(x), copy=False)


def sigmoid(x):
    """Logistic function, evaluated through exp(-|x|) to avoid overflow."""
    x = np.asarray(x)
    scalar = x.ndim == 0
    e = np.exp(-np.abs(x))
    # 1/(1+e) for x >= 0, e/(1+e) otherwise: the numerator max(e, x >= 0)
    # is 1 or e (e <= 1 when x >= 0), bit for bit the np.where of the two
    # quotients, without computing both or branching per element.
    out = np.maximum(e, x >= 0) / (1 + e)
    return out.item() if scalar else out.astype(_out_dtype(x), copy=False)


def _positive_f64(x, name):
    """Float64 copy of x, checked to be positive and finite."""
    xd = x.astype(np.float64)
    if np.any(xd <= 0.0) or not np.all(np.isfinite(xd)):
        raise ValueError(f"{name} requires strictly positive finite input")
    return xd


def lgamma(x):
    """ln Gamma(x) for x > 0."""
    x = np.asarray(x)
    return _ret(sc.gammaln(_positive_f64(x, "lgamma")), x, x.ndim == 0)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    x = np.asarray(x)
    return _ret(sc.psi(_positive_f64(x, "digamma")), x, x.ndim == 0)


def trigamma(x):
    """psi'(x) for x > 0; needed for the gradient of digamma."""
    x = np.asarray(x)
    z = _positive_f64(x, "trigamma")
    shift = np.zeros_like(z)
    for _ in range(9):
        shift += 1.0 / (z * z)
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    series = r * (
        1.0
        + r * (0.5
        + r * (_BERN[0]
        + r2 * (_BERN[1]
        + r2 * (_BERN[2]
        + r2 * (_BERN[3]
        + r2 * _BERN[4])))))
    )
    return _ret(series + shift, x, x.ndim == 0)
