"""Small file helpers: atomic writes, content hashing for manifests, and
the CSV writer, which formats numeric arrays without a Python object per
cell.  Float cells are repr(float(v)), the shortest round-trip text, from
a numpy kernel whose domain is the finite v, 1e-4 <= |v| < 1e16, that are
not a power of two (0.0 is one): there 10**k scales v exactly into
[1e16, 1e17) and v's rounding interval is symmetric.  Entries outside it,
and exact ties of two shortest decimals, go through repr one by one."""

from __future__ import annotations

import hashlib
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def atomic_write_bytes(path, payload: bytes):
    """Write via temp file + rename so readers never see partial content."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_dir(path) -> str:
    """Hash of (relative name, file hash) pairs, sorted; recomputable.  The
    directory's own manifest.json (it has timestamps) is left out."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(root, name)
            rel = os.path.relpath(full, path)
            if rel != "manifest.json":
                h.update(rel.encode())
                h.update(bytes.fromhex(sha256_file(full)))
    return h.hexdigest()


_POW10 = 10.0 ** np.arange(23)                     # exact up to 10**22
_POW10_INT = 10 ** np.arange(18)
_DIGITS4 = np.array([b"%04d" % i for i in range(10**4)]).view(np.uint32)


def write_csv(path, header, columns):
    """Write columns as rows, up to the shortest column: arrays in repr
    (float dtypes) or str, list cells as "" (None), repr (float) or str."""
    cols = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    n = min(map(len, cols), default=0)
    blocks = [_cells(c[:n]) for c in cols]
    widths = [int(lens.max(initial=0)) for _, lens in blocks]
    body = np.full((n, sum(widths) + len(widths)), ord(","), np.uint8)
    keep, at = np.ones(body.shape, bool), 0
    for (b, lens), w in zip(blocks, widths):
        small = np.min_scalar_type(w)           # holds every length <= w
        body[:, at:at + w] = b[:, :w]
        keep[:, at:at + w] = (np.arange(w, dtype=small)
                              < lens.astype(small)[:, None])
        at += w + 1
    body[:, -1:] = ord("\n")
    atomic_write_bytes(path, (",".join(header) + "\n").encode()
                       + body[keep].tobytes())


def _cells(col):
    """A column's cells, left-aligned in (rows, >= 24) uint8, and lengths."""
    if not isinstance(col, np.ndarray):
        return _text("" if v is None else repr(v) if isinstance(v, float)
                     else str(v) for v in col)
    if col.ndim == 1 and col.dtype.kind == "f" and col.itemsize <= 8:
        with np.errstate(invalid="ignore"):     # a signalling NaN stays nan
            return _float_cells(col.astype(np.float64))
    if col.ndim == 1 and col.dtype.kind in "iu" and (
            (col > -10**16) & (col < 10**16)).all():
        mag = abs(col.astype(np.int64))         # float(v) is exact: v + ".0"
        nd = np.searchsorted(_POW10_INT, mag, side="right").clip(1)
        cells, lens = _fixed(mag * _POW10_INT[17 - nd], nd, nd, col < 0)
        return cells, lens - 2
    return _text(map(repr if col.dtype.kind == "f" else str, col.tolist()))


def _text(strings):
    raw = [s.encode() for s in strings]
    lens = np.fromiter(map(len, raw), np.intp, len(raw))
    w = max(24, lens.max(initial=0))
    return np.array(raw, f"S{w}").view(np.uint8).reshape(-1, w), lens


def _float_cells(x):
    """The kernel's cells of float64 x; repr's, once per distinct value, off
    its domain, at ties, and where pi or the digits leave [1e16, 1e17)."""
    bits = x.view(np.int64)
    ok = (abs(x) >= 1e-4) & (abs(x) < 1e16) & (bits & (2**52 - 1) != 0)
    a = np.where(ok, abs(x), 0.1)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    k += (a * _POW10[k] < 1e16).astype(np.int64) - (a * _POW10[k] >= 1e17)
    # a * 10**k = pi + f exactly (Dekker's product of Veltkamp halves), pi
    # an int64 and 0 <= f < 1; the half-gap h is exact too
    m, p = _POW10[k], a * _POW10[k]
    ah, mh = [v * 134217729.0 - (v * 134217729.0 - v) for v in (a, m)]
    err = ((ah * mh - p) + ah * (m - mh) + (a - ah) * mh) + (a - ah) * (m - mh)
    whole = np.floor(err)
    pi, f = p.astype(np.int64) + whole.astype(np.int64), err - whole
    h = np.spacing(a) * 0.5 * m
    # [bot, top]: the integers within h of pi + f, the ends only for an even
    # mantissa; f -+ (h mod 1) are exact, as multiples of 2**-51 under 2
    hi, odd = np.floor(h), (bits & 1).astype(bool)
    t, u = f + (h - hi), f - (h - hi)
    top = pi + (hi + np.floor(t) - ((np.floor(t) == t) & odd)).astype(np.int64)
    bot = pi + (np.ceil(u) - hi + ((np.ceil(u) == u) & odd)).astype(np.int64)
    # fewest digits ndig whose multiples of 10**(17 - ndig) meet [bot, top]
    # (17 always do; fitting is monotone), then the nearest such multiple
    ndig, at = np.full(a.size, 17), np.arange(a.size)
    for q in range(16, 0, -1):
        fit = top // 10**(17 - q) * 10**(17 - q) >= bot
        at, top, bot = at[fit], top[fit], bot[fit]
        ndig[at] = q
    r = pi % (step := _POW10_INT[17 - ndig])
    c = np.clip(2 * r - step, -2, 2) + 2 * f       # 2 (pi + f mod step) - step
    digits = pi - r + step * (c > 0)
    cells, lens = _fixed(digits, 17 - k, ndig, x < 0)
    at = np.flatnonzero(~ok | (c == 0) | (pi < 10**16) | (digits >= 10**17))
    uniq, inv = np.unique(bits[at], return_inverse=True)
    b, ln = _text(map(repr, uniq.view(np.float64).tolist()))
    cells[at], lens[at] = b[inv, :24], ln[inv]
    return cells, lens


def _fixed(digits, decpt, ndig, neg):
    """repr's fixed notation of -neg * 0.D * 10**decpt, -3 <= decpt <= 16,
    for D the first ndig of the 17 digits of each int in digits."""
    neg = neg.astype(np.int8)
    rows = np.full((digits.size, 8), _DIGITS4[0])   # 7 zeros, the 17 digits
    for j in range(5, 0, -1):                       # // by a scalar is SIMD
        quot = digits // 10**4
        rows[:, j], digits = _DIGITS4[digits - quot * 10**4], quot
    # cell byte j is row byte s + j before the '.' (at j = d), s + j - 1 after
    win = sliding_window_view(rows.view(np.uint8), 24, 1)
    at, s = np.arange(digits.size), 6 + np.minimum(decpt, 1) - neg
    j = np.arange(24, dtype=np.int8)
    d = (np.maximum(decpt, 1) + neg).astype(np.int8)[:, None]
    cells, later = win[at, s], win[at, s - 1]
    cells += (later - cells) * (j > d)
    cells += (ord(".") - cells) * (j == d)
    cells += (ord("-") - cells) * (j < neg[:, None])
    return cells, neg + np.maximum(ndig, decpt + 1) - np.minimum(decpt, 1) + 2
