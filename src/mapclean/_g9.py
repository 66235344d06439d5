"""The ascii map body: "%.9g" of float32 values, formatted by numpy.

"%.9g" gives nine significant digits, from which every float32 reads back
unchanged. format_g9 returns the bytes Python's "%.9g" gives, at a fraction
of the per-value cost. `io.write_map` imports this module on its first
ascii write, so importing mapclean neither compiles it nor builds its
tables (~1 ms).

A value with decimal exponent e prints the nine digits D = rint(y),
y = |v| * 10**(8 - e). Python uses fixed notation for -4 <= e <= 8, where
y is exact in float64 (24 mantissa bits times 5**12 < 2**28), so rint
rounds it as Python does, half to even. Elsewhere the power of ten and the
product are rounded once each, which puts y < 1e9 less than 2e-7 off, so
rint can differ only for a y within TIE_TOL of a tie: those values, and
non-finite ones, are formatted by Python.

Each value's text is laid out in a 32-byte field padded with NULs, which
one bytearray.translate per call then drops. Byte 0 holds the sign, 1-5 the
"0.000" of fixed notation below 1 (right-aligned), 6 + 2j digit j, 7 + 2j
a point after digit j < 8, 23-26 the exponent "e+XX", 31 the separator.
"""

from __future__ import annotations

import numpy as np

E_MIN, E_MAX = -46, 39   # float32 spans e = -45..38; one more each way
TIE_TOL = 5e-7
FIELD = 32


def _tables():
    es = np.arange(E_MIN, E_MAX + 1)
    pow10 = np.array([float(f"1e{8 - e}") for e in es])   # correctly rounded
    # 4-digit groups, each digit followed by an empty slot for the point
    q = np.arange(10000)
    quad = np.zeros((10000, 8), np.uint8)
    for i in range(4):
        quad[:, 2 * i] = ord("0") + q // 10 ** (3 - i) % 10
    sig4 = 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0)
    nsig_hi = np.where(q, 1 + sig4, 1)   # significant digits of D from its digits 0-4
    nsig_lo = np.where(q, 5 + sig4, 0)   # ... and from its digits 5-8
    # per (e, nsig) the field without sign, digits and separator; xor-ed
    # with the digit groups it clears the zeros that are trimmed
    fixed = (es >= -4) & (es <= 8)
    point = np.where(fixed, np.maximum(es + 1, 0), 1)         # digits before the point
    nsig = np.arange(10)
    kept = np.maximum(nsig[None, :], point[:, None])
    f = np.zeros((len(es), 10, FIELD), np.uint8)
    j = np.arange(1, 9)
    f[..., 6 + 2 * j] = np.where(j >= kept[..., None], ord("0"), 0)
    ei, ni = np.nonzero((nsig[None, :] > point[:, None]) & (point[:, None] > 0))
    f[ei, ni, 5 + 2 * point[ei]] = ord(".")
    for i, e in enumerate(es):
        if fixed[i] and e < 0:
            f[i, :, 5 + e:6] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
        elif not fixed[i]:
            f[i, :, 23:27] = np.frombuffer(b"e%+03d" % e, np.uint8)
    words = f.reshape(-1, FIELD).view(np.uint64)
    lead = np.zeros((2, 10, 8), np.uint8)                     # sign and first digit
    lead[1, :, 0] = ord("-")
    lead[:, :, 6] = ord("0") + np.arange(10)
    sep = np.zeros((2, 8), np.uint8)
    sep[:, 7] = [ord(" "), ord("\n")]
    return (pow10, quad.view(np.uint64).ravel(), nsig_hi, nsig_lo,
            lead.view(np.uint64).ravel(), sep.view(np.uint64).ravel(),
            [words[:, i].copy() for i in range(4)])


_POW10, _QUAD, _NSIG_HI, _NSIG_LO, _LEAD, _SEP, _WORD = _tables()


def _digits(x, e):
    """rint(x * 10**(8 - e)), and where that rounding may differ from the
    exact product's."""
    y = x * _POW10.take(e - E_MIN)
    d = np.rint(y)
    inexact = (e < -4) | (e > 8)
    return y, d, inexact & (np.abs(np.abs(y - d) - 0.5) < TIE_TOL)


def format_g9(rows: np.ndarray) -> bytearray:
    """The ascii lines of a float32 (n, k) array: "%.9g" per value, values
    joined by spaces, each row ended by a newline."""
    n, k = rows.shape
    v = rows.ravel()
    with np.errstate(invalid="ignore"):     # a signalling NaN flags the cast
        x = np.abs(v).astype(np.float64)
    finite = np.isfinite(x)
    nonzero = finite & (x != 0)
    x[~nonzero] = 1.0
    e = np.floor(np.log10(x)).astype(np.intp)
    y, d, slow = _digits(x, e)
    # log10 can be one off next to a power of ten, and a value just below
    # one can round up to it (the float32 nearest 1e-23, 9.9999999982e-24,
    # prints as 1e-23): either leaves D outside [1e8, 1e9), and the
    # neighbouring e is right
    off = np.flatnonzero((y < 1e8) | (d >= 1e9))
    if off.size:
        e[off] += np.where(y[off] < 1e8, -1, 1)
        _, d[off], again = _digits(x[off], e[off])
        slow[off] |= again | (d[off] < 1e8) | (d[off] >= 1e9)
    e[~nonzero] = 0
    d = np.where(nonzero, d, 0).astype(np.int32)
    d0 = d // 100000000
    hi = d // 10000
    lo = d - hi * 10000
    hi -= d0 * 10000
    row = (e - E_MIN) * 10 + np.maximum(_NSIG_HI.take(hi), _NSIG_LO.take(lo))
    buf = bytearray(n * k * FIELD)
    out = np.frombuffer(buf, np.uint64).reshape(n, k, 4)
    out[..., 0] = (_WORD[0].take(row) | _LEAD.take(np.signbit(v) * 10 + d0)).reshape(n, k)
    out[..., 1] = (_QUAD.take(hi) ^ _WORD[1].take(row)).reshape(n, k)
    out[..., 2] = (_QUAD.take(lo) ^ _WORD[2].take(row)).reshape(n, k)
    out[..., 3] = _WORD[3].take(row).reshape(n, k)
    out[:, :-1, 3] |= _SEP[0]
    out[:, -1, 3] |= _SEP[1]
    slow = np.flatnonzero(slow | ~finite)
    if slow.size:
        text = b"".join(("%.9g%s" % (v[i], "\n" if i % k == k - 1 else " "))
                        .encode().rjust(FIELD, b"\0") for i in slow.tolist())
        out.reshape(-1, 4)[slow] = np.frombuffer(text, np.uint64).reshape(-1, 4)
    return buf.translate(None, b"\0")
