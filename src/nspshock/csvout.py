"""Exact '%.{p}e' formatting of float tables, vectorised over numpy arrays.

`write_table` writes each row of a 2-d float table to a binary file as
its values in '%.{p}e' format, joined by commas and followed by a given
line end.  The bytes are exactly those of Python's % operator, but no
value of a block of rows goes through Python on its own.

For each value a = |x|, the decimal exponent E = floor(log10 a) is read
from np.log10 and corrected by one where a lies outside [10^E, 10^(E+1)),
by exact comparison with a double-double table of powers of ten.  The
product a 10^(p-E) is then formed exactly as a double-double: Dekker's
two-product of a with the high word of 10^(p-E), plus a times its low
word (T. J. Dekker, "A floating-point technique for extending the
available precision", Numer. Math. 18 (1971) 224-242).  Its error is
below 1e-12 of the last digit, so rounding it to the nearest integer
gives the correctly rounded mantissa m in [10^p, 10^(p+1)]; m = 10^(p+1)
is a carry into the exponent.  With p in {16, 18}, 10^p exceeds 2^53, so
the double-double's high word is an integer, and m stays below 2^64.

The characters of a block of rows are written into one (rows, columns,
width) uint8 buffer from two-digit lookups, and one boolean mask drops
the absent signs, absent third exponent digits and the last comma of
each row.

Three kinds of value are formatted one at a time by Python's %, so the
bytes stay exact: values within 1e-9 of a rounding tie (% rounds exact
decimal ties half to even), zeros and non-finite values, and |x| outside
[1e-270, 1e270], where the power table would leave the range of normal
doubles.  A row that holds such a value is written whole by %.
"""

from __future__ import annotations

import functools

import numpy as np

# rows formatted at once.  The 20,000 rows of a spectrum.csv took 28 ms in
# blocks of 256 rows, 17 ms in blocks of 1024 or 2048 and 23 ms in one
# block (2 vCPUs); peak_rss_mb of the benchmark workloads read the same
# from 256 to 4096 rows
BLOCK_ROWS = 1024

# values formatted exactly by the vectorised path
_LOW, _HIGH = 1e-270, 1e270
# half-width of the band around a rounding tie that is left to %
_TIE_BAND = 1e-9
# decimal exponents of the power table: E and E + 1 for the exponent
# check, p - E for the product, over the range above
_KMIN, _KMAX = -290, 290

# _PAIRS[n] is the two ASCII digits of n < 100 as one uint16, so that one
# np.take gathers both
_PAIRS = np.frombuffer(b"".join(b"%02d" % n for n in range(100)),
                       dtype=np.uint16)
# _EXPONENTS[E - _KMIN] is the sign and three digits of the exponent E as
# one uint32
_EXPONENTS = np.frombuffer(b"".join(b"%+04d" % e
                                    for e in range(_KMIN, _KMAX + 1)),
                           dtype=np.uint32)


@functools.cache
def _powers() -> tuple:
    """(hi, lo, hi_hi, hi_lo): 10^k = hi + lo for k in [_KMIN, _KMAX],
    with Dekker's split hi = hi_hi + hi_lo.

    hi is 10^k correctly rounded and lo is 10^k - hi correctly rounded,
    both from Python's correctly rounded integer division, so hi + lo
    carries 10^k to about 2^-106 relative.  Built on first use.
    """
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    return (hi, np.array(lo)) + _split(hi)


def _split(a: np.ndarray):
    """Dekker's split a = hi + lo into two halves of 26 bits or fewer."""
    c = 134217729.0 * a          # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _at_least_power(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a >= 10^k, exactly: lo carries the sign of 10^k - hi."""
    hi, lo = (np.take(t, k - _KMIN) for t in _powers()[:2])
    return (a > hi) | ((a == hi) & (lo <= 0.0))


def _round(a: np.ndarray, E: np.ndarray, p: int):
    """(m, tie): a 10^(p-E) rounded to the nearest integer, as uint64,
    and where it lies within _TIE_BAND of a tie (m may then be one off).
    The result is below 2^64 and at least 10^p > 2^53."""
    hi, lo, hi_hi, hi_lo = (np.take(t, p - E - _KMIN) for t in _powers())
    # a hi = P + err exactly; P is an integer, as it exceeds 2^53
    P = a * hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * hi_hi - P) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    low = err + a * lo
    whole = np.floor(low)
    frac = low - whole
    # the low part may be negative: add it to P modulo 2^64
    step = (whole + (frac > 0.5)).astype(np.int64).view(np.uint64)
    return P.astype(np.uint64) + step, np.abs(frac - 0.5) < _TIE_BAND


def _mantissas(a: np.ndarray, p: int):
    """(m, E, tie) for a in [_LOW, _HIGH]: a = m 10^(E-p) correctly
    rounded, with 10^p <= m < 10^(p+1), where tie is False.

    Where tie is True, a 10^(p-E) lies within _TIE_BAND of a rounding tie
    and m may be off by one.
    """
    E = np.floor(np.log10(a)).astype(np.int64)
    m, tie = _round(a, E, p)
    # next to a power of ten np.log10 may put E one off; m then leaves
    # [10^p, 10^(p+1)], or is 10^p, which an exact E gives too
    bottom, top = np.uint64(10**p), np.uint64(10**(p + 1))
    odd = (m <= bottom) | (m > top)
    if odd.any():
        b, F = a[odd], E[odd]
        F += _at_least_power(b, F + 1)
        F -= ~_at_least_power(b, F)
        E[odd] = F
        m[odd], tie[odd] = _round(b, F, p)
    # rounding up to 10^(p+1) carries into the exponent
    carry = m == top
    return np.where(carry, bottom, m), E + carry, tie


def _rows(x: np.ndarray, p: int, end: bytes):
    """(rows, keep, python) for the (N, C) values x: the characters of
    each row followed by end, as (N, C (p + 9) + len(end)) uint8 rows; the
    mask of the characters to keep; and the (N, C) values left to %.

    Each value takes p + 9 places: sign, first digit, '.', p digits, 'e',
    exponent sign, three exponent digits and ','.
    """
    n, cols = x.shape
    w = p + 9
    a = np.abs(x)
    python = ~((a >= _LOW) & (a <= _HIGH))
    m, E, tie = _mantissas(np.where(python, 1.0, a), p)
    python |= tie

    template = (b"-0." + b"0" * p + b"e+000,") * cols + end
    rows = np.empty((n, len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template, dtype=np.uint8)
    chars = rows[:, :cols * w].reshape(n, cols, w)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, cols * w - 1] = False
    kept = keep[:, :cols * w].reshape(n, cols, w)

    scale = np.uint64(10**p)
    first = m // scale
    rest = (m - first * scale).view(np.int64)
    # (numpy's floor division by a scalar is about three times faster
    # than its remainder or divmod)
    pairs = np.empty((n, cols, p // 2), dtype=np.int64)
    for j in range(p // 2 - 1, -1, -1):
        ahead = rest // 100
        pairs[..., j] = rest - 100 * ahead
        rest = ahead
    chars[..., 1] += first.astype(np.uint8)
    chars[..., 3:p + 3] = np.take(_PAIRS, pairs).view(np.uint8)
    chars[..., p + 4:p + 8] = np.take(_EXPONENTS, E - _KMIN)[..., None].view(
        np.uint8)
    kept[..., 0] = np.signbit(x)
    kept[..., p + 5] = np.abs(E) >= 100
    return rows, keep, python


def write_table(fh, table: np.ndarray, precision: int,
                end: bytes = b"\n") -> None:
    """Write each row of the 2-d float table to the binary file fh: its
    values as '%.{precision}e' joined by commas, then end.

    precision must be 16 or 18.  The bytes equal those of Python's %.
    """
    if precision not in (16, 18):
        raise ValueError(f"precision must be 16 or 18, not {precision}")
    table = np.asarray(table, dtype=float)
    fmt = f"%.{precision}e"
    for start in range(0, table.shape[0], BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        rows, keep, python = _rows(block, precision, end)
        done = 0
        for r in np.flatnonzero(python.any(axis=1)):
            fh.write(rows[done:r][keep[done:r]])
            fh.write(",".join(fmt % v for v in block[r].tolist()).encode()
                     + end)
            done = r + 1
        fh.write(rows[done:][keep[done:]])
