"""The vectorised CSV writer gives exactly the bytes of Python's %."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspshock.csvout import BLOCK_ROWS, write_table


def percent_rows(table, precision, end=b"\n"):
    fmt = f"%.{precision}e"
    return b"".join(",".join(fmt % v for v in row).encode() + end
                    for row in np.asarray(table, dtype=float).tolist())


def written(table, precision, end=b"\n"):
    fh = io.BytesIO()
    write_table(fh, table, precision, end)
    return fh.getvalue()


def is_tie(x, precision):
    # x 10^(precision - E) is an integer plus one half
    q = Fraction(abs(x))
    E = math.floor(math.log10(abs(x)))
    q *= Fraction(10) ** (precision - E)
    if q < 10**precision:
        q *= 10
    return q - math.floor(q) == Fraction(1, 2)


# hypothesis draws mostly small integers, the bit patterns of subnormals;
# multiplying by an odd constant modulo 2^64 permutes the patterns and
# spreads those draws over every exponent
BITS = st.integers(0, 2**64 - 1)
SPREAD_BITS = BITS.map(lambda b: b * 0x9E3779B97F4A7C15 % 2**64)


@pytest.mark.parametrize("precision", [16, 18])
@settings(max_examples=200, deadline=None)
@given(bits=st.lists(BITS | SPREAD_BITS, min_size=6, max_size=90),
       cols=st.integers(1, 6))
def test_matches_percent_on_raw_bit_patterns(precision, bits, cols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    table = values[:len(bits) // cols * cols].reshape(-1, cols)
    assert written(table, precision) == percent_rows(table, precision)
    # one value a row: a value left to % takes no other with it
    column = values.reshape(-1, 1)
    assert written(column, precision) == percent_rows(column, precision)


@pytest.mark.parametrize("precision", [16, 18])
def test_edge_values_and_every_power_of_ten(precision):
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    neighbours = [math.nextafter(x, d) for x in powers
                  for d in (0.0, math.inf)]
    values = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                       -5e-324, np.finfo(float).max, -np.finfo(float).max,
                       *powers, *neighbours])
    table = np.resize(values, (-(-values.size // 4), 4))
    assert written(table, precision) == percent_rows(table, precision)
    assert written(-table, precision) == percent_rows(-table, precision)


@pytest.mark.parametrize("precision", [16, 18])
def test_carries_ties_and_three_digit_exponents(precision):
    # below a power of ten, rounding may carry into the exponent; ties at
    # the last digit round half to even
    carries = [9.999999999999999e22, 1e-243, 1e-176, 1e-79, 1e-70,
               math.nextafter(1.0, 0.0), math.nextafter(1e100, 0.0)]
    if precision == 16:
        ties = [1e15 + i + f for i in (0, 1, 2, 7) for f in (0.25, 0.75)]
    else:
        ties = [1e14 + i + f for i in (0, 1, 2, 7)
                for f in (0.03125, 0.09375)]
    assert all(is_tie(x, precision) for x in ties)
    wide = [1.2345e100, -6.02e-123, 1e-250, 2.5e269, 9.99e-100, 1e280,
            -1e-280]
    table = np.array(carries + ties + wide[:5]).reshape(-1, 1)
    table = np.hstack([table, -table[::-1], np.resize(wide, table.shape)])
    assert written(table, precision) == percent_rows(table, precision)
    assert written(table, 16, b",minus\n") == percent_rows(table, 16,
                                                          b",minus\n")
    if precision == 16:
        assert written([[9.999999999999999e22]], 16) \
            == b"9.9999999999999992e+22\n"
        assert written([[1e-243]], 16) == b"1.0000000000000000e-243\n"


def test_rows_across_block_boundaries():
    rng = np.random.default_rng(3)
    n = 2 * BLOCK_ROWS + 5
    table = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-120, 120,
                                                               (n, 5))
    # rows left to % at and next to each block boundary
    table[BLOCK_ROWS - 1, 0] = 0.0
    table[BLOCK_ROWS, 2] = math.nan
    table[2 * BLOCK_ROWS, 4] = 1e15 + 0.25
    table[-1, 1] = -math.inf
    for precision in (16, 18):
        assert written(table, precision, b",plus\n") \
            == percent_rows(table, precision, b",plus\n")
    assert written(np.empty((0, 5)), 16) == b""
