"""`floatrepr.repr_rows` against Python's own `repr`, value for value."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmform.floatrepr import repr_rows


def assert_reprs(table):
    """`repr_rows(table)` equals the `repr`-per-value rows, or the first
    value it writes differently is named."""
    want = "".join(",".join(map(repr, row)) + "\r\n" for row in table.tolist()).encode()
    got = repr_rows(table)
    if got != want:
        column = table.reshape(-1, 1)
        for value, text in zip(column.ravel().tolist(), repr_rows(column).split(b"\r\n")):
            assert text.decode() == repr(value), value.hex()
        raise AssertionError("every value formats alone, but the rows differ")


def from_bits(bits, cols):
    return np.asarray(bits, dtype=np.uint64).view(np.float64).reshape(-1, cols)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(0, 2 ** 64 - 1), min_size=cols, max_size=cols), min_size=1,
    max_size=12)))
def test_any_bit_pattern(rows):
    assert_reprs(from_bits(rows, len(rows[0])))


def test_random_bit_patterns():
    """200,000 seeded patterns: every sign, exponent and significand field."""
    rng = np.random.default_rng(20261019)
    assert_reprs(from_bits(rng.integers(0, 2 ** 64 - 1, 200_000, dtype=np.uint64,
                                        endpoint=True), 40))


def test_random_trace_like_values():
    """Magnitudes from 1e-8 to 1e20, so both layouts and every point position
    occur, and decimal values a step count times a time step gives."""
    rng = np.random.default_rng(5)
    spread = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 21, 100_000)
    stepped = np.arange(100_000) * 0.01
    assert_reprs(np.concatenate((spread, stepped, -stepped)).reshape(-1, 50))


def test_edge_values():
    """Zeros, the subnormal and normal extremes, the specials, every power of
    two and every power of ten with its two neighbours, of both signs."""
    values = [0.0, 5e-324, 2.225073858507201e-308, sys.float_info.min, sys.float_info.max,
              math.inf, math.nan]
    values += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        values += [math.nextafter(ten, 0.0), ten, math.nextafter(ten, math.inf)]
    values += [-v for v in values]
    assert_reprs(np.array(values).reshape(-1, 1))
    assert_reprs(np.array(values[:-1]).reshape(-1, 3))


def test_layout_boundaries():
    """`repr` switches to the exponent form below 1e-4 and from 1e16 on."""
    table = np.array([[0.0001, 1e-05, 9999999999999998.0, 1e16, 0.00012345678901234567,
                       1.2345678901234567e-05, 1234567890123456.8, 12345678901234568.0,
                       0.001, 123.0, 1e22, 1.5e-07, 1e100, 1.7976931348623157e+308]])
    assert_reprs(table)
    assert repr_rows(table[:, :3]) == b"0.0001,1e-05,9999999999999998.0\r\n"
