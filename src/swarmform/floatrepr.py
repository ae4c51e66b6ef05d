"""Python's float `repr`, for a whole table of float64 values at once.

`repr_rows(table)` gives the bytes of
`"".join(",".join(map(repr, row)) + "\\r\\n" for row in table.tolist())`
without a Python call per value. The digits are the shortest that read
back as the same double, the closest of those to it, the even one on a
tie: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), in uint64 array arithmetic with 32-bit limbs for the 128-bit
products. The layout is `repr`'s: exponent form when the decimal point
would sit more than 16 places right of the first digit or more than 3
places left of it, positional otherwise.

Each value is laid out in a fixed field of four little-endian words: the
text left-aligned in three, the exponent and the separator in the fourth,
and zero bytes wherever the text is shorter; `bytearray.translate` drops
the zero bytes, which no text contains.

Every uint64 operand is a uint64 array or an `np.uint64` scalar: mixed
with a signed integer NumPy promotes to float64, and wrapping arithmetic on
a NumPy scalar warns, which the tests turn into an error. Arrays are freed
as soon as they are spent (`del`, or a helper returning), because a
block's peak memory is the sum of the arrays alive at once.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_S32 = _U(32)
_E_MIN = -292   # the powers 10^e a double needs: e from -292 (at 2^971) to 324 (at 2^-1074)
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)


@cache
def _g_table() -> tuple[np.ndarray, ...]:
    """Four 32-bit limbs, most significant first, of g(e) = floor(10^e 2^-r) + 1
    for e = -292 … 324, with r chosen so that 2^125 <= g < 2^126."""
    gs = []
    for e in range(_E_MIN, 325):
        if e >= 0:
            shift = (10 ** e).bit_length() - 126
            gs.append((10 ** e >> shift if shift > 0 else 10 ** e << -shift) + 1)
        else:
            gs.append((1 << (10 ** -e).bit_length() + 125) // 10 ** -e + 1)
    return tuple(np.array([g >> s & 0xFFFFFFFF for g in gs], dtype=np.uint64)
                 for s in (96, 64, 32, 0))


def _mul(a1, a0, b1, b0):
    """High and low 64-bit words of (a1 2^32 + a0)(b1 2^32 + b0), all limbs
    < 2^32 and b1 < 2^31."""
    lo = a0 * b0
    mid = a1 * b0
    hi = mid >> _S32
    mid &= _M32
    mid += lo >> _S32
    mid += a0 * b1   # < 2^63 + 2^33: no wrap
    hi += a1 * b1
    hi += mid >> _S32
    lo &= _M32
    lo |= mid << _S32
    return hi, lo


def _round_to_odd(g, cp):
    """floor(g cp / 2^128), its lowest bit set when bits 64-127 of g cp are
    not all zero (Schubfach's round-to-odd product: the lowest 64 bits never
    decide it); `g` is the 4-limb table row, cp < 2^62."""
    p1, p0 = cp >> _S32, cp & _M32
    carry, _ = _mul(g[2], g[3], p1, p0)
    hi, lo = _mul(g[0], g[1], p1, p0)
    lo += carry
    hi += lo < carry
    hi |= lo != _U(0)
    return hi


def _shortest(mag):
    """Decimal significand and exponent of the shortest `repr` digits of
    each finite nonzero magnitude in `mag` (uint64 bit patterns); other
    entries give garbage."""
    exp2 = mag >> _U(52)
    c = mag & _U((1 << 52) - 1)
    closer = (c == _U(0)) & (exp2 > _U(1))   # the gap below is half the gap above
    c |= (exp2 != _U(0)).astype(np.uint64) << _U(52)
    q = np.maximum(exp2, _U(1)).astype(np.int32) - 1075     # c 2^q is the magnitude
    del exp2
    k = (q * 1262611 - closer.astype(np.int32) * 524031) >> 22   # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 1741647) >> 19) + 3).astype(np.uint64)        # 3 … 6
    del q
    g = [np.take(limb, -k - _E_MIN) for limb in _g_table()]
    even = (c & _U(1)) == _U(0)
    c <<= _U(2)
    vb = _round_to_odd(g, c << h)
    lower = _round_to_odd(g, (c - _U(2) + closer) << h)
    lower += ~even
    upper = _round_to_odd(g, (c + _U(2)) << h)
    upper -= ~even
    del g, c, h
    # vb, lower and upper are 4 v and the ends of its rounding interval in
    # units of 10^k: take one digit fewer (sp or sp + 1) when exactly one of
    # those is inside, else s or s + 1 when exactly one is, else the nearer
    s = vb >> _U(2)
    sp = s // _U(10)
    up_in = lower <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= upper
    short = (s >= _U(10)) & (up_in != wp_in)
    del up_in
    u_in = lower <= s << _U(2)
    w_in = (s << _U(2)) + _U(4) <= upper
    del lower, upper
    vb -= s << _U(2)   # 0 … 3: below, at or above the midpoint s + 1/2
    near = s + ((vb > _U(2)) | ((vb == _U(2)) & (s & _U(1) == _U(1))))
    digits = np.where(short, sp + wp_in, np.where(u_in != w_in, s + w_in, near))
    return digits, k + short


def _ascii8(x):
    """The 8 decimal digits of each x < 10^8 as ASCII, the first in the low byte."""
    hi = x // _U(10 ** 4)
    w = hi | (x - hi * _U(10 ** 4)) << _S32
    q = (w * _U(5243)) >> _U(19) & _U(0x0000007F0000007F)   # v // 100 in each 32-bit lane
    w = q | (w - q * _U(100)) << _U(16)
    q = (w * _U(103)) >> _U(10) & _U(0x000F000F000F000F)    # v // 10 in each 16-bit lane
    return q | (w - q * _U(10)) << _U(8) | _U(0x3030303030303030)


@cache
def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(3, 25) masks of the bytes below m in each text word, (3, 25) words
    with "." at byte m, and the 10 leading words: "-" or not, then 0 to 4 "0"s."""
    below = np.array([[(1 << 8 * min(max(m - 8 * w, 0), 8)) - 1 for m in range(25)]
                      for w in range(3)], dtype=np.uint64)
    dot = np.array([[0x2E << 8 * (m - 8 * w) if 0 <= m - 8 * w < 8 else 0 for m in range(25)]
                    for w in range(3)], dtype=np.uint64)
    lead = np.array([int.from_bytes(b"-" * sign + b"0" * zeros, "little")
                     for sign in (0, 1) for zeros in range(5)], dtype=np.uint64)
    return below, dot, lead


def _decimal(mag):
    """Significand without trailing zeros, its digit count and the point:
    each magnitude in `mag` is 0.d1d2… x 10^point. Zeros and the specials
    give 0, 1 digit and point 1."""
    ordinary = (mag != _U(0)) & (mag < _U(0x7FF << 52))
    sig, exp10 = _shortest(mag)
    sig[~ordinary] = 0
    tens = np.flatnonzero(sig // _U(10) * _U(10) == sig)
    strip, dropped = sig[tens], np.zeros(len(tens), dtype=np.int32)
    for m in (16, 8, 4, 2, 1):   # up to 31 zeros, more than a significand has
        q = strip // _POW10[m]
        zeros = q * _POW10[m] == strip
        strip = np.where(zeros, q, strip)
        dropped += m * zeros
    sig[tens] = strip
    exp10[tens] += dropped
    nd = np.maximum(np.searchsorted(_POW10, sig, side="right"), 1).astype(np.int32)
    return sig, nd, np.where(ordinary, nd + exp10, 1)


def _text(sig, nd, point, sign):
    """A 4-word field per value, its sign, digits and point left-aligned in
    words 0-2 and zero bytes after them; and where the exponent form is
    taken."""
    # the 17-digit significand as ASCII in three words
    tail = sig * np.take(_POW10, 17 - nd)
    head = tail // _U(10 ** 9)
    tail -= head * _U(10 ** 9)
    digits = [_ascii8(head), _ascii8(tail // _U(10)), tail % _U(10) | _U(0x30)]
    del head, tail
    expo = (point < -3) | (point > 16)
    lz = np.where(expo, 0, np.clip(1 - point, 0, 4))   # leading zeros: "0.000" has 4
    ip = np.where(expo, 1, np.maximum(point, 1))       # digits before the point
    end = sign + np.where(expo, nd + (nd > 1), np.maximum(lz + nd, ip + 1) + 1)
    at = sign + ip
    # shifted up past the sign and the leading zeros
    below, dot, lead = _byte_tables()
    up = ((sign + lz) * 8).astype(np.uint64)
    down = _U(63) - up   # x >> 1 >> down is x >> (64 - up), 0 when up is 0
    text = (digits[0] << up | np.take(lead, sign * 5 + lz),
            digits[1] << up | digits[0] >> _U(1) >> down,
            digits[2] << up | digits[1] >> _U(1) >> down)
    del digits
    # the point at byte `at`; the bytes from there on move up one
    out = bytearray(32 * len(sig))
    field = np.frombuffer(out, dtype="<u8").reshape(-1, 4)
    carry = _U(0)
    for w, t in enumerate(text):
        keep = np.take(below[w], at)
        rest = t & ~keep
        t &= keep
        t |= np.take(dot[w], at)
        t |= rest << _U(8)
        t |= carry
        t &= np.take(below[w], end)
        field[:, w] = t
        carry = rest >> _U(56)
    return out, expo


def repr_rows(table: np.ndarray) -> bytearray:
    """The bytes of `",".join(map(repr, row)) + "\\r\\n"` for each row of the
    2-D float64 `table`."""
    rows, cols = table.shape
    bits = np.ascontiguousarray(table, dtype=np.float64).reshape(-1).view(np.uint64)
    mag = bits & _U((1 << 63) - 1)
    sign = (bits >> _U(63)) != _U(0)
    sig, nd, point = _decimal(mag)
    out, expo = _text(sig, nd, point, sign)
    field = np.frombuffer(out, dtype="<u8").reshape(-1, 4)
    # "e", its sign and 2 or 3 digits, then the separator at bytes 6-7
    sep = np.full(cols, ord(",") << 48, dtype=np.uint64)
    sep[-1] = int.from_bytes(b"\r\n", "little") << 48
    field.reshape(rows, cols, 4)[:, :, 3] = sep
    scaled = np.flatnonzero(expo)
    x = point[scaled].astype(np.int64) - 1
    e = [np.abs(x) // 10 ** p % 10 + 0x30 for p in (2, 1, 0)]
    field[scaled, 3] |= (0x65 | np.where(x < 0, 0x2D, 0x2B) << 8 | e[0] * (e[0] > 0x30) << 16
                         | e[1] << 24 | e[2] << 32).astype(np.uint64)
    special = np.flatnonzero(mag >= _U(0x7FF << 52))
    if len(special):
        nan = mag[special] > _U(0x7FF << 52)
        field[special, :3] = 0
        field[special, 0] = np.where(nan, _U(int.from_bytes(b"nan", "little")),
                                     np.where(sign[special], _U(int.from_bytes(b"-inf", "little")),
                                              _U(int.from_bytes(b"inf", "little"))))
    return out.translate(None, b"\0")
