"""The bytes of ``repr(float(x))`` for every element of a float64 array, computed with NumPy.

``repr`` prints the shortest decimal that reads back to the same double,
the one nearest the double's exact value when several are that short.
``cells(values)`` finds those digits for a whole array at once with the
Schubfach method (R. Giulietti, "The Schubfach way to render doubles",
2020), as A. Bolz's public-domain ``schubfach_64`` states it: the
significand and the two ends of its rounding interval, each times a 128-bit
power of ten, kept to their top 64 bits rounded to odd.  NumPy has no
128-bit integers, so one product is formed from 32-bit limbs in ``uint64``
arrays and the two ends from it by 192-bit additions.  The digits are then
laid out as ``repr`` lays them out: fixed notation for ``1e-4 <= |x| <
1e16``, with ``.0`` after an integral value, and ``d.ddde±XX`` otherwise,
with at least two exponent digits.

No Python object is made per element.  Each element's text is a row of
``WIDTH`` bytes: ``repr(float(x)).encode()`` exactly (``-0.0``, ``inf``,
``-inf`` and ``nan`` included) once its NUL bytes are deleted.  The NULs
follow the text, except that an exponent keeps the last five bytes of
the row.  A row is built as three little-endian 64-bit words, so that
moving characters is shifting words.
"""
from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "cells"]

WIDTH = 24  # '-' + '0.000' + 17 digits, or '-' + 'd.' + 16 digits + 'e-308'
# elements per pass of the kernel, whose dozens of temporary arrays then stay
# in cache: on a 2-core x86-64 machine, 65,536 normal doubles took 150, 114,
# 113 and 153 ns each at 2,048, 4,096, 8,192 and 16,384 (best of 25 calls)
_CHUNK = 8192

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_32 = _U(32)

# g = floor(10^K / 2^r) + 1 with r chosen so that 2^127 <= g <= 2^128, for
# every K the method asks for (K = -k with k from -324 to 292): as four
# 32-bit limbs and as two 64-bit words, least significant first.  Python
# integers make them exactly, once, when the module is imported.
_K_MIN, _K_MAX = -292, 324


def _power_table() -> np.ndarray:
    gs = []
    for K in range(_K_MIN, _K_MAX + 1):
        power = 10 ** abs(K)
        if K >= 0:
            r = power.bit_length() - 128
            gs.append((power >> r if r >= 0 else power << -r) + 1)
        else:
            gs.append((1 << (power.bit_length() + 127)) // power + 1)
    limbs = np.frombuffer(b"".join(g.to_bytes(16, "little") for g in gs), dtype="<u4")
    return np.ascontiguousarray(limbs.reshape(-1, 4).T, dtype=_U)


_G = _power_table()
_G64 = (_G[0] | (_G[1] << _32), _G[2] | (_G[3] << _32))


def _exponent_tables():
    """k, h and the row of g, for each biased exponent, plus 2048 where the
    gap below the double is half the gap above it (a power of two)."""
    closer, biased = np.divmod(np.arange(4096), 2048)
    q = np.maximum(biased, 1) - 1075
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2^q)), or of 3/4 2^q
    h = q + ((-k * 1741647) >> 19) + 1  # 1 to 4
    return k, h.astype(_U), -k - _K_MIN


_EXPONENT_K, _EXPONENT_H, _EXPONENT_ROW = _exponent_tables()


def _words(strings) -> np.ndarray:
    """Each of ``strings`` (at most 24 one-byte characters) as a row of three words."""
    return np.frombuffer(b"".join(s.encode("latin-1").ljust(24, b"\0") for s in strings),
                         dtype="<u8").reshape(-1, 3)


_POW10 = 10 ** np.arange(18, dtype=_U)
_ZERO_CHARS = _U(0x3030303030303030)  # '0' in every byte
# by columns: byte p set to '.', and bytes 0..p-1 set to 0xFF, for p = 0..24;
# a point at 23 or 24 is past any text, so there is none
_POINTS = np.ascontiguousarray(_words(["\0" * p + "." for p in range(23)] + ["", ""]).T)
_HEADS = np.ascontiguousarray(_words(["\xff" * p for p in range(25)]).T)
# a sign and up to four zeros, before the digits: [zeros + 5 * negative]
_PREFIXES = _words([sign + "0" * zeros for sign in ("", "-") for zeros in range(5)])[:, 0]


def _layout_tables():
    """How repr lays out 0.DIGITS * 10^point with ``significant`` digits,
    unsigned: for each point from -323 to 309, the zeros that go before the
    digits and the exponent (bytes 19..23 of a row, none for fixed
    notation); for each point and significant (0..17, at [point * 18 +
    significant]), the byte that the point goes in (23: none) and the
    length of the text without the exponent."""
    point = np.arange(-323, 310, dtype=np.int16)
    fixed = (point > -4) & (point <= 16)
    small = fixed & (point <= 0)
    before = np.where(small, 1 - point, 0)
    exponents = _words([f"{'':19}e{p - 1:+03d}".replace(" ", "\0") if not f else ""
                        for p, f in zip(point.tolist(), fixed.tolist())])[:, 2]
    significant = np.arange(18, dtype=np.int16)
    point, fixed, small = point[:, None], fixed[:, None], small[:, None]
    dot = np.where(small | ~fixed & (significant > 1), 1, np.where(fixed, point, 23))
    length = np.where(small, 2 - point + significant, np.where(
        fixed, np.maximum(point + 1, significant) + 1, significant + (significant > 1)))
    return before.astype(np.int64), exponents, dot.ravel(), length.ravel()


_BEFORE, _EXPONENTS, _DOT, _LENGTH = _layout_tables()
# zero, infinity and NaN, unsigned then signed: [kind + 3 * negative]
_SPECIALS = _words(["0.0", "inf", "nan", "-0.0", "-inf", "nan"])
_INFINITY = _U(0x7FF0000000000000)


def _product(g, cp):
    """The 64-bit words (low, middle, top) of the 192-bit ``g * cp``, for
    ``g`` as four 32-bit limbs and ``cp < 2^59``.

    Column k sums the 32-bit halves of the products that fall at bit 32k,
    then passes its carry up.  A product with the high half of ``cp`` is
    below 2^59, so it is added whole: every column stays below 2^60."""
    g0, g1, g2, g3 = g
    c0 = cp & _LOW32
    c1 = cp >> _32
    p = g0 * c0
    low = p & _LOW32
    column = p >> _32
    column += g0 * c1
    p = g1 * c0
    column += p & _LOW32
    middle = column & _LOW32
    column >>= _32
    column += p >> _32
    column += g1 * c1
    p = g2 * c0
    column += p & _LOW32
    low |= middle << _32
    middle = column & _LOW32
    column >>= _32
    column += p >> _32
    column += g2 * c1
    p = g3 * c0
    column += p & _LOW32
    middle |= column << _32
    column >>= _32
    column += p >> _32
    column += g3 * c1
    return low, middle, column


def _shifted(g_low, g_high, shift):
    """The 64-bit words of ``g << shift`` for 0 < shift < 64."""
    back = _U(64) - shift
    return g_low << shift, (g_high << shift) | (g_low >> back), g_high >> back


def _decimal(bits):
    """(digits, exponent) with digits * 10^exponent the shortest decimal that
    rounds to each positive finite double of ``bits``, the nearest of those
    and the even one on a tie; digits may end in zeros."""
    fraction = bits & _U((1 << 52) - 1)
    biased = (bits >> _U(52)).astype(np.int64)
    c = fraction | ((biased != 0).astype(_U) << _U(52))
    closer = (fraction == 0) & (biased > 1)
    exponent = biased + 2048 * closer
    k, h, row = _EXPONENT_K.take(exponent), _EXPONENT_H.take(exponent), _EXPONENT_ROW.take(exponent)
    g_low, g_high = _G64[0].take(row), _G64[1].take(row)
    # RoundToOdd(g, x << h) of schubfach_64 for x = 4c - 2 + closer, 4c and
    # 4c + 2: the top word of the product, made odd when the middle word
    # exceeds 1.  The ends are the centre's product minus and plus g << s.
    low, middle, top = _product([limb.take(row) for limb in _G], c << (h + _U(2)))
    centre = top | (middle > 1)

    d0, d1, d2 = _shifted(g_low, g_high, h + _U(1))
    sum_middle = middle + d1
    carry = sum_middle < d1
    carried = sum_middle + ((low + d0) < d0)
    carry |= carried < sum_middle
    upper = (top + d2 + carry) | (carried > 1)

    d0, d1, d2 = _shifted(g_low, g_high, h + _U(1) - closer)
    difference_middle = middle - d1
    borrow = difference_middle > middle
    borrowed = difference_middle - (low < d0)
    borrow |= borrowed > difference_middle
    lower = (top - d2 - borrow) | (borrowed > 1)

    # odd significands exclude the ends, even ones include them
    odd = c & _U(1)
    lower += odd
    upper -= odd
    s = centre >> _U(2)
    sp = s // _U(10)
    # one digit shorter: exactly one of sp, sp + 1 (times 10) in the interval
    tens = sp * _U(40)
    wp_inside = tens + _U(40) <= upper
    shorter = ((lower <= tens) != wp_inside) & (s >= _U(10))
    # else s or s + 1, one of which is in the interval: s + 1 when s is not,
    # or when both are and the centre is past their midpoint (or on it, s odd)
    fours = s << _U(2)
    up = (lower > fours) | ((fours + _U(4) <= upper) & (centre + (s & _U(1)) > fours + _U(2)))
    return np.where(shorter, sp + wp_inside, s + up), k + shorter


def _eight_digits(x):
    """The eight decimal digits of each ``x < 10^8`` as the bytes of a word,
    the first digit in the lowest byte: halves, then quarters, then single
    digits, divided in parallel in the lanes of the word by multiplying
    with scaled reciprocals (exact for these ranges)."""
    half = x // _U(10 ** 4)
    lanes = half | ((x - half * _U(10 ** 4)) << _32)
    quarter = ((lanes * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    lanes = quarter | ((lanes - quarter * _U(100)) << _U(16))
    tens = ((lanes * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return tens | ((lanes - tens * _U(10)) << _U(8))


def _top_byte(word):
    """The index of the highest nonzero byte of each nonzero ``word`` whose
    bytes are below 16, from its float64 exponent (exact: no such word is
    within rounding of a higher power of two)."""
    return ((word.astype(np.float64).view(np.int64) >> 52) - 1023) >> 3


def _text(negative, digits, point):
    """Three rows of words, a column per element: ``repr`` of
    ``0.DIGITS * 10^point``, negated where ``negative`` is 1, for 17-digit
    ``digits`` (their trailing zeros are not printed)."""
    lead = digits // _U(10 ** 16)
    rest = digits - lead * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    high_digits = _eight_digits(high)
    low_digits = _eight_digits(rest - high * _U(10 ** 8))
    # the last nonzero digit: the top nonzero byte of a word of digits
    significant = np.where(
        low_digits != 0, 10 + _top_byte(low_digits),
        np.where(high_digits != 0, 2 + _top_byte(high_digits), 1),
    )

    # the sign, and for 0 < |x| < 1 the zeros of "0.000", go before the
    # digits: shift the 17 digit characters up by that many bytes
    row = point + 323
    before = _BEFORE.take(row)
    shift = (8 * (negative + before)).astype(_U)
    back = _U(64) - shift
    high_digits += _ZERO_CHARS
    low_digits += _ZERO_CHARS
    word = np.empty((3, len(digits)), dtype=_U)
    word[0] = (lead + _U(48)) | (high_digits << _U(8))
    word[1] = (high_digits >> _U(56)) | (low_digits << _U(8))
    word[2] = low_digits >> _U(56)
    word[2] <<= shift
    word[2] |= word[1] >> back
    word[1] <<= shift
    word[1] |= word[0] >> back
    word[0] <<= shift
    word[0] |= _PREFIXES.take(before + 5 * negative)
    # the point goes in at byte `dot`; the text takes `length` bytes
    layout = row * 18 + significant
    dot = _DOT.take(layout) + negative
    length = _LENGTH.take(layout) + negative
    head = word & _HEADS.take(dot, axis=1)
    word ^= head
    text = word << _U(8)
    text[1:] |= word[:-1] >> _U(56)
    text |= head
    text |= _POINTS.take(dot, axis=1)
    text &= _HEADS.take(length, axis=1)
    text[2] |= _EXPONENTS.take(row)
    return text


def cells(values) -> np.ndarray:
    """``(*values.shape, WIDTH)`` uint8: each element's ``repr`` bytes, with NULs.

    ``values`` is converted to float64 first.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.reshape(-1).view(_U)
    out = np.empty((bits.size, 3), dtype="<u8")  # byte 0 of a word first, on any machine
    for start in range(0, bits.size, _CHUNK):
        out[start:start + _CHUNK] = _chunk(bits[start:start + _CHUNK]).T
    return out.view(np.uint8).reshape(*x.shape, WIDTH)


def _chunk(bits):
    """``_text`` for the doubles of ``bits``."""
    negative = (bits >> _U(63)).astype(np.int64)
    magnitude = bits & _U((1 << 63) - 1)
    special = (magnitude == 0) | (magnitude >= _INFINITY)
    rows = np.flatnonzero(special)
    if rows.size:  # zero, infinity or NaN: 1.0 stands in, then is overwritten
        kind = (magnitude[rows] >= _INFINITY).astype(np.int64) + (magnitude[rows] > _INFINITY)
        magnitude = np.where(special, _U(0x3FF0000000000000), magnitude)
    digits, exponent = _decimal(magnitude)
    # the digit count, from the binary exponent and one power of ten
    count = ((digits.astype(np.float64).view(np.int64) >> 52) - 1022) * 1233 >> 12
    count += digits >= _POW10.take(count)
    digits *= _POW10.take(17 - count)
    text = _text(negative, digits, exponent + count)
    if rows.size:
        text[:, rows] = _SPECIALS.take(kind + 3 * negative[rows], axis=0).T
    return text
