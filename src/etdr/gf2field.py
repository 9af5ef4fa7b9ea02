"""Arithmetic in binary extension fields GF(2^d).

Conventions, shared by every caller in this package:

  * A field element is a Python int. Bit i of the int is the coefficient
    of x^i, so the polynomial basis is little-endian and an element of
    GF(2^d) satisfies 0 <= value < 2**d.
  * Addition is XOR. Multiplication is a carry-less product followed by
    reduction modulo a fixed irreducible polynomial for the degree.
  * The reduction polynomial mask includes the leading x^d term, so
    mask.bit_length() == d + 1. REDUCTION_POLY pins one polynomial per
    degree; it is a wire-compatibility constant. Two endpoints that
    disagree on it compute different hashes, so the table is part of the
    protocol definition (see README for the documented list).

The table holds, for each degree, the irreducible polynomial with the
fewest nonzero terms, ties broken by smallest integer mask. Degrees above
the table are served by a deterministic cached search applying the same
rule, so all processes agree without coordination.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .errors import ParameterError

# fmt: off
REDUCTION_POLY: dict[int, int] = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
    33: 0x200000401, 34: 0x400000081, 35: 0x800000005, 36: 0x1000000201,
    37: 0x2000000053, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000081, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001B, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002D, 49: 0x2000000000201,
    50: 0x400000000001D, 51: 0x800000000004B, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x40000000000201, 55: 0x80000000000081,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000080001,
    59: 0x800000000000095, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000020000001, 63: 0x8000000000000003, 64: 0x1000000000000001B,
    65: 0x20000000000040001, 66: 0x40000000000000009,
    67: 0x80000000000000027, 68: 0x100000000000000201,
    69: 0x200000000000000065, 70: 0x40000000000000002B,
    71: 0x800000000000000041, 72: 0x1000000000000000609,
    73: 0x2000000000002000001, 74: 0x4000000000800000001,
    75: 0x800000000000000004B, 76: 0x10000000000000200001,
    77: 0x20000000000000000065, 78: 0x40000000000000000069,
    79: 0x80000000000000000201, 80: 0x100000000000000000215,
    81: 0x200000000000000000011, 82: 0x40000000000000000010B,
    83: 0x800000000000000000095, 84: 0x1000000000000000000021,
    85: 0x2000000000000000000107, 86: 0x4000000000000000200001,
    87: 0x8000000000000000002001, 88: 0x100000000000000000000C5,
    89: 0x20000000000004000000001, 90: 0x40000000000000008000001,
    91: 0x80000000000000000000123, 92: 0x100000000000000000200001,
    93: 0x200000000000000000000005, 94: 0x400000000000000000200001,
    95: 0x800000000000000000000801, 96: 0x1000000000000000000000641,
    97: 0x2000000000000000000000041, 98: 0x4000000000000000000000801,
    99: 0x800000000000000000000004B, 100: 0x10000000000000000000008001,
    101: 0x200000000000000000000000C3, 102: 0x40000000000000000020000001,
    103: 0x80000000000000000000000201, 104: 0x10000000000000000000000001B,
    105: 0x200000000000000000000000011, 106: 0x400000000000000000000008001,
    107: 0x800000000000000000000000291, 108: 0x1000000000000000000000020001,
    109: 0x2000000000000000000000000035, 110: 0x4000000000000000000200000001,
    111: 0x8000000000000000000000000401, 112: 0x10000000000000000000000000039,
    113: 0x20000000000000000000000000201, 114: 0x4000000000000000000000000002D,
    115: 0x800000000000000000000000001A1, 116: 0x100000000000000000000000000017,
    117: 0x200000000000000000000000000027, 118: 0x400000000000000000000200000001,
    119: 0x800000000000000000000000000101, 120: 0x100000000000000000000000000001B,
    121: 0x2000000000000000000000000040001, 122: 0x4000000000000000000000000000047,
    123: 0x8000000000000000000000000000005, 124: 0x10000000000000000000000000080001,
    125: 0x200000000000000000000000000000E1, 126: 0x40000000000000000000000000200001,
    127: 0x80000000000000000000000000000003, 128: 0x100000000000000000000000000000087,
}
# fmt: on

# Degrees up to this multiply through log/antilog tables of 2^degree and
# 2(2^degree - 1) Python ints (0.33 MB at degree 12, 5.5 MB at 16, doubling
# per degree); above it, multiplies run through a 4-bit window. Digest
# vectors at these degrees also read uint32 numpy copies of the tables
# (log_arrays), 4 bytes an entry: 0.26 MB at degree 16.
_MUL_TABLE_MAX_DEGREE = 16


def _poly_mod(a: int, p: int) -> int:
    dp = p.bit_length()
    da = a.bit_length()
    while da >= dp:
        a ^= p << (da - dp)
        da = a.bit_length()
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _taps(poly: int, degree: int) -> list[int]:
    """Exponents of the terms of `poly` below x^degree, lowest first."""
    low, taps = poly ^ (1 << degree), []
    while low:
        taps.append((low & -low).bit_length() - 1)
        low &= low - 1
    return taps


def _reduce(r: int, degree: int, taps: list[int]) -> int:
    """r mod (x^degree + sum of x^e for e in taps). Each pass folds the bits
    at and above x^degree back onto the taps, all below degree; with the
    pinned polynomials' few low taps a product needs two or three passes."""
    mask = (1 << degree) - 1
    while hi := r >> degree:
        r &= mask
        for e in taps:
            r ^= hi << e
    return r


def _mul_by(k: int, degree: int, taps: list[int]):
    """A closure computing k*a: a carry-less product through a 4-bit window
    of 16 unreduced multiples of k, two lookups per byte of a, top byte
    first, then _reduce on the product of up to 2*degree - 1 bits."""
    window = [0]
    for bit in (k, k << 1, k << 2, k << 3):
        window += [w ^ bit for w in window]
    nbytes = (degree + 7) // 8

    def mul_by_k(a: int) -> int:
        r = 0
        for byte in a.to_bytes(nbytes, "big"):
            r = r << 8 ^ window[byte >> 4] << 4 ^ window[byte & 15]
        return _reduce(r, degree, taps)

    return mul_by_k


def _prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(poly: int) -> bool:
    """Whether `poly` (full mask, leading term included) is irreducible over GF(2).

    Uses the classic criterion: x^(2^d) == x mod poly, and for every prime
    divisor q of d, gcd(x^(2^(d/q)) - x, poly) == 1.
    """
    d = poly.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if not poly & 1:
        return False  # x divides it
    taps = _taps(poly, d)

    def square(t: int) -> int:
        # carry-less square: read the binary digits in base 4, so bit i lands on bit 2i
        return _reduce(int(format(t, "b"), 4), d, taps)

    t = 2  # the polynomial x
    for _ in range(d):
        t = square(t)
    if t != 2:
        return False
    for q in _prime_divisors(d):
        t = 2
        for _ in range(d // q):
            t = square(t)
        if _poly_gcd(t ^ 2, poly) != 1:
            return False
    return True


_SEARCH_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def reduction_poly(degree: int) -> int:
    """The pinned reduction polynomial for GF(2^degree) (full mask).

    Thread-safe: threads that miss the cache together wait for one search.
    """
    if degree < 1:
        raise ParameterError(f"degree must be >= 1, got {degree}")
    if degree in REDUCTION_POLY:
        return REDUCTION_POLY[degree]
    with _SEARCH_LOCK:
        return _search_reduction_poly(degree)


def _masks(bits: int, below: int):
    """Every int with `bits` set bits, all in [1, below), in increasing order."""
    if not bits:
        yield 0
        return
    for top in range(bits, below):
        for rest in _masks(bits - 1, top):
            yield rest | 1 << top


@lru_cache(maxsize=None)
def _search_reduction_poly(degree: int) -> int:
    # same rule as the frozen table: fewest terms, then smallest mask; the
    # masks of each weight come in increasing order, so the first hit wins
    ends = (1 << degree) | 1
    for weight in range(3, degree + 2, 2):
        for mids in _masks(weight - 2, degree):
            if is_irreducible(ends | mids):
                return ends | mids
    raise AssertionError("unreachable: some irreducible of each degree exists")


def gf_mul(a: int, b: int, degree: int, poly: int | None = None) -> int:
    """Product of a and b in GF(2^degree): 4-bit window, then sparse reduction."""
    if poly is None:
        poly = reduction_poly(degree)
    mask = (1 << degree) - 1
    if a < 0 or b < 0 or a > mask or b > mask:
        raise ParameterError("operand outside the field")
    return _mul_by(b, degree, _taps(poly, degree))(a)


def _log_tables(degree: int, poly: int) -> tuple[list[int], list[int]]:
    n = (1 << degree) - 1  # order of the multiplicative group
    taps = _taps(poly, degree)
    # the first g whose powers reach every nonzero element (1 at degree 1)
    for g in range(1, n + 1):
        mul_g = _mul_by(g, degree, taps)
        exp = [1]
        a = g
        while a != 1:
            exp.append(a)
            a = mul_g(a)
        if len(exp) == n:
            break
    log = [0] * (n + 1)
    for i, a in enumerate(exp):
        log[a] = i
    return exp + exp, log


class GF2:
    """Multiplication context for one degree.

    Degrees up to _MUL_TABLE_MAX_DEGREE multiply through log/antilog tables
    (built lazily, shared per process): a*b = exp[log a + log b], and
    fixed_mul(k) adds log k to log a. Larger degrees multiply as gf_mul
    does, through a 4-bit window of 16 unreduced multiples of one operand
    and a sparse reduction; fixed_mul(k), which the MAC uses, keeps k's.
    """

    _instances: dict[int, "GF2"] = {}

    def __init__(self, degree: int):
        self.degree = degree
        self.poly = reduction_poly(degree)
        self.order = 1 << degree
        self._taps = _taps(self.poly, degree)
        self._logs: tuple[list[int], list[int]] | None = None
        self._log_arrays = None

    @classmethod
    def get(cls, degree: int) -> "GF2":
        inst = cls._instances.get(degree)
        if inst is None:
            inst = cls._instances[degree] = cls(degree)
        return inst

    def log_tables(self) -> tuple[list[int], list[int]] | None:
        """(exp, log) for a primitive element g, or None above the table degree.

        exp[i] = g^i over 2(order-1) entries, so exp[log a + log b] needs no
        reduction mod order-1; log[a] = i with g^i = a for a != 0 (log[0] is
        a placeholder, and callers treat zero apart).
        """
        if self._logs is None and self.degree <= _MUL_TABLE_MAX_DEGREE:
            self._logs = _log_tables(self.degree, self.poly)
        return self._logs

    def log_arrays(self):
        """(exp3, log) as read-only uint32 numpy arrays, or None above the
        table degree. exp3[i] = g^(i mod (order-1)) over 3(order-1) entries,
        so a sum of three reduced logs needs no reduction; log is
        log_tables()'s. Built on first use; imports numpy."""
        if self._log_arrays is None and self.log_tables() is not None:
            import numpy as np

            exp, log = self._logs
            n = self.order - 1
            arrays = np.tile(np.array(exp[:n], np.uint32), 3), np.array(log, np.uint32)
            for a in arrays:
                a.flags.writeable = False
            self._log_arrays = arrays
        return self._log_arrays

    def mul_arrays(self, a, b):
        """Elementwise a*b for uint64 numpy arrays of field elements
        (broadcast), degree <= 32: a carry-less product of `degree`
        shift-and-XOR steps, under 2^63, then the fold through the taps
        that _reduce makes."""
        import numpy as np

        if self.degree > 32:
            raise ParameterError("array products need degree <= 32")
        r = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.uint64)
        zero, one = np.uint64(0), np.uint64(1)
        for t in map(np.uint64, range(self.degree)):
            r ^= (a << t) & (zero - (b >> t & one))
        return self.reduce_array(r)

    def reduce_array(self, r):
        """_reduce on a uint64 numpy array of carry-less products, in place."""
        import numpy as np

        degree, mask = np.uint64(self.degree), np.uint64(self.order - 1)
        while (hi := r >> degree).any():
            r &= mask
            for e in self._taps:
                r ^= hi << np.uint64(e)
        return r

    def _check(self, a: int) -> None:
        if a < 0 or a >= self.order:
            raise ParameterError("operand outside the field")

    def mul(self, a: int, b: int) -> int:
        tables = self.log_tables()
        if tables is None:
            return gf_mul(a, b, self.degree, self.poly)
        self._check(a)
        self._check(b)
        if not (a and b):
            return 0
        exp, log = tables
        return exp[log[a] + log[b]]

    def fixed_mul(self, k: int):
        """A closure computing k*a: two lookups per call up to the table
        degree; above it, k's 16-entry window is all the per-key setup, so a
        one-time MAC key costs about as much as one multiply.

        k is checked here. The closure trusts its operand a to be a field
        element, because its callers pass field elements: it is the
        innermost loop of every digest."""
        self._check(k)
        tables = self.log_tables()
        if tables is None:
            return _mul_by(k, self.degree, self._taps)
        exp, log = tables
        if not k:
            return lambda a: 0
        lk = log[k]
        return lambda a: exp[log[a] + lk] if a else 0
