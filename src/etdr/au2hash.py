"""Almost-universal hashing by polynomial evaluation over GF(2^l).

A message of r bits is split into c = ceil(r/l) blocks of l bits, front of
the bit-string first, final block zero-padded on its tail. Each block is
read as a field element (bit j of the block = coefficient of x^j) and the
digest for key k is

    block_1 + block_2 * k + ... + block_c * k^(c-1)

in GF(2^l). For two distinct messages of the same length the digests
collide for at most ceil(r/l - 1) of the 2^l keys, because the difference
is a nonzero polynomial in k of degree <= c-1. collision_bound() returns
that count divided by 2^l as an exact Fraction.

The digest is linear in the message over GF(2), so collision statistics
depend only on the XOR difference of a message pair; tests rely on this.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError
from .gf2field import GF2


def block_count(msg_bits: int, degree: int) -> int:
    if msg_bits < 1:
        raise ParameterError("message must contain at least one bit")
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    return -(-msg_bits // degree)


def chunk_blocks(value: int, msg_bits: int, degree: int) -> list[int]:
    """The block sequence hashed for this message, front block first."""
    c = block_count(msg_bits, degree)
    mask = (1 << degree) - 1
    return [(value >> (i * degree)) & mask for i in range(c)]


def collision_bound(msg_bits: int, degree: int) -> Fraction:
    """Max fraction of keys on which two distinct msg_bits-bit messages collide."""
    return Fraction(block_count(msg_bits, degree) - 1, 1 << degree)


def poly_hash(key: int, value: int, msg_bits: int, degree: int) -> int:
    """Digest of one message under one key (Horner on the reversed blocks)."""
    field = GF2.get(degree)
    if key < 0 or key >= field.order:
        raise ParameterError("key outside the field")
    blocks = chunk_blocks(value, msg_bits, degree)
    mul_k = field.fixed_mul(key)
    acc = 0
    for block in reversed(blocks):
        acc = mul_k(acc) ^ block
    return acc


class VectorHasher:
    """All-keys digest vector in one streaming pass over the message.

    update() consumes blocks front to back; digests() finalizes. The state
    is O(l) per key regardless of message length.

    Up to the field's log-table degree (16), each key is held as log k and
    update(b_i) XORs exp[log b_i + (i * log k mod (2^l - 1))] into the
    accumulator of every nonzero key: no field multiply, and a zero block
    costs nothing. A zero key's digest is the first block. Above degree 16
    each key keeps a running power k^i and its fixed_mul closure, and
    update(b_i) builds b_i's window once, then makes two window multiplies
    per key.
    """

    def __init__(self, degree: int, keys: list[int]):
        self.field = GF2.get(degree)
        self.degree = degree
        for k in keys:
            if k < 0 or k >= self.field.order:
                raise ParameterError("key outside the field")
        self.keys = list(keys)
        self._tables = self.field.log_tables()
        if self._tables is None:
            self._acc = [0] * len(keys)
            self._kpow = [1] * len(keys)
            self._mul_k = [self.field.fixed_mul(k) for k in keys]
        else:
            log = self._tables[1]
            self._logk = [log[k] for k in keys if k]
            self._acc = [0] * len(self._logk)
            self._first = 0
            self._index = 0
        self._done = False

    def update(self, block: int) -> None:
        if self._done:
            raise ParameterError("hasher already finalized")
        if block < 0 or block >= self.field.order:
            raise ParameterError("block outside the field")
        if self._tables is None:
            acc, kpow = self._acc, self._kpow
            mul_b = self.field.fixed_mul(block)
            for j, mul_k in enumerate(self._mul_k):
                acc[j] ^= mul_b(kpow[j])
                kpow[j] = mul_k(kpow[j])
            return
        i = self._index
        self._index = i + 1
        if not block:
            return
        if not i:
            self._first = block
        exp, log = self._tables
        n = self.field.order - 1
        lb, i = log[block], i % n
        self._acc = [a ^ exp[lb + i * lk % n] for a, lk in zip(self._acc, self._logk)]

    def digests(self) -> list[int]:
        self._done = True
        if self._tables is None:
            return list(self._acc)
        nonzero = iter(self._acc)
        return [next(nonzero) if k else self._first for k in self.keys]


def hash_vector(keys: list[int], value: int, msg_bits: int, degree: int) -> list[int]:
    """Digests of one message under every key, single pass over the message."""
    hasher = VectorHasher(degree, keys)
    for block in chunk_blocks(value, msg_bits, degree):
        hasher.update(block)
    return hasher.digests()
