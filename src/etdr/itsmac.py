"""Information-theoretic one-time message authentication.

Tags are tag_bits long. A MacKey couples a hash key kh, an element of the
double-width field GF(2^(2*tag_bits)), with a fresh tag_bits-bit pad:

    tag = low_tag_bits( kh * poly_hash(kh, message) ) XOR pad

where the hash runs over blocks of 2*tag_bits bits. Multiplying the digest
by kh once more removes the key-independent constant coefficient, and the
low-bits truncation is GF(2)-linear, so for any two distinct inputs and any
target difference the tag difference matches on at most
ceil(input_bits / (2*tag_bits)) * 2^-tag_bits of the hash keys. The pad
hides the digest completely, which is what lets one hash key serve several
rounds as long as every round uses a fresh pad. A MacKey refuses a second
use of itself only: the runners build one per sign and verify, so a
session's single use of each pad rests on the runners' ledger of spent
outbound pads and on freezing at the first failed check of an inbound one
(ROADMAP item 12).

kh * poly_hash(kh, m) is poly_hash over m with one zero block in front,
so a tag is one poly_hash call, and its kernel follows the MAC field's
degree (see au2hash): log tables for tag_bits up to 8, bit-spread
integer products for 9 to 127 (degree 64 at eps = 2^-4), and the 4-bit
window from 128 on (degree 280 at eps = 2^-40).

forgery_bound() is the coarser budget formula the rest of the suite quotes,
ceil(msg_bits/tag_bits - 1) * 2^-tag_bits; the construction's own bound,
construction_forgery_bound(), is at least as small whenever
msg_bits > tag_bits, and tests verify both against an exhaustive game.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import KeyMaterialError, ParameterError
from .au2hash import block_count, collision_bound, poly_hash
from .bits import bytes_to_bits


class MacKey:
    """One round's authentication key: shared hash key plus a one-shot pad."""

    def __init__(self, hash_key: int, pad: int, tag_bits: int):
        if tag_bits < 1:
            raise ParameterError("tag must contain at least one bit")
        if hash_key < 0 or hash_key.bit_length() > 2 * tag_bits:
            raise ParameterError("hash key must lie in GF(2^(2*tag_bits))")
        if pad < 0 or pad.bit_length() > tag_bits:
            raise ParameterError("pad must be tag_bits wide")
        self.hash_key = hash_key
        self.pad = pad
        self.tag_bits = tag_bits
        self._consumed = False

    def _burn(self) -> None:
        if self._consumed:
            raise KeyMaterialError("MacKey already used; a pad authenticates one message")
        self._consumed = True


def _tag_core(key: MacKey, value: int, bit_len: int) -> int:
    # kh * H(kh, m) is H over m with one zero block in front
    degree = 2 * key.tag_bits
    digest = poly_hash(key.hash_key, value << degree, bit_len + degree, degree)
    return (digest & ((1 << key.tag_bits) - 1)) ^ key.pad


def mac_tag_bits(key: MacKey, value: int, bit_len: int) -> int:
    """Tag for a raw bit-string; consumes the key."""
    key._burn()
    return _tag_core(key, value, bit_len)


def mac_verify_bits(key: MacKey, value: int, bit_len: int, tag: int) -> bool:
    """Check a tag against a raw bit-string; consumes the key either way."""
    key._burn()
    return _tag_core(key, value, bit_len) == tag


def mac_tag(key: MacKey, message: bytes) -> int:
    return mac_tag_bits(key, bytes_to_bits(message), 8 * len(message))


def mac_verify(key: MacKey, message: bytes, tag: int) -> bool:
    return mac_verify_bits(key, bytes_to_bits(message), 8 * len(message), tag)


def forgery_bound(msg_bits: int, tag_bits: int) -> Fraction:
    """Budget formula quoted by the protocol: ceil(msg_bits/tag_bits - 1) * 2^-tag_bits."""
    return collision_bound(msg_bits, tag_bits)


def construction_forgery_bound(msg_bits: int, tag_bits: int) -> Fraction:
    """What the implemented construction actually guarantees per substitution."""
    return Fraction(block_count(msg_bits, 2 * tag_bits), 1 << tag_bits)
