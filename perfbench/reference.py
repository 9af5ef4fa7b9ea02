"""Straight-line GF(2^d) reference for checking the program's outputs.

Nothing here imports etdr. Digests and frame tags are recomputed from
the protocol definition with a plain shift-and-add multiply, so a fast
path in the program that drifts from the definition shows up as a
failed check, not as a faster benchmark.

Definitions (see the etdr README and module docstrings):

  * bit i of a field element is the coefficient of x^i;
  * a message of r bits splits into ceil(r/d) blocks of d bits, lowest
    bits first; its digest under key k is sum_i block_i * k^i;
  * a frame tag over GF(2^(2t)) is
        low_t(kh * digest_kh(header || sender role || payload)) XOR pad.
"""

from __future__ import annotations

# The reduction polynomials the protocol pins for the field degrees the
# workloads use (full masks, leading term included). Degree 280 is above
# the program's frozen table and comes from its deterministic search;
# pinning the result here also catches a change to that search.
REDUCTION_POLY = {
    8: 0x11B,
    12: 0x1009,
    64: 0x1000000000000001B,
    72: 0x1000000000000000609,
    280: (1 << 280) | 0x225,
}

FRAME_HEADER_BYTES = 23


def gf_mul(a: int, b: int, degree: int) -> int:
    """Product in GF(2^degree): carry-less multiply, then reduce."""
    poly = REDUCTION_POLY[degree]
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
    for shift in range(product.bit_length() - 1 - degree, -1, -1):
        if product >> (shift + degree) & 1:
            product ^= poly << shift
    return product


def blocks(value: int, bit_len: int, degree: int) -> list[int]:
    mask = (1 << degree) - 1
    return [(value >> (i * degree)) & mask for i in range(-(-bit_len // degree))]


def digest(key: int, value: int, bit_len: int, degree: int) -> int:
    """sum_i block_i * key^i, summed front block first with a running power."""
    acc, power = 0, 1
    for block in blocks(value, bit_len, degree):
        acc ^= gf_mul(block, power, degree)
        power = gf_mul(power, key, degree)
    return acc


def digest_vector(subkeys, value: int, bit_len: int, degree: int) -> list[int]:
    return [digest(k, value, bit_len, degree) for k in subkeys]


def decrypt_submission(payload: bytes, otp_bits: int, count: int, degree: int) -> list[int]:
    """Undo the one-time pad on a submitted digest vector and unpack it."""
    packed = int.from_bytes(payload, "little") ^ otp_bits
    return blocks(packed, count * degree, degree)


def frame_tag(raw: bytes, sender_role: int, hash_key: int, pad: int, tag_bits: int) -> int:
    """The authenticator a raw frame must carry, recomputed from its bytes."""
    payload_len = int.from_bytes(raw[18:22], "big")
    header = raw[:FRAME_HEADER_BYTES]
    payload = raw[FRAME_HEADER_BYTES : FRAME_HEADER_BYTES + payload_len]
    data = header + bytes([sender_role]) + payload
    degree = 2 * tag_bits
    inner = digest(hash_key, int.from_bytes(data, "little"), 8 * len(data), degree)
    shifted = gf_mul(hash_key, inner, degree)
    return (shifted & ((1 << tag_bits) - 1)) ^ pad


def carried_tag(raw: bytes) -> int:
    payload_len = int.from_bytes(raw[18:22], "big")
    return int.from_bytes(raw[FRAME_HEADER_BYTES + payload_len :], "little")
