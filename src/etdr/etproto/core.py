"""Pure round logic: digest vectors, pad encryption, verdict rules.

Nothing here touches the wire or any state; the transport runners and the
adversarial harness both call into these functions so they cannot drift
apart.
"""

from __future__ import annotations

from enum import IntEnum

from ..bits import Message
from ..au2hash import hash_vector
from ..errors import ParameterError, ProtocolStateError
from ..params import Params

# announce codes, 2 semantic bits each
ET_EQUAL = 0
ET_DISTINCT = 1


class Verdict(IntEnum):
    """Dispute ruling. BOTH_CONSISTENT means the revealed data agreed."""

    BOTH_CONSISTENT = 0
    ALICE_CORRECT = 1
    BOB_CORRECT = 2
    UNDECIDABLE = 3


def _check_message(params: Params, message: Message) -> None:
    if message.bit_len != params.data_bits:
        raise ParameterError(
            f"message is {message.bit_len} bits, protocol fixed {params.data_bits}"
        )


def hash_vector_for(
    params: Params, subkeys: tuple[int, ...], message: Message
) -> tuple[int, ...]:
    """Digest of the message under every one of the party's N subkeys."""
    _check_message(params, message)
    if len(subkeys) != params.subkey_count:
        raise ParameterError("wrong number of subkeys")
    return tuple(
        hash_vector(list(subkeys), message.value, params.data_bits, params.subkey_bits)
    )


def pack_vector(params: Params, vec: tuple[int, ...]) -> int:
    """Digest j occupies bits [j*l, (j+1)*l) of the packed integer."""
    l = params.subkey_bits
    if len(vec) != params.subkey_count:
        raise ParameterError("wrong vector length")
    packed = 0
    for j, digest in enumerate(vec):
        if not 0 <= digest < (1 << l):
            raise ParameterError("digest outside the field")
        packed |= digest << (j * l)
    return packed


def unpack_vector(params: Params, packed: int) -> tuple[int, ...]:
    l = params.subkey_bits
    if not 0 <= packed < (1 << params.digest_vector_bits):
        raise ParameterError("packed vector outside its width")
    mask = (1 << l) - 1
    return tuple((packed >> (j * l)) & mask for j in range(params.subkey_count))


def encrypt_vector(params: Params, vec: tuple[int, ...], otp_bits: int) -> int:
    """One-time-pad the packed digest vector; consumes the whole pad."""
    if not 0 <= otp_bits < (1 << params.digest_vector_bits):
        raise ParameterError("pad outside its width")
    return pack_vector(params, vec) ^ otp_bits


def decrypt_vector(params: Params, blob: int, otp_bits: int) -> tuple[int, ...]:
    if not 0 <= blob < (1 << params.digest_vector_bits):
        raise ParameterError("ciphertext outside its width")
    if not 0 <= otp_bits < (1 << params.digest_vector_bits):
        raise ParameterError("pad outside its width")
    return unpack_vector(params, blob ^ otp_bits)


def et_compare(
    params: Params,
    shared_indices: tuple[int, ...],
    vec_a: tuple[int, ...],
    vec_b: tuple[int, ...],
) -> int:
    """ET_EQUAL iff the two vectors agree on every overlap position."""
    if len(vec_a) != params.subkey_count or len(vec_b) != params.subkey_count:
        raise ParameterError("wrong vector length")
    equal = all(vec_a[j] == vec_b[j] for j in shared_indices)
    return ET_EQUAL if equal else ET_DISTINCT


def count_matches(
    params: Params, fresh_vec: tuple[int, ...], submitted_vec: tuple[int, ...]
) -> int:
    """How many positions of a freshly hashed vector equal the submitted one."""
    if len(submitted_vec) != params.subkey_count:
        raise ParameterError("wrong vector length")
    return sum(1 for a, b in zip(fresh_vec, submitted_vec) if a == b)


def match_count(
    params: Params,
    subkeys: tuple[int, ...],
    message: Message,
    submitted_vec: tuple[int, ...],
) -> int:
    """How many of the N digests of `message` equal the submitted ones."""
    return count_matches(params, hash_vector_for(params, subkeys, message), submitted_vec)


def dispute_counts(
    params: Params,
    subkeys_a: tuple[int, ...],
    subkeys_b: tuple[int, ...],
    claim_a: Message,
    claim_b: Message,
    vec_a: tuple[int, ...],
    vec_b: tuple[int, ...],
) -> tuple[int, int, int, int]:
    """(count_aa, count_ab, count_ba, count_bb) for dr_verdict: each claim
    is hashed once, under Alice's and Bob's subkeys together."""
    n = params.subkey_count
    if len(subkeys_a) != n or len(subkeys_b) != n:
        raise ParameterError("wrong number of subkeys")
    keys = [*subkeys_a, *subkeys_b]
    counts = []
    for claim in (claim_a, claim_b):
        _check_message(params, claim)
        fresh = hash_vector(keys, claim.value, params.data_bits, params.subkey_bits)
        counts.append(
            (count_matches(params, fresh[:n], vec_a), count_matches(params, fresh[n:], vec_b))
        )
    (count_aa, count_ba), (count_ab, count_bb) = counts
    return count_aa, count_ab, count_ba, count_bb


def dr_verdict(
    params: Params,
    claim_a: Message,
    claim_b: Message,
    count_aa: int,
    count_ab: int,
    count_ba: int,
    count_bb: int,
) -> Verdict:
    """Rule on a dispute from the four digest match counts.

    count_xy = how many of party x's submitted digests match party y's
    revealed data under x's subkeys. A party whose own data reproduces its
    entire submission (count_xx == N) wins if the other side corroborates
    its data more than its own (count cross-comparison), or if the other
    side's own submission does not survive its own revealed data.
    """
    _check_message(params, claim_a)
    _check_message(params, claim_b)
    big_n = params.subkey_count
    for c in (count_aa, count_ab, count_ba, count_bb):
        if not 0 <= c <= big_n:
            raise ParameterError("match count out of range")

    if claim_a.value == claim_b.value:
        return Verdict.BOTH_CONSISTENT

    a_wins = count_aa == big_n and (count_ba > count_ab or count_bb < big_n)
    b_wins = count_bb == big_n and (count_ab > count_ba or count_aa < big_n)
    if a_wins and b_wins:
        # impossible by case analysis; a hit means corrupted state
        raise ProtocolStateError("dispute rules fired for both parties")
    if a_wins:
        return Verdict.ALICE_CORRECT
    if b_wins:
        return Verdict.BOB_CORRECT
    return Verdict.UNDECIDABLE
