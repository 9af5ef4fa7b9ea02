"""Pure round logic: digest vectors, pad encryption, verdict rules.

A digest vector is one int of N*l bits from the hasher to the verdict,
digest j at bits [j*l, (j+1)*l) (bits.pack_lanes), and each check on it
is integer arithmetic: an XOR with the pad, a mask, a zero-lane count.

Nothing here touches the wire or any state. The referee and the
adversarial game both rule on a dispute through dr_verdict, each passing
its own reader of digest vectors, so the two rulings cannot drift apart.
The ruling reads each claim under its own party's subkeys first, and the
claims' difference under both parties' only when both reproduce their
submissions: a dispute usually means one party changed its data.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import IntEnum
from functools import lru_cache

from ..bits import Message
from ..au2hash import hash_vector
from ..errors import ParameterError
from ..params import Params

# announce codes, 2 semantic bits each
ET_EQUAL = 0
ET_DISTINCT = 1


# read(subkeys, message): the packed digest vector of message under subkeys
VectorReader = Callable[[tuple[int, ...], Message], int]


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


def hash_vector_for(params: Params, subkeys: tuple[int, ...], message: Message) -> int:
    """The packed digests of the message under the party's N subkeys."""
    _check_message(params, message)
    if len(subkeys) != params.subkey_count:
        raise ParameterError("wrong number of subkeys")
    return hash_vector(list(subkeys), message.value, params.data_bits, params.subkey_bits)


def _check_width(params: Params, value: int) -> None:
    if value >> params.digest_vector_bits:  # a negative value shifts to -1
        raise ParameterError("digest vector or pad outside its width")


def encrypt_vector(params: Params, vec: int, otp_bits: int) -> int:
    """One-time-pad the packed digest vector; consumes the whole pad."""
    _check_width(params, vec | otp_bits)
    return vec ^ otp_bits


decrypt_vector = encrypt_vector  # the same XOR takes the pad off


def et_compare(params: Params, shared_indices: tuple[int, ...], vec_a: int, vec_b: int) -> int:
    """ET_EQUAL iff the two vectors agree on every overlap lane."""
    _check_width(params, vec_a | vec_b)
    overlap = _overlap_mask(params.subkey_bits, tuple(shared_indices))
    return ET_DISTINCT if (vec_a ^ vec_b) & overlap else ET_EQUAL


@lru_cache(maxsize=64)
def _overlap_mask(subkey_bits: int, shared_indices: tuple[int, ...]) -> int:
    """Every bit of the overlap's lanes, built once per overlap: a session
    compares once under its overlap, the game many times under each of a
    few."""
    lane, mask = (1 << subkey_bits) - 1, 0
    for j in shared_indices:
        mask |= lane << j * subkey_bits
    return mask


@lru_cache(maxsize=64)
def _lane_bits(subkey_bits: int, subkey_count: int) -> tuple[int, int]:
    """(high, low): the top bit of every lane, and every lane's other bits."""
    ones = ((1 << subkey_bits * subkey_count) - 1) // ((1 << subkey_bits) - 1)
    return ones << subkey_bits - 1, ones * ((1 << subkey_bits - 1) - 1)


def count_matches(params: Params, fresh_vec: int, submitted_vec: int) -> int:
    """How many lanes of a freshly hashed vector equal the submitted one:
    the zero lanes of x = fresh ^ submitted (Warren, Hacker's Delight,
    6-1). A lane's low bits plus all ones below its top bit set that bit
    iff they are nonzero, and cannot carry out of the lane."""
    _check_width(params, fresh_vec | submitted_vec)
    high, low = _lane_bits(params.subkey_bits, params.subkey_count)
    x = fresh_vec ^ submitted_vec
    return params.subkey_count - ((((x & low) + low) | x) & high).bit_count()


def match_count(
    params: Params, subkeys: tuple[int, ...], message: Message, submitted_vec: int
) -> int:
    """How many of the N digests of `message` equal the submitted ones."""
    return count_matches(params, hash_vector_for(params, subkeys, message), submitted_vec)


def dr_verdict(
    params: Params,
    claim_a: Message,
    claim_b: Message,
    vec_a: int,
    vec_b: int,
    subkeys_a: tuple[int, ...],
    subkeys_b: tuple[int, ...],
    read: VectorReader,
) -> Verdict:
    """Rule on a dispute from both claims and both submitted vectors.

    read(subkeys, message) is the packed digest vector of `message` under
    `subkeys`. count_xy = how many of party x's submitted digests match
    party y's claim under x's subkeys. A party whose own claim reproduces
    its entire submission (count_xx == N) wins if the other's does not, or
    if both do and the other side corroborates its claim more than the
    other's own (count cross-comparison).

    The reads follow the rule. Equal claims read nothing; then each claim
    is read under its own party's N subkeys. Only when both parties
    reproduce their submissions, so that vec_x is claim x's digest vector,
    is the claims' XOR difference read, once under both key lists: the
    digest is GF(2)-linear, so count_xy is the zero lanes of x's half.
    """
    _check_message(params, claim_a)
    _check_message(params, claim_b)
    big_n = params.subkey_count
    if len(subkeys_a) != big_n or len(subkeys_b) != big_n:
        raise ParameterError("wrong number of subkeys")
    _check_width(params, vec_a | vec_b)

    if claim_a.value == claim_b.value:
        return Verdict.BOTH_CONSISTENT

    a_reproduces = count_matches(params, read(subkeys_a, claim_a), vec_a) == big_n
    b_reproduces = count_matches(params, read(subkeys_b, claim_b), vec_b) == big_n
    if a_reproduces != b_reproduces:
        return Verdict.ALICE_CORRECT if a_reproduces else Verdict.BOB_CORRECT
    if not a_reproduces:
        return Verdict.UNDECIDABLE
    difference = Message(claim_a.value ^ claim_b.value, params.data_bits)
    cross = read((*subkeys_a, *subkeys_b), difference)
    width = params.digest_vector_bits
    count_ab = count_matches(params, cross & (1 << width) - 1, 0)
    count_ba = count_matches(params, cross >> width, 0)
    if count_ba > count_ab:
        return Verdict.ALICE_CORRECT
    if count_ab > count_ba:
        return Verdict.BOB_CORRECT
    return Verdict.UNDECIDABLE
