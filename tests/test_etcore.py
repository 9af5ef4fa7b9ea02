"""Round logic: vectors, pad encryption, comparison, dispute rules."""

import random
from fractions import Fraction
from itertools import product

import pytest

from etdr.au2hash import hash_vector, poly_hash
from etdr.bits import Message, pack_lanes, unpack_lanes
from etdr.errors import ParameterError
from etdr.etproto import core
from etdr.etproto.core import Verdict
from etdr.etproto.keys import generate_keys
from etdr.params import derive_params, experimental_params
from oracles import count_matches_oracle, dr_verdict_oracle, pack_digests, unpack_digests

PARAMS = derive_params(256, Fraction(1, 16))
TINY = experimental_params(data_bits=6, shared_count=3, subkey_bits=3)


def rand_message(rng, params):
    return Message(rng.getrandbits(params.data_bits), params.data_bits)


# ------------------------------------------------------------- vectors


def test_pack_lanes_worked_example():
    # digests (1, 2, 3, 0) -> 0b..._11_10_01 = 1 + 8 + 48
    assert pack_lanes((1, 2, 3, 0), 2) == 57
    assert unpack_lanes(57, 2, 4) == (1, 2, 3, 0)


def test_pack_unpack_round_trip():
    rng = random.Random(0)
    l, big_n = PARAMS.subkey_bits, PARAMS.subkey_count
    for _ in range(50):
        vec = tuple(rng.getrandbits(l) for _ in range(big_n))
        assert pack_lanes(vec, l) == pack_digests(vec, l)
        assert unpack_lanes(pack_lanes(vec, l), l, big_n) == vec


def test_byte_lanes_match_the_oracle():
    # width 8, the lanes of every derived session at r = 256, at every
    # count from 1 to 600 lanes: random bytes with both extremes mixed in
    rng = random.Random(8)
    for count in range(1, 601):
        lanes = [rng.choice((0, 255, rng.getrandbits(8))) for _ in range(count)]
        packed = pack_lanes(lanes, 8)
        assert packed == pack_digests(lanes, 8)
        assert pack_lanes(tuple(lanes), 8) == pack_lanes(bytes(lanes), 8) == packed
        assert list(unpack_lanes(packed, 8, count)) == unpack_digests(packed, 8, count)
        assert unpack_lanes(packed, 8, count) == tuple(lanes)
        for bad in (-1, -packed - 1, 1 << 8 * count, packed | 1 << 8 * count):
            with pytest.raises(ParameterError):
                unpack_lanes(bad, 8, count)


def test_vector_width_checks():
    width = TINY.digest_vector_bits
    for bad in (-1, 1 << width):
        with pytest.raises(ParameterError):
            core.encrypt_vector(TINY, bad, 0)
        with pytest.raises(ParameterError):
            core.encrypt_vector(TINY, 0, bad)  # the pad
        with pytest.raises(ParameterError):
            core.decrypt_vector(TINY, bad, 0)
        with pytest.raises(ParameterError):
            core.et_compare(TINY, (0, 1, 2), 0, bad)
        with pytest.raises(ParameterError):
            core.count_matches(TINY, bad, 0)
        with pytest.raises(ParameterError):
            unpack_lanes(bad, TINY.subkey_bits, TINY.subkey_count)


def test_encrypt_decrypt_round_trip():
    rng = random.Random(1)
    sec = generate_keys(PARAMS, seed=11)
    for _ in range(20):
        m = rand_message(rng, PARAMS)
        vec = core.hash_vector_for(PARAMS, sec.alice.subkeys, m)
        blob = core.encrypt_vector(PARAMS, vec, sec.alice.otp_bits)
        assert blob == vec ^ sec.alice.otp_bits
        assert core.decrypt_vector(PARAMS, blob, sec.alice.otp_bits) == vec


def test_hash_vector_matches_scalar_hash():
    rng = random.Random(2)
    sec = generate_keys(TINY, seed=3)
    m = rand_message(rng, TINY)
    vec = core.hash_vector_for(TINY, sec.bob.subkeys, m)
    want = [poly_hash(k, m.value, TINY.data_bits, TINY.subkey_bits) for k in sec.bob.subkeys]
    assert vec == pack_digests(want, TINY.subkey_bits)


def test_hash_vector_rejects_wrong_length_message():
    sec = generate_keys(PARAMS, seed=11)
    with pytest.raises(ParameterError):
        core.hash_vector_for(PARAMS, sec.alice.subkeys, Message(1, 255))


# ---------------------------------------------------------- comparison


def test_equal_data_always_compares_equal():
    rng = random.Random(3)
    for seed in range(10):
        sec = generate_keys(PARAMS, seed=seed)
        m = rand_message(rng, PARAMS)
        va = core.hash_vector_for(PARAMS, sec.alice.subkeys, m)
        vb = core.hash_vector_for(PARAMS, sec.bob.subkeys, m)
        assert core.et_compare(PARAMS, sec.shared_indices, va, vb) == core.ET_EQUAL


def test_distinct_data_compares_distinct():
    # chance of a false EQUAL here is below (31/256)^24; treat as zero
    rng = random.Random(4)
    for seed in range(20):
        sec = generate_keys(PARAMS, seed=seed)
        m_a = rand_message(rng, PARAMS)
        m_b = Message(m_a.value ^ (1 << rng.randrange(256)), 256)
        va = core.hash_vector_for(PARAMS, sec.alice.subkeys, m_a)
        vb = core.hash_vector_for(PARAMS, sec.bob.subkeys, m_b)
        assert core.et_compare(PARAMS, sec.shared_indices, va, vb) == core.ET_DISTINCT


def test_compare_ignores_positions_outside_overlap():
    sec = generate_keys(PARAMS, seed=6)
    m = Message(123456789, 256)
    l = PARAMS.subkey_bits
    va = core.hash_vector_for(PARAMS, sec.alice.subkeys, m)
    vb = core.hash_vector_for(PARAMS, sec.bob.subkeys, m)
    outside = [j for j in range(PARAMS.subkey_count) if j not in sec.shared_indices]
    for j in outside:
        vb ^= 0xFF << j * l
    assert core.et_compare(PARAMS, sec.shared_indices, va, vb) == core.ET_EQUAL
    inside = sec.shared_indices[0]
    vb ^= 1 << inside * l
    assert core.et_compare(PARAMS, sec.shared_indices, va, vb) == core.ET_DISTINCT


def overlap_mask_loop(l, shared):
    """The overlap mask as et_compare first built it, one lane at a time."""
    mask = 0
    for j in shared:
        mask |= ((1 << l) - 1) << j * l
    return mask


@pytest.mark.parametrize("l", [2, 8, 12, 18])
def test_compare_masks_the_overlap_as_the_lane_loop_does(l):
    # one mask per (lane width, overlap), however the calls interleave
    rng = random.Random(l)
    for n in (1, 3, 24, 132):
        params, big_n = experimental_params(8, n, l), 2 * n
        for _ in range(10):
            shared = tuple(sorted(rng.sample(range(big_n), n)))
            assert core._overlap_mask(l, shared) == overlap_mask_loop(l, shared)
            assert core._overlap_mask(1, shared) == overlap_mask_loop(1, shared)
            vec = rng.getrandbits(big_n * l)
            for j in (rng.choice(shared), rng.randrange(big_n)):
                flipped = vec ^ 1 << j * l + rng.randrange(l)
                want = core.ET_DISTINCT if overlap_mask_loop(l, shared) >> j * l & 1 else core.ET_EQUAL
                assert core.et_compare(params, shared, vec, flipped) == want
                assert core.et_compare(params, list(shared), flipped, vec) == want
            assert core.et_compare(params, shared, vec, vec) == core.ET_EQUAL


# ------------------------------------------------------- match counts


def test_match_count_honest_is_full():
    rng = random.Random(7)
    sec = generate_keys(PARAMS, seed=7)
    m = rand_message(rng, PARAMS)
    vec = core.hash_vector_for(PARAMS, sec.alice.subkeys, m)
    assert core.match_count(PARAMS, sec.alice.subkeys, m, vec) == PARAMS.subkey_count


def test_match_count_sees_single_flip():
    rng = random.Random(8)
    sec = generate_keys(PARAMS, seed=8)
    m = rand_message(rng, PARAMS)
    vec = core.hash_vector_for(PARAMS, sec.alice.subkeys, m)
    vec ^= 1 << 17 * PARAMS.subkey_bits
    assert core.match_count(PARAMS, sec.alice.subkeys, m, vec) == PARAMS.subkey_count - 1


# ------------------------------------------------------------ verdicts


def tiny_read(keys, claim):
    return hash_vector(keys, claim.value, TINY.data_bits, TINY.subkey_bits)


def no_read(keys, claim):
    raise AssertionError("equal claims read no digest vector")


def tiny_dispute(count_aa, count_ab, count_ba, count_bb):
    """(claim_a, claim_b, vec_a, vec_b, subkeys_a, subkeys_b) at TINY with
    exactly these match counts; count_xy = how many of party x's
    submitted digests match party y's claim under x's subkeys.

    Under a root of the claims' difference both claims hash alike, so a
    lane there counts for both claims; under any other key a lane counts
    for one claim, the other, or neither. Each party holds
    max(0, own + cross - N) root subkeys and the rest one non-root."""
    r, l, big_n = TINY.data_bits, TINY.subkey_bits, TINY.subkey_count
    claim_a, claim_b = Message(5, r), Message(5 ^ 0b001010, r)
    difference = claim_a.value ^ claim_b.value
    root = next(k for k in range(1 << l) if poly_hash(k, difference, r, l) == 0)
    other = next(k for k in range(1 << l) if poly_hash(k, difference, r, l) != 0)

    def party(own_claim, cross_claim, own, cross):
        both = max(0, own + cross - big_n)
        keys = (root,) * both + (other,) * (big_n - both)
        lanes = []
        for j, k in enumerate(keys):
            mine, theirs = (poly_hash(k, c.value, r, l) for c in (own_claim, cross_claim))
            neither = min(set(range(1 << l)) - {mine, theirs})
            lanes.append(mine if j < own else theirs if j < own + cross - both else neither)
        return keys, pack_digests(lanes, l)

    keys_a, vec_a = party(claim_a, claim_b, count_aa, count_ab)
    keys_b, vec_b = party(claim_b, claim_a, count_bb, count_ba)
    return claim_a, claim_b, vec_a, vec_b, keys_a, keys_b


def test_verdict_equal_claims_win_first():
    big_n = TINY.subkey_count
    # the equal-claims rule fires before any digest is read
    for counts in ((0, 0, 0, 0), (big_n,) * 4):
        claim_a, _, vec_a, vec_b, keys_a, keys_b = tiny_dispute(*counts)
        assert (
            core.dr_verdict(TINY, claim_a, claim_a, vec_a, vec_b, keys_a, keys_b, no_read)
            == Verdict.BOTH_CONSISTENT
        )


def test_verdict_rule_table():
    big_n = TINY.subkey_count

    def verdict(*counts):
        return core.dr_verdict(TINY, *tiny_dispute(*counts), tiny_read)

    # self-consistent A, B's own submission fails its revealed data
    assert verdict(big_n, 0, 0, big_n - 1) == Verdict.ALICE_CORRECT
    # both self-consistent, B corroborates A's data strictly more
    assert verdict(big_n, 1, 2, big_n) == Verdict.ALICE_CORRECT
    # mirror cases
    assert verdict(big_n - 1, 0, 0, big_n) == Verdict.BOB_CORRECT
    assert verdict(big_n, 2, 1, big_n) == Verdict.BOB_CORRECT
    # both self-consistent, cross counts tie: nothing to rule on
    assert verdict(big_n, 1, 1, big_n) == Verdict.UNDECIDABLE
    # neither self-consistent
    assert verdict(0, 0, 0, 0) == Verdict.UNDECIDABLE


def test_verdict_matches_the_four_count_rule_on_every_count():
    big_n, r, l = TINY.subkey_count, TINY.data_bits, TINY.subkey_bits
    for counts in product(range(big_n + 1), repeat=4):
        claim_a, claim_b, vec_a, vec_b, keys_a, keys_b = tiny_dispute(*counts)
        built = tuple(
            count_matches_oracle(
                [poly_hash(k, claim.value, r, l) for k in keys], unpack_digests(vec, l, big_n)
            )
            for keys, vec, claim in (
                (keys_a, vec_a, claim_a),
                (keys_a, vec_a, claim_b),
                (keys_b, vec_b, claim_a),
                (keys_b, vec_b, claim_b),
            )
        )
        assert built == counts
        reads = []

        def read(keys, claim):
            reads.append(len(keys))
            return tiny_read(keys, claim)

        want = dr_verdict_oracle(claim_a, claim_b, big_n, *counts)
        got = core.dr_verdict(TINY, claim_a, claim_b, vec_a, vec_b, keys_a, keys_b, read)
        assert got == want, counts
        # the cross counts are read only when both parties reproduce
        both = counts[0] == counts[3] == big_n
        assert reads == ([big_n, big_n, 2 * big_n] if both else [big_n, big_n])
        assert (
            core.dr_verdict(TINY, claim_b, claim_b, vec_a, vec_b, keys_a, keys_b, no_read)
            == dr_verdict_oracle(claim_b, claim_b, big_n, *counts)
            == Verdict.BOTH_CONSISTENT
        )


def test_verdict_validates_inputs():
    big_n = TINY.subkey_count
    claim_a, claim_b, vec_a, vec_b, keys_a, keys_b = tiny_dispute(big_n, 1, 1, big_n)
    with pytest.raises(ParameterError):  # a subkey beyond N
        core.dr_verdict(TINY, claim_a, claim_b, vec_a, vec_b, (*keys_a, 0), keys_b, tiny_read)
    with pytest.raises(ParameterError):  # short claim
        core.dr_verdict(TINY, Message(1, 5), claim_b, vec_a, vec_b, keys_a, keys_b, tiny_read)
    width = TINY.digest_vector_bits
    for claim in (claim_a, claim_b):  # submission too wide, equal claims or not
        with pytest.raises(ParameterError):
            core.dr_verdict(TINY, claim_a, claim, vec_a, vec_b | 1 << width, keys_a, keys_b,
                          tiny_read)

    def past_2n_lanes(keys, claim):
        return tiny_read(keys, claim) | (len(keys) > big_n) << 2 * width

    with pytest.raises(ParameterError):  # difference vector past 2N lanes
        core.dr_verdict(TINY, claim_a, claim_b, vec_a, vec_b, keys_a, keys_b, past_2n_lanes)


# -------------------------------------------------- dispute end to end


def test_dispute_blames_the_liar_both_directions():
    rng = random.Random(9)
    big_n = PARAMS.subkey_count
    for seed in range(10):
        sec = generate_keys(PARAMS, seed=100 + seed)
        m_true = rand_message(rng, PARAMS)
        m_lie = Message(m_true.value ^ (1 << rng.randrange(256)), 256)

        va = core.hash_vector_for(PARAMS, sec.alice.subkeys, m_true)
        vb = core.hash_vector_for(PARAMS, sec.bob.subkeys, m_true)
        keys = (sec.alice.subkeys, sec.bob.subkeys)
        reads = []

        def read(subkeys, claim):
            reads.append(len(subkeys))
            return hash_vector(subkeys, claim.value, PARAMS.data_bits, PARAMS.subkey_bits)

        # Bob reveals a different message than the one behind his submission
        counts = (
            core.match_count(PARAMS, sec.alice.subkeys, m_true, va),
            core.match_count(PARAMS, sec.alice.subkeys, m_lie, va),
            core.match_count(PARAMS, sec.bob.subkeys, m_true, vb),
            core.match_count(PARAMS, sec.bob.subkeys, m_lie, vb),
        )
        assert dr_verdict_oracle(m_true, m_lie, big_n, *counts) == Verdict.ALICE_CORRECT
        assert core.dr_verdict(PARAMS, m_true, m_lie, va, vb, *keys, read) == Verdict.ALICE_CORRECT
        # the referee reads each claim once, under its own party's subkeys
        assert reads == [big_n, big_n]

        # same session, roles swapped
        counts = (
            core.match_count(PARAMS, sec.alice.subkeys, m_lie, va),
            core.match_count(PARAMS, sec.alice.subkeys, m_true, va),
            core.match_count(PARAMS, sec.bob.subkeys, m_lie, vb),
            core.match_count(PARAMS, sec.bob.subkeys, m_true, vb),
        )
        reads.clear()
        assert dr_verdict_oracle(m_lie, m_true, big_n, *counts) == Verdict.BOB_CORRECT
        assert core.dr_verdict(PARAMS, m_lie, m_true, va, vb, *keys, read) == Verdict.BOB_CORRECT
        assert reads == [big_n, big_n]
