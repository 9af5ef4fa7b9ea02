"""Round logic: vectors, pad encryption, comparison, dispute rules."""

import random
from fractions import Fraction

import pytest

from etdr import etproto as ep
from etdr.au2hash import poly_hash
from etdr.bits import Message
from etdr.errors import ParameterError
from etdr.etproto import Verdict
from etdr.params import derive_params, experimental_params

PARAMS = derive_params(256, Fraction(1, 16))
TINY = experimental_params(data_bits=6, shared_count=3, subkey_bits=3)


def rand_message(rng, params):
    return Message(rng.getrandbits(params.data_bits), params.data_bits)


# ------------------------------------------------------------- vectors


def test_pack_vector_worked_example():
    p = experimental_params(data_bits=4, shared_count=2, subkey_bits=2)
    # digests (1, 2, 3, 0) -> 0b..._11_10_01 = 1 + 8 + 48
    assert ep.pack_vector(p, (1, 2, 3, 0)) == 57
    assert ep.unpack_vector(p, 57) == (1, 2, 3, 0)


def test_pack_unpack_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        vec = tuple(
            rng.getrandbits(PARAMS.subkey_bits)
            for _ in range(PARAMS.subkey_count)
        )
        assert ep.unpack_vector(PARAMS, ep.pack_vector(PARAMS, vec)) == vec


def test_pack_vector_domain():
    with pytest.raises(ParameterError):
        ep.pack_vector(TINY, (0, 1))  # wrong length
    with pytest.raises(ParameterError):
        ep.pack_vector(TINY, (8, 0, 0, 0, 0, 0))  # digest too wide


def test_encrypt_decrypt_round_trip():
    rng = random.Random(1)
    sec = ep.generate_keys(PARAMS, seed=11)
    for _ in range(20):
        m = rand_message(rng, PARAMS)
        vec = ep.hash_vector_for(PARAMS, sec.alice.subkeys, m)
        blob = ep.encrypt_vector(PARAMS, vec, sec.alice.otp_bits)
        assert blob == ep.pack_vector(PARAMS, vec) ^ sec.alice.otp_bits
        assert ep.decrypt_vector(PARAMS, blob, sec.alice.otp_bits) == vec


def test_hash_vector_matches_scalar_hash():
    rng = random.Random(2)
    sec = ep.generate_keys(TINY, seed=3)
    m = rand_message(rng, TINY)
    vec = ep.hash_vector_for(TINY, sec.bob.subkeys, m)
    for j, k in enumerate(sec.bob.subkeys):
        assert vec[j] == poly_hash(k, m.value, TINY.data_bits, TINY.subkey_bits)


def test_hash_vector_rejects_wrong_length_message():
    sec = ep.generate_keys(PARAMS, seed=11)
    with pytest.raises(ParameterError):
        ep.hash_vector_for(PARAMS, sec.alice.subkeys, Message(1, 255))


# ---------------------------------------------------------- comparison


def test_equal_data_always_compares_equal():
    rng = random.Random(3)
    for seed in range(10):
        sec = ep.generate_keys(PARAMS, seed=seed)
        m = rand_message(rng, PARAMS)
        va = ep.hash_vector_for(PARAMS, sec.alice.subkeys, m)
        vb = ep.hash_vector_for(PARAMS, sec.bob.subkeys, m)
        assert ep.et_compare(PARAMS, sec.shared_indices, va, vb) == ep.ET_EQUAL


def test_distinct_data_compares_distinct():
    # chance of a false EQUAL here is below (31/256)^24; treat as zero
    rng = random.Random(4)
    for seed in range(20):
        sec = ep.generate_keys(PARAMS, seed=seed)
        m_a = rand_message(rng, PARAMS)
        m_b = Message(m_a.value ^ (1 << rng.randrange(256)), 256)
        va = ep.hash_vector_for(PARAMS, sec.alice.subkeys, m_a)
        vb = ep.hash_vector_for(PARAMS, sec.bob.subkeys, m_b)
        assert ep.et_compare(PARAMS, sec.shared_indices, va, vb) == ep.ET_DISTINCT


def test_compare_ignores_positions_outside_overlap():
    sec = ep.generate_keys(PARAMS, seed=6)
    m = Message(123456789, 256)
    va = ep.hash_vector_for(PARAMS, sec.alice.subkeys, m)
    vb = list(ep.hash_vector_for(PARAMS, sec.bob.subkeys, m))
    outside = [j for j in range(PARAMS.subkey_count) if j not in sec.shared_indices]
    for j in outside:
        vb[j] ^= 0xFF
    assert ep.et_compare(PARAMS, sec.shared_indices, va, tuple(vb)) == ep.ET_EQUAL
    inside = sec.shared_indices[0]
    vb[inside] ^= 1
    assert ep.et_compare(PARAMS, sec.shared_indices, va, tuple(vb)) == ep.ET_DISTINCT


# ------------------------------------------------------- match counts


def test_match_count_honest_is_full():
    rng = random.Random(7)
    sec = ep.generate_keys(PARAMS, seed=7)
    m = rand_message(rng, PARAMS)
    vec = ep.hash_vector_for(PARAMS, sec.alice.subkeys, m)
    assert ep.match_count(PARAMS, sec.alice.subkeys, m, vec) == PARAMS.subkey_count


def test_match_count_sees_single_flip():
    rng = random.Random(8)
    sec = ep.generate_keys(PARAMS, seed=8)
    m = rand_message(rng, PARAMS)
    vec = list(ep.hash_vector_for(PARAMS, sec.alice.subkeys, m))
    vec[17] ^= 1
    assert (
        ep.match_count(PARAMS, sec.alice.subkeys, m, tuple(vec))
        == PARAMS.subkey_count - 1
    )


# ------------------------------------------------------------ verdicts


def test_verdict_equal_claims_win_first():
    m = Message(5, TINY.data_bits)
    assert (
        ep.dr_verdict(TINY, m, m, 0, 0, 0, 0) == Verdict.BOTH_CONSISTENT
    )
    # the equal-claims rule fires before any count comparison
    assert (
        ep.dr_verdict(TINY, m, m, 6, 6, 6, 6) == Verdict.BOTH_CONSISTENT
    )


def test_verdict_rule_table():
    big_n = TINY.subkey_count
    m_a = Message(5, TINY.data_bits)
    m_b = Message(6, TINY.data_bits)

    # self-consistent A, B's own submission fails its revealed data
    assert (
        ep.dr_verdict(TINY, m_a, m_b, big_n, 0, 0, big_n - 1)
        == Verdict.ALICE_CORRECT
    )
    # both self-consistent, B corroborates A's data strictly more
    assert (
        ep.dr_verdict(TINY, m_a, m_b, big_n, 1, 2, big_n) == Verdict.ALICE_CORRECT
    )
    # mirror cases
    assert (
        ep.dr_verdict(TINY, m_a, m_b, big_n - 1, 0, 0, big_n)
        == Verdict.BOB_CORRECT
    )
    assert (
        ep.dr_verdict(TINY, m_a, m_b, big_n, 2, 1, big_n) == Verdict.BOB_CORRECT
    )
    # both self-consistent, cross counts tie: nothing to rule on
    assert (
        ep.dr_verdict(TINY, m_a, m_b, big_n, 1, 1, big_n) == Verdict.UNDECIDABLE
    )
    # neither self-consistent
    assert (
        ep.dr_verdict(TINY, m_a, m_b, 0, 0, 0, 0) == Verdict.UNDECIDABLE
    )


def test_verdict_validates_inputs():
    m_a = Message(5, TINY.data_bits)
    m_b = Message(6, TINY.data_bits)
    with pytest.raises(ParameterError):
        ep.dr_verdict(TINY, m_a, m_b, 7, 0, 0, 0)  # count beyond N
    with pytest.raises(ParameterError):
        ep.dr_verdict(TINY, Message(1, 5), m_b, 0, 0, 0, 0)  # short claim
    keys, vec = (0,) * TINY.subkey_count, (0,) * TINY.subkey_count
    with pytest.raises(ParameterError):
        ep.dispute_counts(TINY, keys[1:], keys, m_a, m_b, vec, vec)
    with pytest.raises(ParameterError):
        ep.dispute_counts(TINY, keys, keys, Message(1, 5), m_b, vec, vec)
    with pytest.raises(ParameterError):
        ep.dispute_counts(TINY, keys, keys, m_a, m_b, vec, vec[1:])


# -------------------------------------------------- dispute end to end


def test_dispute_blames_the_liar_both_directions():
    rng = random.Random(9)
    for seed in range(10):
        sec = ep.generate_keys(PARAMS, seed=100 + seed)
        m_true = rand_message(rng, PARAMS)
        m_lie = Message(m_true.value ^ (1 << rng.randrange(256)), 256)

        va = ep.hash_vector_for(PARAMS, sec.alice.subkeys, m_true)
        vb = ep.hash_vector_for(PARAMS, sec.bob.subkeys, m_true)

        # Bob reveals a different message than the one behind his submission
        counts = (
            ep.match_count(PARAMS, sec.alice.subkeys, m_true, va),
            ep.match_count(PARAMS, sec.alice.subkeys, m_lie, va),
            ep.match_count(PARAMS, sec.bob.subkeys, m_true, vb),
            ep.match_count(PARAMS, sec.bob.subkeys, m_lie, vb),
        )
        assert ep.dr_verdict(PARAMS, m_true, m_lie, *counts) == Verdict.ALICE_CORRECT
        # the referee's count hashes each claim once under both key lists
        assert ep.dispute_counts(
            PARAMS, sec.alice.subkeys, sec.bob.subkeys, m_true, m_lie, va, vb
        ) == counts

        # same session, roles swapped
        counts = (
            ep.match_count(PARAMS, sec.alice.subkeys, m_lie, va),
            ep.match_count(PARAMS, sec.alice.subkeys, m_true, va),
            ep.match_count(PARAMS, sec.bob.subkeys, m_lie, vb),
            ep.match_count(PARAMS, sec.bob.subkeys, m_true, vb),
        )
        assert ep.dr_verdict(PARAMS, m_lie, m_true, *counts) == Verdict.BOB_CORRECT
        assert ep.dispute_counts(
            PARAMS, sec.alice.subkeys, sec.bob.subkeys, m_lie, m_true, va, vb
        ) == counts
