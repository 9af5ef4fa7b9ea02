"""One-time MAC tests, including exhaustive forgery games."""

import random
from fractions import Fraction

import pytest

from etdr.errors import KeyMaterialError, ParameterError
from etdr.itsmac import (
    MacKey,
    construction_forgery_bound,
    forgery_bound,
    mac_tag,
    mac_tag_bits,
    mac_verify,
    mac_verify_bits,
)
from oracles import forgery_game_optimum, forgery_game_optimum_xor


# ---------------------------------------------------------------- mac keys

def test_mac_key_single_use_tagging():
    key = MacKey(0x2B, 0x5, 4)
    mac_tag_bits(key, 0xAB, 8)
    with pytest.raises(KeyMaterialError):
        mac_tag_bits(key, 0xAB, 8)


def test_mac_key_single_use_verification():
    key = MacKey(0x2B, 0x5, 4)
    mac_verify_bits(key, 0xAB, 8, 0)
    with pytest.raises(KeyMaterialError):
        mac_verify_bits(key, 0xAB, 8, 0)


def test_mac_key_domain_checks():
    with pytest.raises(ParameterError):
        MacKey(1 << 8, 0, 4)  # hash key must fit 2*tag bits
    with pytest.raises(ParameterError):
        MacKey(0, 1 << 4, 4)  # pad must fit tag bits


def test_round_trip_and_tamper_detection():
    rng = random.Random(7)
    for _ in range(300):
        kh = rng.getrandbits(64)
        pad = rng.getrandbits(32)
        msg = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 60)))
        tag = mac_tag(MacKey(kh, pad, 32), msg)
        assert mac_verify(MacKey(kh, pad, 32), msg, tag)
        # flip one message bit
        i = rng.randrange(8 * len(msg))
        bad = bytearray(msg)
        bad[i // 8] ^= 1 << (i % 8)
        assert not mac_verify(MacKey(kh, pad, 32), bytes(bad), tag)


def test_tag_bit_flip_rejected():
    key = MacKey(0x1234_5678_9ABC_DEF0, 0xDEAD_BEEF, 32)
    tag = mac_tag(MacKey(key.hash_key, key.pad, 32), b"payload")
    assert not mac_verify(key, b"payload", tag ^ (1 << 13))


def test_distinct_messages_get_distinct_tags():
    kh, pad = 0x77AA_1122_3344_5566, 0x0102_0304
    t1 = mac_tag(MacKey(kh, pad, 32), b"message a")
    t2 = mac_tag(MacKey(kh, pad, 32), b"message b")
    assert t1 != t2


# ---------------------------------------------------------------- bounds

def test_forgery_bound_values():
    assert forgery_bound(8, 4) == Fraction(1, 16)
    assert forgery_bound(384, 32) == Fraction(11, 1 << 32)
    assert forgery_bound(32, 32) == 0
    assert forgery_bound(2, 32) == 0


def test_construction_bound_dominated_by_formula():
    for tag_bits in (2, 3, 4, 8, 32):
        for msg_bits in range(tag_bits + 1, 8 * tag_bits):
            assert construction_forgery_bound(msg_bits, tag_bits) <= forgery_bound(
                msg_bits, tag_bits
            ), (msg_bits, tag_bits)


def make_tagger(tag_bits):
    def tagger(key, m, msg_bits):
        kh, pad = key
        return mac_tag_bits(MacKey(kh, pad, tag_bits), m, msg_bits)

    return tagger


def test_forgery_game_exhaustive_tag2():
    # full generic game: keys are all (hash_key, pad) pairs
    tagger = make_tagger(2)
    keys = [(kh, p) for kh in range(16) for p in range(4)]
    for msg_bits in range(3, 7):
        opt = forgery_game_optimum(tagger, keys, msg_bits)
        assert opt <= forgery_bound(msg_bits, 2), msg_bits
        assert opt <= construction_forgery_bound(msg_bits, 2), msg_bits


def test_forgery_game_exhaustive_tag3():
    tagger = make_tagger(3)
    keys = [(kh, p) for kh in range(64) for p in range(8)]
    for msg_bits in (4, 7, 9):
        opt = forgery_game_optimum(tagger, keys, msg_bits)
        assert opt <= forgery_bound(msg_bits, 3), msg_bits


def test_forgery_game_tag4_msg8_exact_optimum():
    # the headline case: optimum must sit exactly at 2^-4
    tagger = make_tagger(4)
    keys = [(kh, p) for kh in range(256) for p in range(16)]
    opt = forgery_game_optimum(tagger, keys, 8)
    assert opt == Fraction(1, 16)


def test_forgery_game_tag4_larger_messages_via_difference_classes():
    tagger = make_tagger(4)
    rng = random.Random(42)
    for msg_bits in (9, 11, 12):
        opt = forgery_game_optimum_xor(tagger, list(range(256)), list(range(16)), msg_bits, rng)
        assert opt <= forgery_bound(msg_bits, 4), msg_bits
        assert opt <= construction_forgery_bound(msg_bits, 4), msg_bits


def test_difference_game_agrees_with_generic_game():
    tagger = make_tagger(2)
    keys = [(kh, p) for kh in range(16) for p in range(4)]
    rng = random.Random(3)
    for msg_bits in (3, 5):
        a = forgery_game_optimum(tagger, keys, msg_bits)
        b = forgery_game_optimum_xor(tagger, list(range(16)), list(range(4)), msg_bits, rng)
        assert a == b
