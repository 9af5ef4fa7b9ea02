"""Hash layer tests: worked examples, exhaustive collision bounds, linearity."""

import random
from fractions import Fraction

import pytest

from etdr.au2hash import block_count, chunk_blocks, collision_bound, hash_vector, poly_hash
from etdr.bits import bits_from_str
from etdr.errors import ParameterError
from etdr.gf2field import GF2, reduction_poly
from oracles import oracle_mul


def oracle_hash(key, value, msg_bits, degree):
    """Power-sum form, no Horner: sum block_i * k^(i-1), on the list-based oracle."""
    poly = reduction_poly(degree)
    out, power = 0, 1
    for block in chunk_blocks(value, msg_bits, degree):
        out ^= oracle_mul(block, power, poly)
        power = oracle_mul(power, key, poly)
    return out


def test_chunking_examples():
    v, n = bits_from_str("1011")
    assert chunk_blocks(v, n, 2) == [bits_from_str("10")[0], bits_from_str("11")[0]]
    v, n = bits_from_str("10110")
    assert chunk_blocks(v, n, 2) == [0b01, 0b11, 0b00]  # tail zero-padded
    assert block_count(5, 2) == 3


def test_block_count_domain():
    with pytest.raises(ParameterError):
        block_count(0, 2)
    with pytest.raises(ParameterError):
        block_count(4, 0)


def test_collision_bound_values():
    assert collision_bound(256, 8) == Fraction(31, 256)
    assert collision_bound(4, 2) == Fraction(1, 4)
    assert collision_bound(8, 8) == 0
    assert collision_bound(9, 8) == Fraction(1, 256)


def test_short_message_is_identity_for_every_key():
    # r <= l: a single zero-padded block, key never enters
    for key in range(16):
        assert poly_hash(key, 0b101, 3, 4) == 0b0101 & 0b101
        assert poly_hash(key, 0b1011, 4, 4) == 0b1011


def test_degenerate_zero_key():
    # k = 0: only the first block survives (k^0 = 1)
    rng = random.Random(11)
    for _ in range(50):
        v = rng.getrandbits(12)
        assert poly_hash(0, v, 12, 4) == v & 0xF


def test_worked_example_l2_r4_all_inputs():
    # f(k, m) = m1 + m2*k in GF(4); check the whole table by hand formula
    f = GF2.get(2)
    for k in range(4):
        for m in range(16):
            m1, m2 = m & 3, (m >> 2) & 3
            assert poly_hash(k, m, 4, 2) == m1 ^ f.mul(m2, k)


def test_horner_matches_power_sum_oracle():
    rng = random.Random(2024)
    for degree in (2, 3, 4, 8):
        for _ in range(300):
            bits = rng.randrange(1, 5 * degree)
            v = rng.getrandbits(bits)
            k = rng.getrandbits(degree)
            assert poly_hash(k, v, bits, degree) == oracle_hash(k, v, bits, degree)


def test_linearity_in_the_message():
    # exhaustive at l=2, r=6; random at l=8
    for ma in range(64):
        for mb in range(64):
            for k in range(4):
                assert (
                    poly_hash(k, ma, 6, 2) ^ poly_hash(k, mb, 6, 2)
                    == poly_hash(k, ma ^ mb, 6, 2)
                )
    rng = random.Random(5)
    for _ in range(500):
        ma, mb = rng.getrandbits(40), rng.getrandbits(40)
        k = rng.getrandbits(8)
        assert poly_hash(k, ma, 40, 8) ^ poly_hash(k, mb, 40, 8) == poly_hash(k, ma ^ mb, 40, 8)


def test_worked_example_one_pair_l2_r4():
    # any fixed distinct pair collides on at most 1 of the 4 keys
    m, mp = 0b1011, 0b0110
    colliding = [k for k in range(4) if poly_hash(k, m, 4, 2) == poly_hash(k, mp, 4, 2)]
    assert len(colliding) <= 1


@pytest.mark.parametrize("degree,max_r", [(2, 8), (3, 9)])
def test_collision_bound_exhaustive_small(degree, max_r):
    # all pairs via their XOR difference: f(k,m)=f(k,m') iff f(k,m^m')=0
    for r in range(degree + 1, max_r + 1):
        allowed = block_count(r, degree) - 1
        for d in range(1, 1 << r):
            hits = sum(1 for k in range(1 << degree) if poly_hash(k, d, r, degree) == 0)
            assert hits <= allowed, (degree, r, bin(d))


def horner_oracle(key, value, msg_bits, degree):
    """Horner on the reversed blocks, multiplying with the list-based oracle."""
    poly = reduction_poly(degree)
    blocks = [(value >> (i * degree)) & ((1 << degree) - 1) for i in range(-(-msg_bits // degree))]
    acc = 0
    for block in reversed(blocks):
        acc = oracle_mul(acc, key, poly) ^ block
    return acc


def test_vector_hasher_matches_scalar_path():
    for degree in range(1, 21):  # log tables up to 16, the 4-bit window above
        rng = random.Random(99 + degree)
        q = 1 << degree
        keys = [0, 1, q - 1] + [rng.randrange(q) for _ in range(5)]
        cases = [(0, 3 * degree), ((1 << (3 * degree + 1)) - 1, 3 * degree + 1)]  # all 0, all 1
        for _ in range(6):
            bits = rng.randrange(1, 5 * degree + 2)
            cases.append((rng.getrandbits(bits), bits))
        for v, bits in cases:
            vec = hash_vector(keys, v, bits, degree)
            assert vec == [poly_hash(k, v, bits, degree) for k in keys], (degree, bits)
            assert vec == [horner_oracle(k, v, bits, degree) for k in keys], (degree, bits)


@pytest.mark.parametrize("degree", [64, 280])  # the MAC fields at eps = 2^-4 and 2^-40
def test_poly_hash_matches_oracle_in_mac_fields(degree):
    rng = random.Random(degree)
    for key in (0, 1, (1 << degree) - 1, rng.getrandbits(degree), rng.getrandbits(degree)):
        for bits in (1, degree, 480, 960):
            v = rng.getrandbits(bits)
            assert poly_hash(key, v, bits, degree) == horner_oracle(key, v, bits, degree), (key, bits)


def test_vector_hasher_finalize_is_terminal():
    from etdr.au2hash import VectorHasher

    h = VectorHasher(2, [1, 2])
    h.update(3)
    h.digests()
    with pytest.raises(ParameterError):
        h.update(1)


@pytest.mark.parametrize("degree", [12, 17])  # log tables, then the 4-bit window
def test_vector_hasher_rejects_blocks_outside_the_field(degree):
    from etdr.au2hash import VectorHasher

    h = VectorHasher(degree, [5, 6])
    for block in (-1, 1 << degree):
        with pytest.raises(ParameterError):
            h.update(block)
