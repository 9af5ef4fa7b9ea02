"""Hash layer tests: worked examples, exhaustive collision bounds, linearity."""

import random
from fractions import Fraction

import pytest

from etdr import au2hash
from etdr.au2hash import block_count, chunk_blocks, collision_bound, hash_vector, poly_hash
from etdr.errors import ParameterError
from etdr.gf2field import GF2, reduction_poly
from oracles import bits_from_str, horner_oracle, oracle_mul


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


def test_chunk_blocks_matches_shift_and_mask():
    # one shift of the whole message per block, as the blocks are defined
    rng = random.Random(300)
    for degree in range(1, 301):
        mask = (1 << degree) - 1
        for bits in (1, degree, 64 * degree, 64 * degree + 1, 130 * degree + 7):
            for v in (rng.getrandbits(bits), (1 << bits) - 1, rng.getrandbits(bits + 9)):
                c = -(-bits // degree)
                want = [(v >> (i * degree)) & mask for i in range(c)]
                assert chunk_blocks(v, bits, degree) == want, (degree, bits)
                if degree <= au2hash._VECTOR_MAX_DEGREE:  # the numpy paths' blocks
                    assert au2hash._block_array(v, bits, degree).tolist() == want, (degree, bits)


def test_block_array_across_word_groups():
    # more blocks than _block_array reads at once, the last group short
    rng = random.Random(301)
    for degree in (1, 27):
        bits = (8 * au2hash._WORD_GROUPS + 13) * degree - 1
        v = rng.getrandbits(bits)
        assert au2hash._block_array(v, bits, degree).tolist() == chunk_blocks(v, bits, degree)


@pytest.mark.parametrize("degree,n_keys,n_blocks", [
    (12, 28, 5000),  # five groups of keys in the log-table gather, the last one short
    (17, 8, 9000),  # 71 slices of 128 blocks: three groups of up to 32
    (27, 264, 300),  # three slices, the last one short
])
def test_hash_vector_across_groups_and_slices(degree, n_keys, n_blocks):
    rng = random.Random(degree)
    q = 1 << degree
    keys = [0, 1, q - 1] + [rng.randrange(q) for _ in range(n_keys - 3)]
    bits = n_blocks * degree - 3  # the final block zero-padded
    for v in (0, (1 << bits) - 1, rng.getrandbits(bits)):
        assert hash_vector(keys, v, bits, degree) == [poly_hash(k, v, bits, degree) for k in keys]


@pytest.mark.parametrize("degree", [8, 12, 17, 27])
@pytest.mark.parametrize("n_blocks", [1, 100])  # the list path, then numpy
def test_hash_vector_rejects_keys_outside_the_field(degree, n_blocks):
    assert (n_blocks * 4 < au2hash._LIST_PATH_MAX_WORK) == (n_blocks == 1)
    bits = n_blocks * degree
    for bad in (-1, -(1 << degree), 1 << degree, (1 << degree) + 1, 1 << 64):
        with pytest.raises(ParameterError):
            hash_vector([1, 2, bad, 3], 12345, bits, degree)
