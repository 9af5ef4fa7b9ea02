"""Hash layer tests: worked examples, exhaustive collision bounds, linearity."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from etdr import au2hash
from etdr.au2hash import block_count, chunk_blocks, collision_bound, hash_vector, poly_hash
from etdr.errors import ParameterError
from etdr.gf2field import GF2, reduction_poly
from oracles import bits_from_str, horner_oracle, oracle_mul, pack_digests


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


def test_horner_spends_no_multiply_on_zero():
    # one multiply per block after the last, the same sum as a loop from 0
    f = GF2.get(8)
    rng = random.Random(77)
    for count in range(6):
        blocks = [rng.getrandbits(8) for _ in range(count)]
        k = rng.getrandbits(8)
        calls = []

        def mul_k(a):
            calls.append(a)
            return f.mul(k, a)

        want = 0
        for block in reversed(blocks):
            want = f.mul(k, want) ^ block
        assert au2hash._horner(mul_k, blocks) == want
        assert len(calls) == max(0, count - 1)


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
    # log tables up to 16, the 4-bit window above; above 27 only the list
    # path runs, at every input size
    for degree in [*range(1, 21), 28, 33, 64]:
        rng = random.Random(99 + degree)
        q = 1 << degree
        keys = [0, 1, q - 1] + [rng.randrange(q) for _ in range(5)]
        cases = [(0, 3 * degree), ((1 << (3 * degree + 1)) - 1, 3 * degree + 1)]  # all 0, all 1
        for _ in range(6):
            bits = rng.randrange(1, 5 * degree + 2)
            cases.append((rng.getrandbits(bits), bits))
        for v, bits in cases:
            vec = hash_vector(keys, v, bits, degree)
            want = [horner_oracle(k, v, bits, degree) for k in keys]
            assert want == [poly_hash(k, v, bits, degree) for k in keys], (degree, bits)
            assert vec == pack_digests(want, degree), (degree, bits)


# both sides of each kernel edge: log tables up to 16, bit-spread products
# from 17 to 255, the 4-bit window from 256; 64 and 280 are the MAC fields
# at eps = 2^-4 and 2^-40
@pytest.mark.parametrize("degree", [16, 18, 64, 72, 254, 256, 280])
def test_poly_hash_matches_oracle_in_mac_fields(degree):
    rng = random.Random(degree)
    for key in (0, 1, (1 << degree) - 1, rng.getrandbits(degree), rng.getrandbits(degree)):
        for bits in (1, degree, 2 * degree, 480, 960):
            # at 2 * degree bits, all ones under the all-ones key: the first
            # product's middle byte counts `degree` terms
            for v in (rng.getrandbits(bits), (1 << bits) - 1):
                assert poly_hash(key, v, bits, degree) == horner_oracle(key, v, bits, degree), (key, bits)
    for key in (-1, 1 << degree):
        with pytest.raises(ParameterError):
            poly_hash(key, 1, degree, degree)


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
        want = [poly_hash(k, v, bits, degree) for k in keys]
        assert hash_vector(keys, v, bits, degree) == pack_digests(want, degree)


@pytest.mark.parametrize("degree,n_keys,bits,path", [
    *[pytest.param(degree, 4, n_blocks * degree, "list" if n_blocks == 1 else "numpy",
                   id=f"{n_blocks}-{degree}")
      for n_blocks in (1, 100) for degree in (8, 12, 17, 27)],
    *[pytest.param(degree, n_keys, 1 << degree, "table", id=f"table-{degree}")
      for degree, n_keys in ((8, 5), (5, 25), (1, 80))],
])
def test_hash_vector_rejects_keys_outside_the_field(degree, n_keys, bits, path):
    q = 1 << degree
    on_list = n_keys * bits < au2hash._LIST_PATH_MAX_WORK * degree
    assert path == ("list" if on_list else "table" if degree <= 8 and bits <= q else "numpy")
    good = [k % q for k in range(1, n_keys)]
    # below l = 8, bytes() would take the keys in [2^l, 256) that the field refuses
    for bad in (-1, -q, q, q + 1, 255, 256, 1 << 64):
        if 0 <= bad < q:
            continue
        with pytest.raises(ParameterError):
            hash_vector(good[:2] + [bad] + good[2:], 12345, bits, degree)


def test_hash_vector_in_two_threads_matches_one_thread():
    # every thread gathers into its own scratch buffers, so threads that
    # hash at once (the TCP referee and both clients in one process) never
    # read each other's entries
    rng = random.Random(310)
    degree, bits = 12, 1 << 12
    jobs = [
        ([rng.randrange(1 << degree) for _ in range(n_keys)], rng.getrandbits(bits))
        for n_keys in (48, 96)
    ]
    want = [hash_vector(keys, v, bits, degree) for keys, v in jobs]
    assert want == [
        pack_digests([poly_hash(k, v, bits, degree) for k in keys], degree) for keys, v in jobs
    ]
    results = [[], []]

    def work(i):
        keys, v = jobs[i]
        for _ in range(50):
            results[i].append(hash_vector(keys, v, bits, degree))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert results[i] == [want[i]] * 50


@pytest.mark.parametrize("n_keys", [95, 96, 97])
def test_hash_vector_in_even_key_groups(n_keys):
    # 342 blocks: 95 keys fill one gather group; 96 and 97 run as two
    degree, bits = 12, 1 << 12
    assert au2hash._TABLE_ENTRIES // block_count(bits, degree) == 95
    rng = random.Random(311 + n_keys)
    keys = [0, 1, (1 << degree) - 1] + [rng.randrange(1 << degree) for _ in range(n_keys - 3)]
    v = rng.getrandbits(bits)
    want = [poly_hash(k, v, bits, degree) for k in keys]
    assert hash_vector(keys, v, bits, degree) == pack_digests(want, degree)


def test_hash_vector_over_the_scratch_buffers():
    # over 2^15 nonzero blocks one key's gather outgrows the scratch
    # buffers, and that call allocates its own
    degree = 8
    c = au2hash._TABLE_ENTRIES + 5
    rng = random.Random(312)
    v = int.from_bytes(bytes(rng.randrange(1, 256) for _ in range(c)), "little")
    keys = [0, 1, 255, rng.randrange(256)]
    bits = c * degree - 3
    assert len(keys) * bits >= au2hash._LIST_PATH_MAX_WORK * degree  # the numpy path
    assert sum(1 for b in chunk_blocks(v, bits, degree) if b) > au2hash._TABLE_ENTRIES
    want = [horner_oracle(k, v, bits, degree) for k in keys]
    assert hash_vector(keys, v, bits, degree) == pack_digests(want, degree)


def test_digest_vectors_do_not_alias_the_scratch_buffers():
    import numpy as np

    degree, bits = 12, 1 << 12
    field = GF2.get(degree)
    rng = random.Random(313)
    keys = [rng.randrange(1 << degree) for _ in range(96)]
    v1, v2 = rng.getrandbits(bits), rng.getrandbits(bits)
    keys_array = np.array(keys, np.int64)
    first = hash_vector(keys, v1, bits, degree)
    raw = au2hash._log_digests(field, keys_array, au2hash._block_array(v1, bits, degree))
    kept = raw.copy()
    hash_vector(keys, v2, bits, degree)
    au2hash._log_digests(field, keys_array, au2hash._block_array(v2, bits, degree))
    assert first == pack_digests([poly_hash(k, v1, bits, degree) for k in keys], degree)
    assert (raw == kept).all() and pack_digests(raw.tolist(), degree) == first


def test_hash_vector_rejects_a_key_too_wide_for_int64():
    # the range check runs before the keys become an int64 array, so a key
    # of 2^63 is a ParameterError, not numpy's OverflowError
    with pytest.raises(ParameterError):
        hash_vector([1, 2, 1 << 63, 3], 12345, 100 * 12, 12)
