"""Field layer tests, checked against a coefficient-list schoolbook oracle."""

import random
import sys
import threading
import time
import tracemalloc
from functools import lru_cache

import pytest

from etdr import gf2field
from etdr.errors import ParameterError
from etdr.gf2field import GF2, REDUCTION_POLY, gf_mul, is_irreducible, reduction_poly
from oracles import oracle_mod, oracle_mul


# ---------------------------------------------------------------- basics

def test_worked_example_degree_3():
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1
    assert gf_mul(0b010, 0b100, 3) == 0b011


def test_zero_and_one():
    f = GF2.get(8)
    for a in range(256):
        assert f.mul(a, 0) == 0
        assert f.mul(a, 1) == a


def test_operand_domain_checked():
    for degree in (8, 64, 280):
        with pytest.raises(ParameterError):
            gf_mul(1 << degree, 1, degree)
        with pytest.raises(ParameterError):
            gf_mul(1, -1, degree)


@pytest.mark.parametrize("degree", [8, 12, 17, 27])
def test_mul_and_fixed_mul_reject_operands_outside_the_field(degree):
    f = GF2.get(degree)
    for bad in (-1, -(1 << degree), 1 << degree, (1 << degree) + 1):
        with pytest.raises(ParameterError):
            f.mul(bad, 3)
        with pytest.raises(ParameterError):
            f.mul(3, bad)
        with pytest.raises(ParameterError):
            f.fixed_mul(bad)


# ---------------------------------------------------------------- table

def test_table_covers_1_to_128_and_is_irreducible():
    assert set(REDUCTION_POLY) == set(range(1, 129))
    for d, p in REDUCTION_POLY.items():
        assert p.bit_length() == d + 1, f"degree {d} mask missing leading term"
        assert is_irreducible(p), f"degree {d} table entry reducible"


def test_known_minimal_polynomials():
    assert REDUCTION_POLY[2] == 0b111
    assert REDUCTION_POLY[3] == 0b1011
    assert REDUCTION_POLY[8] == 0x11B
    assert REDUCTION_POLY[64] == 0x1000000000000001B
    assert REDUCTION_POLY[128] == (1 << 128) | 0x87


def test_is_irreducible_agrees_with_trial_division_upto_degree_10():
    # independent sieve: p reducible iff some smaller irreducible divides it
    irr = []
    for p in range(2, 1 << 11):
        d = p.bit_length() - 1
        divisible = False
        for q in irr:
            if (q.bit_length() - 1) > d // 2:
                break
            if oracle_mod(p, q) == 0:
                divisible = True
                break
        if not divisible:
            irr.append(p)
        assert is_irreducible(p) == (not divisible), hex(p)


def test_reduction_poly_search_beyond_table_matches_rule():
    # degree 130 is past the frozen table; the search must return an
    # irreducible with the table's shape rule (odd weight, leading+constant)
    p = reduction_poly(130)
    assert p.bit_length() == 131
    assert p & 1
    assert is_irreducible(p)
    assert reduction_poly(130) == p  # cached and deterministic


def test_search_reproduces_the_pinned_table():
    search = gf2field._search_reduction_poly.__wrapped__
    for degree in range(2, 129):
        assert search(degree) == REDUCTION_POLY[degree], degree


@pytest.mark.parametrize(
    "degree, taps",
    [(136, [0, 2, 3, 5]), (280, [0, 2, 5, 9]), (424, [0, 2, 7, 9]), (808, [0, 2, 3, 14])],
)
def test_search_beyond_the_table_returns_the_pinned_answers(degree, taps):
    # the MAC fields at eps = 2^-40, 2^-64 and 2^-128 are 280, 424 and 808;
    # these are the answers of the search that ran the full test on every
    # candidate, and they are wire constants like the table's
    p = gf2field._search_reduction_poly.__wrapped__(degree)
    assert p == sum(1 << e for e in [*taps, degree])


def _mod(a, g):
    while a.bit_length() >= g.bit_length():
        a ^= g << (a.bit_length() - g.bit_length())
    return a


def test_search_skips_only_reducible_candidates():
    # every trinomial to degree 64 and pentanomial to degree 24 (constant
    # term set, as the search makes them): the cheap rules skip exactly the
    # trinomials Swan's theorem rules out and the candidates with an
    # irreducible factor of degree 2..8 below their own, and the full test
    # finds each skipped one reducible
    small = [g for g in range(4, 1 << 9) if is_irreducible(g)]
    candidates = [(d, (k,)) for d in range(2, 65) for k in range(1, d)]
    candidates += [
        (d, (a, b, c)) for d in range(4, 25)
        for a in range(3, d) for b in range(2, a) for c in range(1, b)
    ]
    skipped = {"swan": 0, "sieve": 0}
    for d, mids in candidates:
        poly = (1 << d) | 1 | sum(1 << e for e in mids)
        swan = len(mids) == 1 and d % 8 == 0
        factor = any(_mod(poly, g) == 0 for g in small if g.bit_length() <= d)
        assert gf2field._proven_reducible(d, mids) == (swan or factor), (d, mids)
        if swan or factor:
            skipped["swan" if swan else "sieve"] += 1
            assert not is_irreducible(poly), (d, mids)
    assert skipped["swan"] == sum(d - 1 for d in range(8, 65, 8))
    assert skipped["sieve"] > len(candidates) // 2


def test_reduction_poly_search_runs_once_under_concurrent_calls(monkeypatch):
    searched = []
    search = gf2field._search_reduction_poly.__wrapped__

    def counting_search(degree):
        searched.append(degree)
        # the search itself takes a few ms; holding it open lets the other
        # threads arrive while it runs, so a missing lock shows
        time.sleep(0.05)
        return search(degree)

    monkeypatch.setattr(gf2field, "_search_reduction_poly", lru_cache(maxsize=None)(counting_search))
    reduction_poly.cache_clear()
    start = threading.Barrier(4)
    results = []

    def call():
        start.wait()
        results.append(reduction_poly(150))

    threads = [threading.Thread(target=call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 and len(set(results)) == 1
    assert searched == [150]
    assert is_irreducible(results[0]) and results[0].bit_length() == 151


def test_reduction_poly_rejects_bad_degree():
    with pytest.raises(ParameterError):
        reduction_poly(0)


# ---------------------------------------------------------------- algebra

def test_oracle_agreement_exhaustive_degree_le_8():
    for d in range(1, 9):
        poly = reduction_poly(d)
        f = GF2.get(d)
        for a in range(1 << d):
            for b in range(1 << d):
                assert f.mul(a, b) == oracle_mul(a, b, poly)


@pytest.mark.parametrize("degree", range(9, 17))
def test_oracle_agreement_random_log_table_degrees(degree):
    rng = random.Random(degree)
    poly = reduction_poly(degree)
    f = GF2.get(degree)
    for _ in range(2_000):
        a = rng.getrandbits(degree)
        b = rng.getrandbits(degree)
        assert f.mul(a, b) == oracle_mul(a, b, poly)


@pytest.mark.parametrize("degree", [17, 20, 34, 64, 72, 92, 140, 280, 300])
def test_window_mul_matches_oracle(degree):
    rng = random.Random(degree)
    poly = reduction_poly(degree)
    f = GF2.get(degree)
    top = (1 << degree) - 1
    for k in (0, 1, top, rng.getrandbits(degree), rng.getrandbits(degree)):
        mul_k = f.fixed_mul(k)
        for a in [0, 1, top] + [rng.getrandbits(degree) for _ in range(8)]:
            want = oracle_mul(k, a, poly)
            assert gf_mul(k, a, degree) == want
            assert mul_k(a) == want


@pytest.mark.parametrize("degree", [17, 64, 280])
def test_fixed_mul_above_16_builds_no_per_key_byte_tables(degree):
    # a one-time MAC key gets a window of 16 multiples; byte tables for it
    # would hold ceil(degree / 8) * 256 field elements
    f = GF2.get(degree)
    k = (1 << degree) - 1
    f.fixed_mul(k)  # the field's own setup is not the key's
    tracemalloc.start()
    try:
        f.fixed_mul(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * sys.getsizeof(k)


def test_oracle_agreement_random_degree_64():
    rng = random.Random(0xE7D1)
    poly = reduction_poly(64)
    for _ in range(10_000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        assert gf_mul(a, b, 64) == oracle_mul(a, b, poly)


@pytest.mark.parametrize("degree", [2, 3, 8, 16, 64])
def test_distributivity_10k_triples(degree):
    rng = random.Random(degree * 7919)
    f = GF2.get(degree)
    for _ in range(10_000):
        a, b, c = (rng.getrandbits(degree) for _ in range(3))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("degree", [2, 3, 8, 16, 64])
def test_associativity_and_commutativity(degree):
    rng = random.Random(degree + 1)
    f = GF2.get(degree)
    for _ in range(2_000):
        a, b, c = (rng.getrandbits(degree) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("degree", range(1, 9))
def test_nonzero_elements_form_a_group(degree):
    # closure without zero divisors, and every row of the Cayley table is a
    # permutation of the nonzero elements (existence of inverses)
    f = GF2.get(degree)
    nz = range(1, 1 << degree)
    for a in nz:
        row = {f.mul(a, b) for b in nz}
        assert 0 not in row
        assert len(row) == len(list(nz))
    for a in nz:
        power = a
        for _ in range((1 << degree) - 2):
            power = f.mul(power, a)
        assert power == 1  # a^(2^degree - 1)


@pytest.mark.parametrize("degree", range(1, 17))
def test_log_tables_cover_the_multiplicative_group(degree):
    exp, log = GF2.get(degree).log_tables()
    n = (1 << degree) - 1
    assert len(exp) == 2 * n and exp[n:] == exp[:n]
    assert sorted(exp[:n]) == list(range(1, n + 1))
    assert all(exp[log[a]] == a for a in range(1, n + 1))


def test_no_log_tables_above_degree_16():
    assert GF2.get(17).log_tables() is None


@pytest.mark.parametrize("degree", [3, 8, 12, 16, 17, 64, 92])
def test_fixed_mul_matches_general_mul(degree):
    rng = random.Random(degree)
    f = GF2.get(degree)
    for k in [0] + [rng.getrandbits(degree) for _ in range(20)]:
        mul_k = f.fixed_mul(k)
        for _ in range(200):
            a = rng.getrandbits(degree)
            assert mul_k(a) == f.mul(k, a)


def test_pow_small_cases():
    f = GF2.get(3)
    # x has order 7 under x^3 + x + 1
    seen, power = set(), 1
    for _ in range(7):
        seen.add(power)
        power = f.mul(power, 0b010)
    assert seen == set(range(1, 8)) and power == 1
