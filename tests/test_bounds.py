"""Security-bound calculators against independent recounts.

cover_prob is recounted by enumerating subsets, match_tail by an
integer-only Pascal-triangle tail, and the attack optimum by combining
the two. The relative-entropy bound, a test oracle, is checked for
dominance on the same grid the acceptance suite uses.
"""

import itertools
from fractions import Fraction
from math import comb

import mpmath
import pytest

from etdr import bounds
from etdr.errors import ParameterError

from oracles import (
    binomial_tail_oracle,
    fraction_to_mpf,
    kl_tail_bound,
    rel_entropy_bits,
)


# ---------------------------------------------------------------- cover


def test_cover_prob_extremes():
    for n in (1, 2, 5, 24):
        big_n = 2 * n
        assert bounds.cover_prob(big_n, big_n, n) == 1
        assert bounds.cover_prob(n, big_n, n) == Fraction(1, comb(big_n, n))


def test_cover_prob_pinned_half():
    assert bounds.cover_prob(3, 4, 2) == Fraction(1, 2)


def test_cover_prob_subset_enumeration():
    for big_n, n in [(4, 2), (6, 3), (8, 3)]:
        for t in range(n, big_n + 1):
            hits = sum(
                1
                for overlap in itertools.combinations(range(big_n), n)
                if max(overlap) < t
            )
            assert bounds.cover_prob(t, big_n, n) == Fraction(
                hits, comb(big_n, n)
            )


def test_cover_prob_domain():
    with pytest.raises(ParameterError):
        bounds.cover_prob(1, 4, 2)
    with pytest.raises(ParameterError):
        bounds.cover_prob(5, 4, 2)
    with pytest.raises(ParameterError):
        bounds.cover_prob(2, 2, 3)


# ----------------------------------------------------------- match tail


def test_match_tail_pinned():
    q = Fraction(1, 4)
    assert bounds.match_tail(4, 4, 2, q) == Fraction(1, 16)
    assert bounds.match_tail(3, 4, 2, q) == Fraction(7, 16)
    assert bounds.match_tail(2, 4, 2, q) == 1


def test_match_tail_degenerate_q():
    for big_n, n in [(4, 2), (6, 3)]:
        for t in range(n, big_n + 1):
            zero = bounds.match_tail(t, big_n, n, Fraction(0))
            assert zero == (1 if t == n else 0)
            assert bounds.match_tail(t, big_n, n, Fraction(1)) == 1


def test_match_tail_against_pascal_oracle():
    for n in (2, 3, 5, 8):
        big_n = 2 * n
        for q in (Fraction(1, 16), Fraction(31, 256), Fraction(1, 8), Fraction(2, 3)):
            for t in range(n, big_n + 1):
                want = binomial_tail_oracle(
                    big_n - n, q.numerator, q.denominator, t - n
                )
                assert bounds.match_tail(t, big_n, n, q) == want


def test_match_tail_rejects_bad_q():
    with pytest.raises(ParameterError):
        bounds.match_tail(3, 4, 2, Fraction(5, 4))
    with pytest.raises(ParameterError):
        bounds.match_tail(3, 4, 2, Fraction(-1, 4))


# -------------------------------------------------------- attack bound


def test_attack_bound_tiny_goldens():
    cases = [
        (4, 2, Fraction(1, 4), Fraction(7, 32), 3),
        (4, 2, Fraction(1, 2), Fraction(3, 8), 3),
        (6, 3, Fraction(1, 2), Fraction(1, 4), 5),
        (6, 3, Fraction(1, 4), Fraction(37, 320), 4),
    ]
    for big_n, n, q, want, want_t in cases:
        got, got_t = bounds.attack_success_bound(big_n, n, q)
        assert got == want
        assert got_t == want_t


def test_attack_bound_independent_recount():
    for n in (2, 3, 4, 6):
        big_n = 2 * n
        for q in (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)):
            best = Fraction(0)
            for t in range(n, big_n + 1):
                hits = sum(
                    1
                    for overlap in itertools.combinations(range(big_n), n)
                    if max(overlap) < t
                )
                cover = Fraction(hits, comb(big_n, n))
                tail = binomial_tail_oracle(
                    big_n - n, q.numerator, q.denominator, t - n
                )
                best = max(best, cover * tail)
            assert bounds.attack_success_bound(big_n, n, q)[0] == best


def test_attack_bound_monotone_in_q():
    n, big_n = 12, 24
    grid = [Fraction(0), Fraction(1, 64), Fraction(1, 16), Fraction(1, 8),
            Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    values = [bounds.attack_success_bound(big_n, n, q)[0] for q in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[0] == Fraction(1, comb(big_n, n))
    assert values[-1] == 1


def test_attack_rows_consistency():
    big_n, n, q = 16, 8, Fraction(31, 256)
    rows = bounds.attack_rows(big_n, n, q)
    assert [t for t, *_ in rows] == list(range(n, big_n + 1))
    for t, cover, tail, product in rows:
        assert cover == bounds.cover_prob(t, big_n, n)
        assert tail == bounds.match_tail(t, big_n, n, q)
        assert product == cover * tail
    best, best_t = bounds.attack_success_bound(big_n, n, q)
    assert best == max(p for *_, p in rows)
    assert best == dict((t, p) for t, _, _, p in rows)[best_t]


# ---------------------------------------------- relative-entropy bound


def test_rel_entropy_edges_and_values():
    assert float(rel_entropy_bits(1, Fraction(1, 8))) == pytest.approx(3.0)
    assert float(rel_entropy_bits(0, Fraction(1, 2))) == pytest.approx(1.0)
    # D(1/2 || 1/8) = 1 + (1/2) log2(4/7)
    want = 1 + 0.5 * mpmath.log(Fraction(4, 7), 2)
    assert float(rel_entropy_bits(Fraction(1, 2), Fraction(1, 8))) == pytest.approx(float(want))


def test_rel_entropy_domain():
    with pytest.raises(ParameterError):
        rel_entropy_bits(Fraction(3, 2), Fraction(1, 8))
    with pytest.raises(ParameterError):
        rel_entropy_bits(Fraction(1, 2), Fraction(0))
    with pytest.raises(ParameterError):
        rel_entropy_bits(Fraction(1, 2), Fraction(1))


def test_rel_entropy_floor_above_half_overlap():
    # for thresholds past 3n/2 the exponent never drops below 1/2
    # on the parameter range the protocol derives (q <= 1/8)
    for q in (Fraction(1, 16), Fraction(31, 256), Fraction(1, 8)):
        for num in range(24, 49):
            p = Fraction(num, 48)
            assert rel_entropy_bits(p, q) >= mpmath.mpf(1) / 2


def test_kl_exact_at_full_match():
    for n, q in [(3, Fraction(1, 8)), (24, Fraction(31, 256)), (5, Fraction(0))]:
        got = kl_tail_bound(2 * n, 2 * n, n, q)
        assert isinstance(got, Fraction)
        assert got == q**n
        assert got == bounds.match_tail(2 * n, 2 * n, n, q)


def test_kl_dominates_exact_tail():
    cushion = 1 + mpmath.mpf(2) ** -100
    for n in (2, 3, 6, 12, 24):
        big_n = 2 * n
        for q in (Fraction(1, 16), Fraction(31, 256), Fraction(1, 8)):
            for t in range(n + 1, big_n + 1):
                tail = bounds.match_tail(t, big_n, n, q)
                kl = kl_tail_bound(t, big_n, n, q)
                if t == big_n:
                    assert tail == kl
                else:
                    assert fraction_to_mpf(tail) <= kl * cushion


def test_kl_domain():
    with pytest.raises(ParameterError):
        kl_tail_bound(4, 5, 2, Fraction(1, 8))  # N != 2n
    with pytest.raises(ParameterError):
        kl_tail_bound(3, 6, 3, Fraction(1, 8))  # t == n
    with pytest.raises(ParameterError):
        kl_tail_bound(4, 6, 3, Fraction(0))  # q == 0 with t < N


# ---------------------------------------------------- exact comparison


def test_le_scaled_half_power():
    # 1/4 <= 2^-2 (equality), but 1/4 > 2^-2.5
    assert bounds.le_scaled_half_power(Fraction(1, 4), Fraction(1), 4)
    assert not bounds.le_scaled_half_power(Fraction(1, 4), Fraction(1), 5)
    # straddle 2^-2.5 ~ 0.17678 from both sides at odd n
    assert bounds.le_scaled_half_power(Fraction(17, 100), Fraction(1), 5)
    assert not bounds.le_scaled_half_power(Fraction(18, 100), Fraction(1), 5)
    with pytest.raises(ParameterError):
        bounds.le_scaled_half_power(Fraction(-1, 4), Fraction(1), 4)


# ------------------------------------------------------- full verifier


def test_verify_small_corner():
    report = bounds.verify_security(256, Fraction(1, 16))
    assert report.ok
    assert report.attack_ok and report.cover_ok and report.chain_ok
    assert report.collision_q == Fraction(31, 256)
    assert report.round_target == Fraction(1, 256)
    assert report.attack_argmax_t == 32
    assert report.attack_bound <= Fraction(1, 256)
    assert float(report.attack_bound) == pytest.approx(1.8365150089721924e-09, rel=1e-12)
    assert len(report.rows) == 25


def test_verify_large_corner():
    report = bounds.verify_security(2**50, Fraction(1, 10**12))
    assert report.ok
    assert report.params.shared_count == 132
    # q = (ceil(r/l) - 1) / 2^l with r = 2^50, l = 50
    assert report.collision_q == Fraction((2**50 + 49) // 50 - 1, 2**50)
    assert report.attack_bound <= report.round_target
    assert report.attack_argmax_t == 150


def test_verify_rows_match_bound():
    report = bounds.verify_security(512, Fraction(1, 64))
    assert report.attack_bound == max(p for *_, p in report.rows)
    products = {t: p for t, _, _, p in report.rows}
    assert report.attack_bound == products[report.attack_argmax_t]


def test_verify_rejects_out_of_domain():
    with pytest.raises(ParameterError):
        bounds.verify_security(255, Fraction(1, 16))
    with pytest.raises(ParameterError):
        bounds.verify_security(256, Fraction(1, 8))
