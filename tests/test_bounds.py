"""Security-bound calculators against independent recounts.

attack_rows' cover column is recounted by enumerating subsets and
checked against the closed form C(t, n) / C(N, n), match_tail by an
integer-only Pascal-triangle tail, and the attack optimum by combining
the two. The relative-entropy bound, a test oracle, is checked for
dominance on the same grid the acceptance suite uses.
"""

import dataclasses
import hashlib
import itertools
from fractions import Fraction
from math import comb

import mpmath
import pytest

from etdr import bounds
from etdr.errors import ParameterError

from oracles import (
    binomial_tail_oracle,
    cover_prob,
    fraction_to_mpf,
    kl_tail_bound,
    rel_entropy_bits,
)


# ---------------------------------------------------------------- cover


def covers(big_n, n):
    """attack_rows' cover column, by threshold."""
    return {t: cover for t, cover, _, _ in bounds.attack_rows(big_n, n, Fraction(1, 3))}


def test_cover_prob_extremes():
    for n in (1, 2, 5, 24):
        big_n = 2 * n
        column = covers(big_n, n)
        assert column[big_n] == cover_prob(big_n, big_n, n) == 1
        assert column[n] == cover_prob(n, big_n, n) == Fraction(1, comb(big_n, n))


def test_cover_prob_pinned_half():
    assert covers(4, 2)[3] == cover_prob(3, 4, 2) == Fraction(1, 2)


def test_cover_prob_subset_enumeration():
    for big_n, n in [(4, 2), (6, 3), (8, 3), (9, 1), (7, 7)]:
        column = covers(big_n, n)
        assert sorted(column) == list(range(n, big_n + 1))
        for t in range(n, big_n + 1):
            hits = sum(
                1
                for overlap in itertools.combinations(range(big_n), n)
                if max(overlap) < t
            )
            assert column[t] == cover_prob(t, big_n, n) == Fraction(hits, comb(big_n, n))


def test_cover_prob_domain():
    # the counts attack_rows refuses, as match_tail does at any threshold
    for big_n, n in [(2, 3), (4, 0)]:
        with pytest.raises(ParameterError):
            bounds.attack_rows(big_n, n, Fraction(1, 3))
    for t in (1, 5):
        with pytest.raises(ParameterError):
            bounds.match_tail(t, 4, 2, Fraction(1, 3))


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


def test_tail_column_against_pascal_oracle_at_edges():
    # q = 0 and q = 1 (degenerate terms 0**0), an odd denominator, and
    # N = n (a single threshold whose tail is certain)
    for big_n, n, q in [
        (8, 4, Fraction(0)), (9, 3, Fraction(0)),
        (8, 4, Fraction(1)), (9, 3, Fraction(1)),
        (8, 4, Fraction(1, 3)), (11, 4, Fraction(1, 3)),
        (5, 5, Fraction(1, 3)), (1, 1, Fraction(0)), (3, 3, Fraction(1)),
    ]:
        rows = bounds.attack_rows(big_n, n, q)
        assert [t for t, *_ in rows] == list(range(n, big_n + 1))
        for t, _, tail, _ in rows:
            want = binomial_tail_oracle(
                big_n - n, q.numerator, q.denominator, t - n
            )
            assert tail == want
            assert bounds.match_tail(t, big_n, n, q) == want


def test_attack_rows_consistency():
    big_n, n, q = 16, 8, Fraction(31, 256)
    rows = bounds.attack_rows(big_n, n, q)
    assert [t for t, *_ in rows] == list(range(n, big_n + 1))
    for t, cover, tail, product in rows:
        assert cover == cover_prob(t, big_n, n)
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


def test_verify_flags_match_fraction_recount(monkeypatch):
    # Each flag is recounted from the Fraction rows as the bounds read, on
    # parameters moved off the derived ones: a larger collision bound, or
    # an epsilon swapped in after derivation. 273/1024 and 8425/32768 put
    # the largest tail above 3n/2 at n = 24 just above (squared ratio 1.5)
    # and just below (0.75) the closed form; the swapped epsilons put the
    # round target at the largest checked cover or at the attack bound,
    # and a hair below either.
    derive = bounds.derive_params
    hair = 1 - Fraction(1, 2**20)
    seen = set()
    for eps in (Fraction(1, 16), Fraction(1, 2**9)):
        for q in (Fraction(0), Fraction(31, 256), Fraction(8425, 32768),
                  Fraction(273, 1024), Fraction(5, 7), Fraction(1)):
            monkeypatch.setattr(bounds, "collision_bound", lambda *_, q=q: q)
            monkeypatch.setattr(bounds, "derive_params", derive)
            base = bounds.verify_security(256, eps)
            n = base.params.shared_count
            coeff = Fraction(n + 2, 2)
            cover = max(c for t, c, _, _ in base.rows if 2 * t <= 3 * n)
            swaps = [None, Fraction(1, 2), Fraction(1, 10**6)] + [
                16 * v * k for v in (cover, base.attack_bound) for k in (1, hair)
            ]
            for swapped in swaps:
                if swapped is not None and not 0 < swapped < 1:
                    continue
                monkeypatch.setattr(
                    bounds, "derive_params",
                    lambda *a, e=swapped: derive(*a) if e is None
                    else dataclasses.replace(derive(*a), epsilon=e),
                )
                report = bounds.verify_security(256, eps)
                target = report.round_target
                flags = (report.attack_ok, report.cover_ok, report.chain_ok)
                assert flags == (
                    report.attack_bound <= target,
                    all(c <= target for t, c, _, _ in report.rows if 2 * t <= 3 * n),
                    all(bounds.le_scaled_half_power(m, coeff, n)
                        for t, _, m, _ in report.rows if 2 * t > 3 * n)
                    and bounds.le_scaled_half_power(coeff, target * 2**n, n),
                )
                assert (report.attack_bound, report.attack_argmax_t) == (
                    base.attack_bound, base.attack_argmax_t
                )
                seen.add(flags)
    assert {(True, True, True), (True, True, False), (False, True, False),
            (True, False, False), (False, False, False)} <= seen


def test_verify_rejects_out_of_domain():
    with pytest.raises(ParameterError):
        bounds.verify_security(255, Fraction(1, 16))
    with pytest.raises(ParameterError):
        bounds.verify_security(256, Fraction(1, 8))


# SHA-256 of repr(report.rows) and of str(report.attack_bound), pinned from
# the calculator that summed one Fraction term per binomial term; every
# check passes at each of these inputs
PINNED_REPORTS = [
    (256, Fraction(1, 2**4), 32,
     "166f72afcad52759d7a5de784ad19fac2c80c74ed8d4a7c92240b1d371553eac",
     "fa07af1cc9d9a1659761b5446a58538ca63a2a5f086619e7b0a90a88c75bf8c1"),
    (256, Fraction(1, 2**40), 177,
     "2967dff877daaf728a7cf324ce6c1df1f9061899726228fb6d33356799ad6a51",
     "62699368727e1d7522a976525b552775d1176534c82a41545ff9173f3b6efc55"),
    (256, Fraction(1, 2**64), 274,
     "c4a24076c2b226854deac12671ba97bc682cefaad074245c783b27ab36eee60c",
     "c592dae201aea0c5c292c1d6891bfe62d7c6c45682786a2201954aceaec1a59e"),
    (2**20, Fraction(1, 2**40), 161,
     "3aab3944b28ca42861b5b0021d9df6bb8cadfc14c2acd80845139578b216609c",
     "23ac83ac399b9eb79cdcc530c78b62bf172fd4cbfdc8175356aa816f564f1c34"),
    (2**50, Fraction(1, 10**12), 150,
     "da90c881096155dfafce1d115adf336d42e51765a5c3a77086a10a181ea2d9cc",
     "6fb26a1e0b3fdcd8f494b6bc59e7fe43dfb1327ac3f2fe935a784d9ad6024ef6"),
]


@pytest.mark.parametrize(
    "data_bits, epsilon, argmax_t, rows_sha, bound_sha", PINNED_REPORTS
)
def test_verify_pinned_outputs(data_bits, epsilon, argmax_t, rows_sha, bound_sha):
    report = bounds.verify_security(data_bits, epsilon)
    assert hashlib.sha256(repr(report.rows).encode()).hexdigest() == rows_sha
    assert hashlib.sha256(str(report.attack_bound).encode()).hexdigest() == bound_sha
    assert report.attack_argmax_t == argmax_t
    assert (report.attack_ok, report.cover_ok, report.chain_ok) == (True, True, True)
