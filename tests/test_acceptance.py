"""Acceptance criteria, one test per criterion, each with its stated time
budget asserted:

 1. parameter derivation hits the corner values exactly        (< 1 s)
 2. one thousand honest sessions, all correct and clean        (< 60 s)
 3. digest collision bound exact over the difference grid      (< 60 s)
 4. authentication forgery game: exact optimum at 2^-4         (< 60 s)
 5. cheat-bound machinery over the full threshold grid         (< 60 s)
 6. adversarial game: exact optima and Monte-Carlo strategies  (< 600 s)
 7. measured traffic inside both communication budgets         (< 60 s)
 8. one thousand single-bit tamperings, every one detected     (< 60 s)
"""

import random
import time
from fractions import Fraction
from math import ceil

import mpmath

from etdr import adversary as adv
from etdr import bounds
from etdr.au2hash import collision_bound
from etdr.bits import Message
from etdr.itsmac import MacKey, forgery_bound, mac_tag_bits
from etdr.params import derive_params, experimental_params
from etdr.transport.channel import FaultPlan, run_session
from etdr.etproto.core import Verdict
from etdr.etproto.keys import generate_keys

from oracles import (
    binomial_tail_oracle,
    forgery_game_optimum,
    fraction_to_mpf,
    kl_tail_bound,
    rel_entropy_bits,
)

CORNER_SMALL = (256, Fraction(1, 16))
CORNER_LARGE = (2**50, Fraction(1, 10**12))

TINY_GAME_CONFIGS = [
    # (data_bits, shared_count, subkey_bits) -> exact cheating optimum
    ((4, 2, 2), Fraction(7, 32)),
    ((6, 2, 2), Fraction(3, 8)),
    ((6, 3, 2), Fraction(1, 4)),
    ((9, 3, 3), Fraction(37, 320)),
]


def test_c1_parameter_derivation_exact_corners():
    t0 = time.perf_counter()

    p = derive_params(*CORNER_SMALL)
    assert (p.shared_count, p.subkey_bits, p.subkey_count) == (24, 8, 48)
    assert p.total_key_bits == 2048
    assert p.et_comm_bits == 1028
    assert p.dr_comm_bits == 772

    p2 = derive_params(*CORNER_LARGE)
    assert (p2.shared_count, p2.subkey_bits, p2.subkey_count) == (132, 50, 264)
    assert p2.et_comm_bits == 27860

    for q in (p, p2):
        per_party = q.et_key_bits_per_party + q.sc_key_bits_per_party
        assert 2 * per_party == q.total_key_bits

    assert time.perf_counter() - t0 < 1.0


def test_c2_thousand_honest_sessions():
    t0 = time.perf_counter()
    params = derive_params(*CORNER_SMALL)
    for trial in range(1000):
        rng = random.Random(trial)
        m_a = Message(rng.getrandbits(256), 256)
        if trial % 2 == 0:
            m_b = m_a
        else:
            other = rng.getrandbits(256)
            while other == m_a.value:
                other = rng.getrandbits(256)
            m_b = Message(other, 256)
        secret = generate_keys(params, seed=trial)
        result = run_session(secret, m_a, m_b)
        assert result.clean, trial
        want = 0 if m_a.value == m_b.value else 1
        assert result.et_outcome_a == want == result.et_outcome_b, trial
        assert result.verdict_a is None and result.verdict_b is None
    assert time.perf_counter() - t0 < 60.0


def test_c3_collision_bound_exact_over_difference_grid():
    t0 = time.perf_counter()
    rng = random.Random(5)
    from etdr.au2hash import poly_hash

    for subkey_bits in (2, 3, 4):
        for data_bits in range(subkey_bits + 1, 4 * subkey_bits + 1):
            roots, counts = adv._difference_tables(data_bits, subkey_bits)
            blocks = ceil(data_bits / subkey_bits)
            bound = collision_bound(data_bits, subkey_bits)
            assert bound == Fraction(blocks - 1, 1 << subkey_bits)
            # every difference class stays under the bound, and some
            # difference attains it exactly
            assert int(counts[1:].max()) == blocks - 1
            for d in range(1, 1 << data_bits):
                assert Fraction(int(counts[d]), 1 << subkey_bits) <= bound
            # spot-check the table against direct digesting
            for _ in range(30):
                d = rng.randrange(1, 1 << data_bits)
                k = rng.randrange(1 << subkey_bits)
                assert roots[d, k] == (
                    poly_hash(k, d, data_bits, subkey_bits) == 0
                )
    assert time.perf_counter() - t0 < 60.0


def test_c4_mac_forgery_game_exact_optimum():
    t0 = time.perf_counter()

    def tagger(key, m, msg_bits):
        hash_key, pad = key
        return mac_tag_bits(MacKey(hash_key, pad, 4), m, msg_bits)

    keys = [(kh, p) for kh in range(256) for p in range(16)]
    optimum = forgery_game_optimum(tagger, keys, 8)
    assert optimum == Fraction(1, 16) == forgery_bound(8, 4)
    assert time.perf_counter() - t0 < 60.0


def test_c5_cheat_bound_machinery_grid():
    t0 = time.perf_counter()
    cushion = 1 + mpmath.mpf(2) ** -100
    qs = (Fraction(0), Fraction(1, 16), Fraction(31, 256), Fraction(1, 8))

    for n in range(2, 25):
        big_n = 2 * n
        for q in qs:
            best, argmax_t = bounds.attack_success_bound(big_n, n, q)
            assert 0 <= best <= 1
            # independent recount: integer-arithmetic binomial tail oracle
            recount = max(
                bounds.cover_prob(t, big_n, n)
                * binomial_tail_oracle(big_n - n, q.numerator, q.denominator, t - n)
                for t in range(n, big_n + 1)
            )
            assert best == recount
            assert (
                bounds.cover_prob(argmax_t, big_n, n)
                * bounds.match_tail(argmax_t, big_n, n, q)
                == best
            )
            # closed-form tail dominates the exact tail everywhere it is used
            if q > 0:
                for t in range(n + 1, big_n + 1):
                    tail = bounds.match_tail(t, big_n, n, q)
                    kl = kl_tail_bound(t, big_n, n, q)
                    if t == big_n:
                        assert tail == kl == q**n
                    else:
                        assert fraction_to_mpf(tail) <= kl * cushion
            else:
                assert kl_tail_bound(big_n, big_n, n, q) == 0

        # the entropy floor that anchors the closed-form chain
        for q in qs[1:]:
            for t in range(n, big_n + 1):
                p = Fraction(t - n, n)
                if p >= Fraction(1, 2):
                    assert rel_entropy_bits(p, q) >= mpmath.mpf(1) / 2

    assert bounds.verify_security(*CORNER_SMALL).ok
    assert bounds.verify_security(*CORNER_LARGE).ok
    assert time.perf_counter() - t0 < 60.0


def test_c6_adversarial_game_exact_and_monte_carlo():
    t0 = time.perf_counter()

    # exact: exhaustive view enumeration; optimum equals the bound at the
    # best view and never exceeds it anywhere
    for (r, n, l), want in TINY_GAME_CONFIGS:
        params = experimental_params(r, n, l)
        assert adv.proven_cheat_bound(params) == want
        report = adv.exact_game_value(params)
        assert report.exhaustive
        assert report.max_value == want
        assert report.within_bound

    # Monte-Carlo: every strategy at 1e5 trials, lower Wilson-99% limit
    # must not clear the bound
    base = experimental_params(4, 2, 2)
    for strategy in adv.ALL_STRATEGIES:
        result = adv.play_game(base, strategy, 100_000, seed=29)
        assert result.within_bound, strategy.name

    # the strongest strategy on the remaining configs
    for (r, n, l), _ in TINY_GAME_CONFIGS[1:]:
        params = experimental_params(r, n, l)
        result = adv.play_game(params, adv.ExactBest(), 100_000, seed=31)
        assert result.within_bound, (r, n, l)

    # consistency: the optimal strategy's empirical rate brackets the
    # exactly computed game value
    result = adv.play_game(base, adv.ExactBest(), 100_000, seed=11)
    lo, hi = result.wilson99
    assert lo <= float(adv.exact_game_value(base).mean_value) <= hi

    assert time.perf_counter() - t0 < 600.0


def test_c7_traffic_within_budgets():
    t0 = time.perf_counter()
    for data_bits, eps in ((256, Fraction(1, 16)), (1024, Fraction(1, 256))):
        params = derive_params(data_bits, eps)
        n, l = params.shared_count, params.subkey_bits
        secret = generate_keys(params, seed=1)
        m_a = Message(3, data_bits)
        m_b = Message(9, data_bits)
        result = run_session(secret, m_a, m_b, dispute=True)
        assert result.clean
        assert result.verdict_a == Verdict.UNDECIDABLE
        meter = result.meter
        assert meter.et_bits == 4 * n * l + 4 * (n + l) + 4
        assert meter.dr_bits == 2 * data_bits + 4 * (n + l) + 4
        assert meter.claim_bits == 2 * data_bits
        assert meter.et_within_budget and meter.dr_within_budget
        assert meter.et_bits <= params.et_comm_bits
        assert meter.dr_bits <= params.dr_comm_bits
    assert time.perf_counter() - t0 < 60.0


def test_c8_thousand_tamper_detections():
    t0 = time.perf_counter()
    params = derive_params(*CORNER_SMALL)
    message = Message(77, 256)
    for trial in range(1000):
        rng = random.Random(10_000 + trial)
        plan = FaultPlan(bit_flips={rng.randrange(4): rng.randrange(6000)})
        secret = generate_keys(params, seed=trial)
        result = run_session(secret, message, message, fault_plan=plan)
        # detection: someone froze; and nobody was misled into a wrong
        # outcome
        assert result.frozen, trial
        assert result.et_outcome_a in (None, 0), trial
        assert result.et_outcome_b in (None, 0), trial
    assert time.perf_counter() - t0 < 60.0
