"""Adversarial game: exact per-view optima, brute-force cross-checks,
Monte-Carlo strategy suite, and mirror symmetry."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from etdr import adversary as adv
from etdr.au2hash import poly_hash
from etdr.bits import Message
from etdr.errors import ParameterError
from etdr.etproto import core
from etdr.etproto.keys import deal_subkeys
from etdr.params import derive_params, experimental_params

from oracles import CHI2_999, WILSON_Z99, wilson_interval as oracle_wilson

TINY = experimental_params(4, 2, 2)
TINY_CONFIGS = [
    (experimental_params(4, 2, 2), Fraction(7, 32)),
    (experimental_params(6, 2, 2), Fraction(3, 8)),
    (experimental_params(6, 3, 2), Fraction(1, 4)),
    (experimental_params(9, 3, 3), Fraction(37, 320)),
]


# ------------------------------------------------- independent oracle


def brute_force_optimum(params, cheater_keys, honest_msg):
    """Exhaust every submission vector, claim, overlap, and hidden-subkey
    assignment; apply the dispute rule inline. Returns (best win
    probability, optimal (submission, claim) or None when hopeless)."""
    big_n, n = params.subkey_count, params.shared_count
    l, r = params.subkey_bits, params.data_bits
    table = [[poly_hash(k, x, r, l) for x in range(1 << r)] for k in range(1 << l)]
    overlaps = list(combinations(range(big_n), n))
    hiddens = list(product(range(1 << l), repeat=big_n - n))
    worlds = len(overlaps) * len(hiddens)
    best, best_sw = Fraction(0), None
    for w in range(1 << r):
        if w == honest_msg:
            continue
        for s in product(range(1 << l), repeat=big_n):
            cc = sum(table[cheater_keys[j]][w] == s[j] for j in range(big_n))
            ch = sum(table[cheater_keys[j]][honest_msg] == s[j] for j in range(big_n))
            wins = 0
            for overlap in overlaps:
                if any(s[j] != table[cheater_keys[j]][honest_msg] for j in overlap):
                    continue  # comparison fails whatever the hidden keys are
                hc_shared = sum(
                    1 for j in overlap
                    if table[cheater_keys[j]][w] == table[cheater_keys[j]][honest_msg]
                )
                off = [j for j in range(big_n) if j not in overlap]
                for hidden in hiddens:
                    hc = hc_shared + sum(
                        1 for hk in hidden if table[hk][w] == table[hk][honest_msg]
                    )
                    # honest party is vindicated iff its submission survives
                    # (always, it is truthful) and either the cheater's data
                    # corroborates the honest story more than vice versa or
                    # the cheater's submission fails its own claim
                    if not (ch > hc or cc < big_n):
                        wins += 1
            val = Fraction(wins, worlds)
            if val > best:
                best, best_sw = val, (s, w)
    return best, best_sw


# ---------------------------------------------------- exact machinery


def test_cheat_bound_pinned_values():
    for params, want in TINY_CONFIGS:
        assert adv.proven_cheat_bound(params) == want


def test_exact_max_achieves_cheat_bound():
    # some view attains the bound exactly, none exceeds it
    for params, want in TINY_CONFIGS:
        report = adv.exact_game_value(params)
        assert report.exhaustive
        assert report.max_value == want
        assert report.within_bound


def test_exact_mean_regression_pins():
    pins = [
        Fraction(163, 1024),
        Fraction(43, 128),
        Fraction(851, 4096),
        Fraction(85257, 1048576),
    ]
    for (params, _), pin in zip(TINY_CONFIGS, pins):
        assert adv.exact_game_value(params).mean_value == pin


def test_brute_force_matches_closed_form():
    views = [(1, 1, 1, 2), (2, 2, 3, 3), (0, 1, 2, 3)]
    for keys in views:
        closed, _ = adv.per_view_exact_optimum(TINY, keys)
        brute, best_sw = brute_force_optimum(TINY, keys, honest_msg=5)
        assert brute == closed
        if best_sw is not None:
            # optimal submission collapses to the digest vector of the claim
            s_best, w_best = best_sw
            collapsed = core.hash_vector_for(
                TINY, keys, Message(w_best, TINY.data_bits)
            )
            assert tuple(collapsed) == s_best


def test_brute_force_view_value_ignores_honest_data():
    keys = (1, 1, 1, 2)
    vals = {brute_force_optimum(TINY, keys, m)[0] for m in (0, 5, 9, 15)}
    assert len(vals) == 1


def test_per_view_optimum_ignores_honest_data_by_construction():
    # the function does not even take the honest message; make sure the
    # strategy built on it stays legal for every honest message anyway
    rng = random.Random(3)
    for _ in range(20):
        world = adv.draw_world(TINY, rng)
        _, best_d = adv.per_view_exact_optimum(TINY, world.cheater_subkeys)
        assert best_d != 0


def test_difference_tables_structure():
    roots, counts = adv._difference_tables(6, 2)
    assert roots.shape == (64, 4)
    assert roots[0].all() and counts[0] == 4
    # a nonzero difference collides for at most degree-many keys
    assert counts[1:].max() <= 2
    rng = random.Random(9)
    for _ in range(50):
        d, k = rng.randrange(64), rng.randrange(4)
        assert roots[d, k] == (poly_hash(k, d, 6, 2) == 0)


def test_digest_table_matches_shipped_hash():
    # every message under every key, read the way the game reads it
    for params, _ in TINY_CONFIGS:
        r, l, big_n = params.data_bits, params.subkey_bits, params.subkey_count
        rows = adv._digest_rows(r, l)
        assert rows == adv._digest_table(r, l).tolist()
        key_lists = [
            tuple((first + j) % (1 << l) for j in range(big_n))
            for first in range(0, 1 << l, big_n)
        ]
        for m in range(1 << r):
            message = Message(m, r)
            for keys in key_lists:
                want = core.hash_vector_for(params, keys, message)
                assert adv._digest_vector(params, rows, keys, message) == want


def test_difference_tables_size_guard():
    with pytest.raises(ParameterError):
        adv._difference_tables(adv.MAX_EXACT_DATA_BITS + 1, 2)


def test_data_bits_equal_subkey_bits_makes_cheating_impossible():
    # single-block data: distinct messages never collide, so even the
    # EQUAL announcement is out of reach
    params = experimental_params(2, 2, 2)
    report = adv.exact_game_value(params)
    assert report.max_value == 0
    result = adv.play_game(params, adv.BestCollide(), 3000, seed=1)
    assert result.wins == 0


def test_exact_game_value_sampled_mode():
    params = experimental_params(12, 4, 3)
    r1 = adv.exact_game_value(params, sample=1500, seed=5)
    r2 = adv.exact_game_value(params, sample=1500, seed=5)
    assert not r1.exhaustive and r1.views == 1500
    assert (r1.mean_value, r1.max_value) == (r2.mean_value, r2.max_value)
    assert r1.within_bound


@pytest.mark.parametrize(
    "params", [c for c, _ in TINY_CONFIGS[:3]],
    ids=lambda p: f"{p.data_bits}-{p.shared_count}-{p.subkey_bits}",
)
def test_exhaustive_game_value_aggregates_the_per_view_optimum(params):
    # both readers of the exact ranks agree: the game value is the mean and
    # max of the per-view optimum over every subkey tuple
    views = list(product(range(1 << params.subkey_bits), repeat=params.subkey_count))
    values = [adv.per_view_exact_optimum(params, keys)[0] for keys in views]
    report = adv.exact_game_value(params)
    assert report.exhaustive and report.views == len(views)
    assert report.mean_value == sum(values) / len(views)
    assert report.max_value == max(values)


# ------------------------------------------------------- world dealing


def test_draw_world_shares_exactly_on_overlap():
    rng = random.Random(2)
    for _ in range(200):
        world = adv.draw_world(TINY, rng)
        overlap = set(world.shared_indices)
        assert len(overlap) == TINY.shared_count
        assert world.shared_indices == tuple(sorted(overlap))
        for j in range(TINY.subkey_count):
            if j in overlap:
                assert world.honest_subkeys[j] == world.cheater_subkeys[j]
        assert world.honest_message.bit_len == TINY.data_bits


def test_draw_world_deals_through_the_key_dealer():
    params = derive_params(256, Fraction(1, 16))
    world = adv.draw_world(params, random.Random(6))
    dealt = deal_subkeys(params, random.Random(6))
    assert (world.shared_indices, world.honest_subkeys, world.cheater_subkeys) == dealt


def test_draw_world_overlap_uniform():
    rng = random.Random(4)
    subsets = list(combinations(range(4), 2))
    counts = dict.fromkeys(subsets, 0)
    draws = 6000
    for _ in range(draws):
        counts[adv.draw_world(TINY, rng).shared_indices] += 1
    expect = draws / len(subsets)
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < CHI2_999[len(subsets) - 1]


# ---------------------------------------------------------- the rounds


def inline_round(params, world, s, w, digest):
    """The game's outcome from the dispute rules written out, with
    digest(k, x) the digest of message x under key k."""
    m_h, big_n = world.honest_message.value, params.subkey_count
    passed = all(
        s[j] == digest(world.honest_subkeys[j], m_h) for j in world.shared_indices
    )
    cc = sum(digest(world.cheater_subkeys[j], w) == s[j] for j in range(big_n))
    ch = sum(digest(world.cheater_subkeys[j], m_h) == s[j] for j in range(big_n))
    hc = sum(
        digest(world.honest_subkeys[j], w) == digest(world.honest_subkeys[j], m_h)
        for j in range(big_n)
    )
    return passed and not (ch > hc or cc < big_n)


def test_play_round_agrees_with_inline_rules():
    params = experimental_params(6, 2, 2)
    l, r = params.subkey_bits, params.data_bits
    table = [[poly_hash(k, x, r, l) for x in range(1 << r)] for k in range(1 << l)]
    strategy = adv.BestCollide()
    for trial in range(300):
        rng = random.Random(trial)
        world = adv.draw_world(params, rng)
        view = adv.CheaterView(params, world.honest_message, world.cheater_subkeys)
        s, claim = strategy.play(view, random.Random(trial))
        got = adv.play_round(params, world, strategy, random.Random(trial))
        want = inline_round(params, world, s, claim.value, lambda k, x: table[k][x])
        assert got == want


def test_wide_games_play_through_the_shipped_digest():
    # too wide for the game's digest table: every vector is hashed, and
    # the strategies that need no difference table still play
    params = experimental_params(64, 3, 8)
    assert adv._digest_rows(params.data_bits, params.subkey_bits) is None
    r, l = params.data_bits, params.subkey_bits
    for strategy in (adv.RandomClaim(), adv.SingleBitFlip(), adv.CopyHonestVector()):
        for trial in range(20):
            rng = random.Random(trial)
            world = adv.draw_world(params, rng)
            view = adv.CheaterView(params, world.honest_message, world.cheater_subkeys)
            s, claim = strategy.play(view, random.Random(trial))
            got = adv.play_round(params, world, strategy, random.Random(trial))
            want = inline_round(
                params, world, s, claim.value, lambda k, x: poly_hash(k, x, r, l)
            )
            assert got == want
        assert adv.play_game(params, strategy, 200, seed=4).within_bound


@lru_cache(maxsize=None)
def zero_differences(k, r, l):
    """zero_differences(k, r, l)[d]: key k hashes difference d to zero."""
    return tuple(poly_hash(k, d, r, l) == 0 for d in range(1 << r))


def most_collisions_oracle(params, keys, honest):
    """The honest data XOR the smallest nonzero difference that the most of
    `keys` hash to zero, read from poly_hash directly."""
    r, l = params.data_bits, params.subkey_bits
    hits = [
        sum(zero_differences(k, r, l)[d] for k in keys) for d in range(1 << r)
    ]
    return honest ^ hits.index(max(hits[1:]), 1)


@pytest.mark.parametrize("config", [(6, 3, 2), (9, 3, 3)], ids=["6-3-2", "9-3-3"])
def test_collision_strategies_pick_the_oracle_claim(config):
    params = experimental_params(*config)
    big_n, n = params.subkey_count, params.shared_count
    for seed in range(200):
        world = adv.draw_world(params, random.Random(seed))
        view = adv.CheaterView(params, world.honest_message, world.cheater_subkeys)
        keys, honest = view.subkeys, world.honest_message.value
        got = adv.BestCollide().choose(view, random.Random(seed))
        assert got == most_collisions_oracle(params, keys, honest)
        guess = random.Random(seed).sample(range(big_n), n)
        want = most_collisions_oracle(params, [keys[j] for j in guess], honest)
        assert adv.OverlapGuess().choose(view, random.Random(seed)) == want


def test_claim_matching_honest_data_is_rejected():
    class Concede(adv.Strategy):
        name = "concede"

        def choose(self, view, rng):
            return view.honest_message.value

    rng = random.Random(0)
    world = adv.draw_world(TINY, rng)
    with pytest.raises(ParameterError):
        adv.play_round(TINY, world, Concede(), rng)


def test_mirror_symmetry_identical_outcomes():
    as_bob = adv.play_game(TINY, adv.BestCollide(), 3000, seed=21, cheater="bob")
    as_alice = adv.play_game(TINY, adv.BestCollide(), 3000, seed=21, cheater="alice")
    assert as_bob.wins == as_alice.wins
    assert as_bob.outcome_digest == as_alice.outcome_digest


# SHA-256 over one line per (config, strategy, cheater) of
# repr(((r, n, l), name, cheater, wins, outcome_digest)), 1000 trials at
# seed 29, as the game played when every vector was hashed
GAME_OUTCOMES_SHA256 = "85ec5704241e7898506d0ab73b983418eae4c6d1e17d33b49e9f74696f82f379"


def test_game_outcomes_pinned():
    digest = hashlib.sha256()
    for params, _ in TINY_CONFIGS:
        config = (params.data_bits, params.shared_count, params.subkey_bits)
        for strategy in adv.ALL_STRATEGIES:
            for cheater in ("bob", "alice"):
                g = adv.play_game(params, strategy, 1000, seed=29, cheater=cheater)
                line = repr((config, strategy.name, cheater, g.wins, g.outcome_digest))
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GAME_OUTCOMES_SHA256


def test_play_game_reproducible():
    a = adv.play_game(TINY, adv.RandomClaim(), 500, seed=8)
    b = adv.play_game(TINY, adv.RandomClaim(), 500, seed=8)
    c = adv.play_game(TINY, adv.RandomClaim(), 500, seed=9)
    assert (a.wins, a.outcome_digest) == (b.wins, b.outcome_digest)
    assert a.outcome_digest != c.outcome_digest


def test_bad_round_arguments():
    rng = random.Random(0)
    world = adv.draw_world(TINY, rng)
    with pytest.raises(ParameterError):
        adv.play_round(TINY, world, adv.RandomClaim(), rng, cheater="ttp")
    with pytest.raises(ParameterError):
        adv.play_game(TINY, adv.RandomClaim(), 0)


# --------------------------------------------------------- monte carlo


def test_all_strategies_within_bound_small_runs():
    for params, _ in TINY_CONFIGS[:2]:
        for strategy in adv.ALL_STRATEGIES:
            result = adv.play_game(params, strategy, 4000, seed=13)
            assert result.within_bound, (params.data_bits, strategy.name)


def test_exact_best_tracks_exact_mean():
    result = adv.play_game(TINY, adv.ExactBest(), 50000, seed=11)
    lo, hi = result.wilson99
    mean = float(adv.exact_game_value(TINY).mean_value)
    assert lo <= mean <= hi


def test_copy_honest_vector_always_passes_comparison_rarely_survives():
    # it forges the EQUAL announcement every time, so only the dispute
    # stands between it and a win
    params = experimental_params(6, 3, 2)
    strategy = adv.CopyHonestVector()
    passes = 0
    wins = 0
    for t in range(2000):
        rng = random.Random((17 << 48) + t)
        world = adv.draw_world(params, rng)
        view = adv.CheaterView(params, world.honest_message, world.cheater_subkeys)
        s, claim = strategy.play(view, rng)
        passes += (
            core.et_compare(
                params,
                world.shared_indices,
                core.hash_vector_for(params, world.honest_subkeys, world.honest_message),
                s,
            )
            == core.ET_EQUAL
        )
        wins += adv.play_round(params, world, strategy, random.Random((17 << 48) + t))
    assert passes == 2000
    assert wins / 2000 < float(adv.proven_cheat_bound(params)) / 2


def test_wilson_interval_matches_oracle():
    for successes, trials in [(0, 100), (5, 100), (500, 1000), (999, 1000)]:
        got = adv.wilson_interval(successes, trials)
        want = oracle_wilson(successes, trials, WILSON_Z99)
        assert got == pytest.approx(want, rel=1e-12)
    assert adv.WILSON_Z99 == WILSON_Z99
    with pytest.raises(ParameterError):
        adv.wilson_interval(1, 0)


def test_within_bound_flags_a_break():
    honest = adv.GameResult(
        strategy="x", cheater="bob", trials=1000, wins=220, seed=0,
        cheat_bound=Fraction(7, 32), outcome_digest="",
    )
    broken = adv.GameResult(
        strategy="x", cheater="bob", trials=1000, wins=400, seed=0,
        cheat_bound=Fraction(7, 32), outcome_digest="",
    )
    assert honest.within_bound
    assert not broken.within_bound
