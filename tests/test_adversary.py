"""Adversarial game: exact per-view optima, brute-force cross-checks,
Monte-Carlo strategy suite, and mirror symmetry."""

import hashlib
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np
import pytest

from etdr import adversary as adv
from etdr.au2hash import collision_bound, hash_vector, poly_hash
from etdr.bits import Message
from etdr.errors import ParameterError
from etdr.etproto import core
from etdr.etproto.core import Verdict
from etdr.etproto.keys import deal_subkeys, generate_keys
from etdr.params import derive_params, experimental_params
from etdr.transport.channel import run_session

from oracles import CHI2_999, WILSON_Z99, _roots, difference_space_optima, difference_value
from oracles import pack_digests, unpack_digests
from oracles import wilson_interval as oracle_wilson

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
            assert collapsed == pack_digests(s_best, TINY.subkey_bits)


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


# the tiny configs and tabulated games at 4 and 5 subkey bits; then games
# past 5 subkey bits, which the game reads through hash_vector
TABULATED = [params for params, _ in TINY_CONFIGS] + [
    experimental_params(5, 2, 4),
    experimental_params(4, 3, 5),
]
UNTABULATED = [experimental_params(3, 2, 6), experimental_params(2, 3, 8)]


def test_digest_table_matches_shipped_hash():
    # every message under every key, read the way the game reads it
    for params in TABULATED + UNTABULATED:
        r, l, big_n = params.data_bits, params.subkey_bits, params.subkey_count
        rows, read = adv._digest_rows(r, l), adv._vector_reader(params)
        assert (rows is None) == (params in UNTABULATED)
        assert rows is None or read is rows
        key_lists = [
            tuple((first + j) % (1 << l) for j in range(big_n))
            for first in range(0, 1 << l, big_n)
        ]
        for m in range(1 << r):
            message = Message(m, r)
            for keys in key_lists:
                want = core.hash_vector_for(params, keys, message)
                assert read(keys, message) == want


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


@pytest.mark.parametrize("sample", [0, -3])
def test_exact_game_value_refuses_an_empty_sample(sample):
    with pytest.raises(ParameterError):
        adv.exact_game_value(TINY, sample=sample)


def test_sampled_game_refuses_subkeys_past_63_bits(monkeypatch):
    # the sample is drawn as int64 subkeys; a wider field is refused
    # before any draw, and 63 bits still plays
    assert adv.exact_game_value(experimental_params(8, 2, 63), sample=10).views == 10
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw happens
    with pytest.raises(ParameterError, match="at most 63 bits"):
        adv.exact_game_value(experimental_params(8, 2, 64), sample=10)


def direct_optimum(params, keys):
    """The per-view optimum scored in difference space on the view as
    given, past every cache."""
    return difference_space_optima(params, [keys])[0]


@pytest.mark.parametrize(
    "config",
    [(4, 2, 2), (6, 2, 2), (6, 3, 2), (9, 3, 3), (7, 3, 3), (11, 2, 4), (2, 2, 2), (4, 32, 1)],
    ids=lambda c: "-".join(map(str, c)),
)
def test_profile_scoring_matches_difference_space_on_every_multiset(config):
    # (7,3,3) and (11,2,4) end in a partial block; (2,2,2) is one block, so
    # no nonzero difference has a root; (4,32,1) has more blocks than keys,
    # so a root set holds at most the 2 field values. The claimed
    # difference attains the optimum in difference space, and its roots
    # there are the stated root set
    params = experimental_params(*config)
    keys = range(1 << params.subkey_bits)
    roots = _roots(params.data_bits, params.subkey_bits)
    multisets = list(combinations_with_replacement(keys, params.subkey_count))
    want = [
        value
        for base in range(0, len(multisets), 256)
        for value, _ in difference_space_optima(params, multisets[base : base + 256])
    ]
    got = [adv.per_view_exact_optimum(params, m) for m in multisets]
    assert [value for value, _ in got] == want
    for m, (value, d) in zip(multisets, got):
        assert d != 0 and difference_value(params, m, d) == value
        _, stated = adv._best_root_set(params, m)
        assert np.flatnonzero(roots[d]).tolist() == sorted(stated)


def test_view_readers_ignore_the_order_of_the_subkeys():
    # every view of (6,3,2) is some ordering of a multiset; whichever
    # ordering filled the cache, each reads the same answers, and they
    # are the optimum difference space gives its own order
    params = experimental_params(6, 3, 2)
    roots = _roots(params.data_bits, params.subkey_bits)
    honest = Message(0b101101, params.data_bits)
    first = {}
    for keys in product(range(1 << params.subkey_bits), repeat=params.subkey_count):
        value, d = adv.per_view_exact_optimum(params, keys)
        assert value == direct_optimum(params, keys)[0] == difference_value(params, keys, d)
        covered = roots[:, list(keys)].sum(axis=1)
        view = adv.CheaterView(params, honest, keys)
        claim = adv.BestCollide().choose(view, random.Random(0))
        assert claim != honest.value and covered[claim ^ honest.value] == covered[1:].max()
        answers = (value, d, claim)
        assert first.setdefault(tuple(sorted(keys)), answers) == answers


def test_exhaustive_game_value_stays_exact_past_int64():
    # 64 one-bit subkeys: 2^64 views, 65 multisets; the mean weighs each
    # count of ones by its binomial coefficient
    params = experimental_params(2, 32, 1)
    report = adv.exact_game_value(params)
    assert report.exhaustive and report.views == 2**64
    want = sum(
        comb(64, ones) * adv.per_view_exact_optimum(params, (0,) * (64 - ones) + (1,) * ones)[0]
        for ones in range(65)
    ) / 2**64
    assert isinstance(report.mean_value, Fraction)
    assert report.mean_value == want
    assert report.max_value == report.cheat_bound


def test_cheat_bound_clamps_a_collision_bound_past_one():
    # 4 one-bit blocks: the digest difference has degree up to 3, so the
    # count bound reads 3/2 of the 2 keys; every key collides, and the
    # cheater wins every view
    params = experimental_params(4, 32, 1)
    assert collision_bound(4, 1) == Fraction(3, 2)
    assert adv.proven_cheat_bound(params) == 1
    report = adv.exact_game_value(params)
    assert report.cheat_bound == report.mean_value == report.max_value == 1


def test_sampled_game_value_aggregates_the_oracle_over_its_draws(monkeypatch):
    # chunks of 700 draws: profiles recur across chunks, and the last
    # chunk is partial; the game must equal the difference-space optimum
    # of each view it drew, averaged
    monkeypatch.setattr(adv, "_VIEW_CHUNK", 700)
    params = experimental_params(9, 3, 3)
    rng = np.random.default_rng(7)
    views = np.concatenate([
        rng.integers(0, 8, size=(min(700, 2500 - base), 6), dtype=np.int64)
        for base in range(0, 2500, 700)
    ])
    values = [value for value, _ in difference_space_optima(params, views.tolist())]
    report = adv.exact_game_value(params, sample=2500, seed=7)
    assert report.views == 2500
    assert (report.mean_value, report.max_value) == (sum(values) / 2500, max(values))


def test_exhaustive_profiles_count_every_view_once():
    # the partitions of N into at most 2^l parts, weighted by their subkey
    # tuples, cover the view space: 2^(l N) views in all. 24 subkeys over
    # 16 values leave out the 45 partitions of 24 into more than 16 parts
    for config, partitions in [((9, 3, 3), 11), ((16, 4, 4), 22), ((2, 32, 1), 33),
                               ((24, 12, 4), 1575 - 45)]:
        params = experimental_params(*config)
        profiles = list(adv._exhaustive_profiles(params))
        assert len(profiles) == len({p for p, _ in profiles}) == partitions
        assert all(sum(p) == params.subkey_count for p, _ in profiles)
        assert sum(views for _, views in profiles) == 2 ** (
            params.subkey_bits * params.subkey_count
        )


def test_partition_count_is_the_number_of_profiles_walked():
    for config in [(9, 3, 3), (16, 4, 4), (2, 32, 1), (24, 12, 4), (4, 2, 2)]:
        params = experimental_params(*config)
        walked = sum(1 for _ in adv._exhaustive_profiles(params))
        assert adv._partition_count(params.subkey_count, 1 << params.subkey_bits) == walked
    # the corner's 48 subkeys over 256 values stay under the cap (CI walks them)
    assert adv._partition_count(48, 256) == 147_273 <= adv._MAX_EXACT_PROFILES


def test_exhaustive_game_over_the_profile_cap_is_refused_at_once():
    # 264 subkeys over 256 values: about 6.7e14 profiles, a walk without end
    params = derive_params(256, Fraction(1, 2**40))
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="sample the views instead"):
        adv.exact_game_value(params)
    assert time.perf_counter() - start < 1.0
    assert adv.exact_game_value(params, sample=3, seed=1).views == 3


def test_sampled_game_at_the_corner_attains_the_bound():
    # the paper's corner, r = 256 at 2^-4: 48 subkeys of 8 bits, and 32
    # blocks, so a root set holds up to 31 values; the best view meets
    # the proven bound exactly
    params = derive_params(256, Fraction(1, 16))
    report = adv.exact_game_value(params, sample=200, seed=1)
    assert report.max_value == adv.proven_cheat_bound(params)


def test_sampled_game_at_2_minus_40_is_zero():
    # r = 256 at 2^-40: 264 subkeys over 256 values; 31 values never hold
    # the 132 an overlap needs, so no view can win
    params = derive_params(256, Fraction(1, 2**40))
    report = adv.exact_game_value(params, sample=2000, seed=1)
    assert report.max_value == 0 and report.within_bound


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


def inline_round(params, world, packed, w, digest):
    """The game's outcome from the dispute rules written out, with
    digest(k, x) the digest of message x under key k."""
    m_h, big_n = world.honest_message.value, params.subkey_count
    s = unpack_digests(packed, params.subkey_bits, big_n)
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


@pytest.mark.parametrize("cheater", ["bob", "alice"])
@pytest.mark.parametrize("config", [(6, 3, 2), (64, 3, 8)], ids=lambda c: "-".join(map(str, c)))
def test_play_round_agrees_with_a_real_session(config, cheater):
    # the game's round and a session through the shipped dealer, runners
    # and referee agree on every deal: the cheater submits the vector of
    # what it sends (its claim, or the honest data for copy-honest-vector)
    # and reveals its claim, and the honest party reveals its data
    params = experimental_params(*config)
    r = params.data_bits
    honest_wins = Verdict.ALICE_CORRECT if cheater == "bob" else Verdict.BOB_CORRECT
    equal = wins = 0
    for strategy in adv.ALL_STRATEGIES:
        for seed in range(200):
            secret = generate_keys(params, seed)
            honest, cheating = (secret.alice, secret.bob)[:: 1 if cheater == "bob" else -1]
            m_h = Message(random.Random(seed).getrandbits(r), r)
            world = adv.World(secret.shared_indices, honest.subkeys, cheating.subkeys, m_h)
            view = adv.CheaterView(params, m_h, cheating.subkeys)
            _, claim = strategy.play(view, random.Random(seed))
            sent = m_h if strategy.submits_honest_vector else claim
            if cheater == "bob":
                res = run_session(secret, m_h, sent, dispute=True, claim_b=claim)
            else:
                res = run_session(secret, sent, m_h, dispute=True, claim_a=claim)
            assert res.clean and res.verdict_a == res.verdict_b
            equal += res.et_outcome_a == core.ET_EQUAL
            won = res.et_outcome_a == core.ET_EQUAL and res.verdict_a != honest_wins
            wins += won
            got = adv.play_round(params, world, strategy, random.Random(seed), cheater)
            assert got == won, (strategy.name, seed)
    # copy-honest-vector alone is announced equal every time, and the
    # root-set strategies win some deals in both configs
    assert equal >= 200 and wins > 0


def test_wide_games_play_through_the_shipped_digest():
    # too wide for the game's digest table: every vector is hashed, and
    # every strategy plays
    params = experimental_params(64, 3, 8)
    assert adv._digest_rows(params.data_bits, params.subkey_bits) is None
    r, l = params.data_bits, params.subkey_bits
    for strategy in adv.ALL_STRATEGIES:
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


def stated_root_set(params, strategy, keys):
    """The root set a strategy states for its view's subkeys."""
    multiset = tuple(sorted(keys))
    if isinstance(strategy, adv.ExactBest):
        return set(adv._best_root_set(params, multiset)[1])
    return set(adv._held(multiset)[0][: adv._most_roots(params)])


@pytest.mark.parametrize("epsilon", [Fraction(1, 16), Fraction(1, 2**40)], ids=["2^-4", "2^-40"])
def test_root_set_claims_play_as_predicted_at_the_corner(epsilon):
    # Monte Carlo sees no win at r = 256, but each trial's play follows
    # from the claim's root set S through the shipped functions: both
    # parties' lanes of claim and honest data agree exactly where their
    # subkey is in S; the comparison says equal exactly when the overlap
    # lies inside T, the cheater's positions in S; and the verdict weighs
    # |T| against the honest party's positions in S
    params = derive_params(256, epsilon)
    big_n, l = params.subkey_count, params.subkey_bits
    for seed in range(30):
        world = adv.draw_world(params, random.Random(seed))
        honest, cheater = world.honest_subkeys, world.cheater_subkeys
        m_h = world.honest_message
        view = adv.CheaterView(params, m_h, cheater)
        for strategy in (adv.ExactBest(), adv.BestCollide()):
            claim = Message(strategy.choose(view, random.Random(seed)), params.data_bits)
            roots = stated_root_set(params, strategy, cheater)
            assert claim != m_h and len(roots) <= adv._most_roots(params)
            for keys in (honest, cheater):
                agree = [
                    a == b
                    for a, b in zip(
                        unpack_digests(core.hash_vector_for(params, keys, claim), l, big_n),
                        unpack_digests(core.hash_vector_for(params, keys, m_h), l, big_n),
                    )
                ]
                assert agree == [k in roots for k in keys]
            t_set = {j for j in range(big_n) if cheater[j] in roots}
            honest_roots = sum(k in roots for k in honest)
            submitted = core.hash_vector_for(params, cheater, claim)
            honest_vec = core.hash_vector_for(params, honest, m_h)
            compared = core.et_compare(params, world.shared_indices, honest_vec, submitted)
            assert (compared == core.ET_EQUAL) == (set(world.shared_indices) <= t_set)
            counts = (
                core.match_count(params, honest, m_h, honest_vec),
                core.match_count(params, honest, claim, honest_vec),
                core.match_count(params, cheater, m_h, submitted),
                core.match_count(params, cheater, claim, submitted),
            )
            assert counts == (big_n, honest_roots, len(t_set), big_n)
            want = (core.Verdict.ALICE_CORRECT if len(t_set) > honest_roots
                    else core.Verdict.BOB_CORRECT if honest_roots > len(t_set)
                    else core.Verdict.UNDECIDABLE)
            verdict = core.dr_verdict(
                params, m_h, claim, honest_vec, submitted, honest, cheater,
                lambda keys, m: hash_vector(keys, m.value, params.data_bits, l))
            assert verdict == want


@lru_cache(maxsize=None)
def zero_differences(k, r, l):
    """zero_differences(k, r, l)[d]: key k hashes difference d to zero."""
    return tuple(poly_hash(k, d, r, l) == 0 for d in range(1 << r))


def collisions(params, keys, d):
    """How many of `keys` hash difference d to zero, read from poly_hash
    directly."""
    r, l = params.data_bits, params.subkey_bits
    return sum(zero_differences(k, r, l)[d] for k in keys)


@pytest.mark.parametrize("config", [(6, 3, 2), (9, 3, 3)], ids=["6-3-2", "9-3-3"])
def test_collision_strategies_pick_the_oracle_claim(config):
    # each claim collides on as many positions as the best nonzero
    # difference does, over every one
    params = experimental_params(*config)
    big_n, n = params.subkey_count, params.shared_count
    differences = range(1, 1 << params.data_bits)
    for seed in range(200):
        world = adv.draw_world(params, random.Random(seed))
        view = adv.CheaterView(params, world.honest_message, world.cheater_subkeys)
        keys, honest = view.subkeys, world.honest_message.value
        guess = random.Random(seed).sample(range(big_n), n)
        for strategy, aimed in ((adv.BestCollide(), keys),
                                (adv.OverlapGuess(), [keys[j] for j in guess])):
            d = strategy.choose(view, random.Random(seed)) ^ honest
            best = max(collisions(params, aimed, e) for e in differences)
            assert d != 0 and collisions(params, aimed, d) == best


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
# seed 29, as the game played once every claim came from a root set
GAME_OUTCOMES_SHA256 = "1a347653abc003db864e879372ff9806cae3b38a9e120217b98df97cac24a684"


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


@pytest.mark.parametrize("cheater", ["bob", "alice"])
@pytest.mark.parametrize("strategy", adv.ALL_STRATEGIES, ids=lambda s: s.name)
def test_play_game_plays_trial_t_with_a_fresh_generator(strategy, cheater):
    # the documented contract, rebuilt one fresh generator a trial and
    # one digest update a trial, as play_game first played it
    params, seed, trials = experimental_params(6, 3, 2), 7, 300
    digest, wins = hashlib.sha256(), 0
    for t in range(trials):
        rng = random.Random((seed << 48) + t)
        win = adv.play_round(params, adv.draw_world(params, rng), strategy, rng, cheater)
        wins += win
        digest.update(b"\x01" if win else b"\x00")
    g = adv.play_game(params, strategy, trials, seed=seed, cheater=cheater)
    assert (g.trials, g.wins, g.outcome_digest) == (trials, wins, digest.hexdigest())


def test_play_game_starts_trial_t_in_its_generators_state(monkeypatch):
    # play_game reseeds one generator through the C base's seed, which
    # must leave the whole state, gauss_next included, as
    # random.Random((seed << 48) + t) starts
    params, seed, states = experimental_params(6, 3, 2), 7, []
    draw_world = adv.draw_world

    def spy(params, rng):
        states.append(rng.getstate())
        return draw_world(params, rng)

    monkeypatch.setattr(adv, "draw_world", spy)
    adv.play_game(params, adv.RandomClaim(), 6, seed=seed)
    assert states == [random.Random((seed << 48) + t).getstate() for t in range(6)]


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


# ------------------------------------------------ regression pins
# taken from the game before views were scored once per subkey multiset;
# the sampled values depend on every draw of default_rng(seed)


@pytest.mark.parametrize(
    "seed, want",
    [
        (1, (Fraction(325553, 4000000), Fraction(37, 320))),
        (2, (Fraction(650147, 8000000), Fraction(37, 320))),
        (3, (Fraction(40693, 500000), Fraction(37, 320))),
    ],
)
def test_sampled_game_value_pinned_9_3_3(seed, want):
    report = adv.exact_game_value(experimental_params(9, 3, 3), sample=50000, seed=seed)
    assert not report.exhaustive and report.views == 50000
    assert (report.mean_value, report.max_value) == want


def test_sampled_game_value_pinned_12_4_3():
    report = adv.exact_game_value(experimental_params(12, 4, 3), sample=1500, seed=5)
    assert (report.mean_value, report.max_value) == (
        Fraction(17796707, 215040000),
        Fraction(5913, 57344),
    )


# (wins, outcome_digest) per strategy at (6,3,2), 1000 trials, seed 41
OUTCOMES_6_3_2 = {
    "random-claim": (23, "32280bb1a63a1d864d743a775149a840de72b88c4e397c31c1967351e04d2ca5"),
    "single-bit-flip": (4, "1ab705b109e84e6a7b37ad587c39d0ab2882bb8c8f3b8a3e1c80e5a83c1cd500"),
    "best-collide": (219, "a1c8870786e19b0b1b8491bdf1e43bc7456c12fa0eacedf2a1e7c830c18fe71d"),
    "exact-best": (218, "f02d072006a7895168a9a581fad3361c1fad84d9331eeeb32415689fabf47de8"),
    "overlap-guess": (156, "3e4c8475a5995353463f69d9b94ec8225d94da409d8747f25f81c24edf8f6552"),
    "copy-honest-vector": (1, "c18a3d40e64cd29916edd8b774fa04ba51a430002d3d00f4e355694e22171bca"),
}


@pytest.mark.parametrize("cheater", ["bob", "alice"])
def test_strategy_outcomes_pinned_6_3_2(cheater):
    params = experimental_params(6, 3, 2)
    got = {}
    for strategy in adv.ALL_STRATEGIES:
        g = adv.play_game(params, strategy, 1000, seed=41, cheater=cheater)
        got[strategy.name] = (g.wins, g.outcome_digest)
    assert got == OUTCOMES_6_3_2
