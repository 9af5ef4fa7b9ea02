"""Adversarial game harness for the equality-testing protocol.

The game: the cheater holds data that differs from the honest party's,
knows the honest party's data and its own subkeys, and wants the
comparison phase to announce EQUAL while surviving a dispute in which
the honest party reveals truthfully. The cheater never sees which subkey
positions overlap or the honest party's off-overlap subkeys. The cheater
wins if the announcement is EQUAL and the dispute verdict does not
vindicate the honest party. Game rules: the cheater's revealed claim
must differ from the honest data (claiming the honest data verbatim is
a concession, not a cheat).

Surviving the dispute requires the cheater's stored submission to match
its own claim on every position, so an optimal submission is the digest
vector of whatever it will later claim; the brute-force test confirms
this collapse. A claim w then wins exactly when the hidden overlap falls
inside T = {positions whose subkey hashes w and the honest data alike}
and the honest party's hidden subkeys produce at least |T| - n further
agreements. Both events have exact rational probabilities, which is what
the per-view calculators below evaluate.

Digests are linear over GF(2) in the message, so T depends only on the
XOR difference d between claim and honest data. Read d's blocks as a
polynomial's coefficients: position j lies in T when the cheater's
subkey there is a root of d, and d wins with the attack_rows product at
threshold t = |T| and q = s/2^l, s its roots in the field, which grows
with s at fixed t. A nonzero d of ceil(r/l) blocks has at most
M = min(blocks - 1, 2^l) roots, and every set of at most M field values
is the root set of one: the product of (x - v) over the set fits, its
leading 1 in bit 0 of the last block, even a partial one. So a view's
value is the best product over sets of at most M values, padded with
values the view does not hold, and depends only on the view's profile,
how often it holds each distinct subkey: `_profile_value` finds it by a
subset sum. `exact_game_value` scores each profile once, over the
partitions of N or the profiles of seeded draws, and enumerates no
difference, so it plays at any size.

The strategies build their claims from root sets too: a set S becomes
the difference whose blocks are the coefficients of the product of
(x - s) over S, never 0. `ExactBest` takes a best set of its view, and
`BestCollide` and `OverlapGuess` the M values their subkeys hold most
often, which no nonzero difference covers more of. So every strategy
plays at any size.

Up to 5 subkey bits and 2^16 entries, the game reads each digest vector
from one cached row per message: the shipped hash_vector under every
key, filled by the same linearity, doubling over the bit basis. A read
is one bytes.translate of the subkeys through the message's row, parsed
as base-2^l digits by int(), so no lane passes through the interpreter.
Wider games call hash_vector for each vector. Either way a round runs
through the shipped digest, dealer and comparison, and rules as the
referee does: core.dr_verdict decides, reading each claim under its own
party's subkeys and the claims' difference under both only when both
parties reproduce their submissions. Only the sampled exact game imports
numpy.

A trial costs little more than its seeded generator. play_game reseeds
one random.Random per trial through the C base's seed, which leaves it in
the state that random.Random((seed << 48) + t) starts in, and World and
CheaterView are named tuples.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import NamedTuple

from .au2hash import collision_bound, hash_vector
from .bits import Message, pack_lanes, unpack_lanes
from .bounds import attack_rows, attack_success_bound
from .errors import ParameterError
from .etproto import core
from .etproto.keys import deal_subkeys
from .gf2field import GF2
from .params import Params

WILSON_Z99 = 2.5758293035489004

# views the sampled exact game draws per call; the sample depends on it
_VIEW_CHUNK = 1024
# subkey multisets whose claims the strategies keep, and profiles whose
# values the exact game keeps
_VIEW_CACHE = 4096
# The game reads its digest vectors from a (messages x keys) table of at
# most 2^16 entries and 5-bit keys, which covers every tiny game; wider
# games, which only `etdr attack` with chosen widths plays, hash each vector.
_GAME_TABLE_MAX_BITS = 16
# Profiles the exhaustive exact game may walk: the paper's corner,
# (256, 2^-4), has 147,273 and took 6-10 s (2-CPU host). Above the cap the
# walk would run for minutes to ages (264 subkeys over 256 values at
# 2^-40), so the game refuses it and asks for a sample.
_MAX_EXACT_PROFILES = 1 << 18


# ------------------------------------------------------------ raw worlds


class World(NamedTuple):
    """One dealt game instance, role-neutral."""

    shared_indices: tuple[int, ...]
    honest_subkeys: tuple[int, ...]
    cheater_subkeys: tuple[int, ...]
    honest_message: Message


def draw_world(params: Params, rng: random.Random) -> World:
    """Deal a world with the dealer's own draws, then the honest data."""
    overlap, honest, cheater = deal_subkeys(params, rng)
    message = Message(rng.getrandbits(params.data_bits), params.data_bits)
    return World(overlap, honest, cheater, message)


class CheaterView(NamedTuple):
    """Everything the cheater is allowed to see."""

    params: Params
    honest_message: Message
    subkeys: tuple[int, ...]


# ------------------------------------------------------- digest vectors


@lru_cache(maxsize=16)
def _digest_rows(data_bits: int, subkey_bits: int) -> core.VectorReader | None:
    """read(subkeys, message), the packed digest vector of `message` under
    `subkeys` from one row per message; None above 5 subkey bits or
    2^_GAME_TABLE_MAX_BITS entries.

    Row m is a bytes.translate table that maps a key to the digit, in base
    2^l, of m's digest under it, so a vector is the subkeys' bytes, last
    lane first, translated and parsed by int() in C."""
    if subkey_bits > 5 or data_bits + subkey_bits > _GAME_TABLE_MAX_BITS:
        return None
    keys = list(range(1 << subkey_bits))
    # the shipped digest under every key is GF(2)-linear in the message, so
    # doubling over the bit basis fills the whole message space
    vectors = [0]
    for bit in range(data_bits):
        basis = hash_vector(keys, 1 << bit, data_bits, subkey_bits)
        vectors += [vector ^ basis for vector in vectors]
    digits = b"0123456789abcdefghijklmnopqrstuv".ljust(256, b"\0")
    pad = bytes(256 - len(keys))  # keys stop at 2^l
    rows = [bytes(unpack_lanes(vector, subkey_bits, len(keys))).translate(digits) + pad
            for vector in vectors]
    base = 1 << subkey_bits
    return lambda subkeys, message: int(
        bytes(subkeys[::-1]).translate(rows[message.value]), base)


def _vector_reader(params: Params) -> core.VectorReader:
    """read(subkeys, message), the packed digest vector of `message` under
    `subkeys`: from the game's table, or the shipped digest for games too
    wide to tabulate."""
    return (_digest_rows(params.data_bits, params.subkey_bits)
            or (lambda subkeys, message: hash_vector(
                subkeys, message.value, params.data_bits, params.subkey_bits)))


def _most_roots(params: Params) -> int:
    """M: the most roots a nonzero difference of ceil(r/l) blocks has."""
    return min(-(-params.data_bits // params.subkey_bits) - 1, 1 << params.subkey_bits)


def _denominator(params: Params) -> int:
    """C(N, n) * 2^(l n): every attack_rows product at q = s/2^l is an
    integer over it, so the game compares and sums integers."""
    n = params.shared_count
    return comb(params.subkey_count, n) << params.subkey_bits * n


@lru_cache(maxsize=64)
def _products(params: Params, roots: int) -> tuple[int, ...]:
    """products[t] for t = 0..N: attack_rows' cover * tail at threshold t
    and q = roots/2^l, over _denominator; 0 below the overlap size."""
    den, q = _denominator(params), Fraction(roots, 1 << params.subkey_bits)
    rows = attack_rows(params.subkey_count, params.shared_count, q)
    return (0,) * params.shared_count + tuple(p.numerator * (den // p.denominator)
                                              for *_, p in rows)


def _held(multiset: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """(values, profile): the distinct values of a subkey tuple, most held
    first, ties in the order first met (the smaller, if it is sorted); and
    its profile, how often each is held, largest first."""
    counts = Counter(multiset)
    values = sorted(counts, key=counts.__getitem__, reverse=True)  # stable
    return values, tuple(counts[v] for v in values)


@lru_cache(maxsize=_VIEW_CACHE)
def _profile_value(params: Params, profile: tuple[int, ...]) -> int:
    """The exact value, over _denominator, of the views with this profile:
    the best product over root sets of at most M values (module docstring)."""
    most = _most_roots(params)
    if sum(profile[:most]) < params.shared_count:
        return 0  # no root set holds the overlap
    # bit t of reach[h]: some h held values are held t times in all
    reach = [1] + [0] * most
    for i, m in enumerate(profile):
        for h in range(min(i + 1, most), 0, -1):
            reach[h] |= reach[h - 1] << m
    # values the view does not hold pad a set of h held ones to `size`
    unheld = (1 << params.subkey_bits) - len(profile)
    sums_by_size: dict[int, int] = {}
    for h in range(1, min(most, len(profile)) + 1):
        size = min(most, h + unheld)
        sums_by_size[size] = sums_by_size.get(size, 0) | reach[h]
    return max(
        (p for size, sums in sums_by_size.items()
         for t, p in enumerate(_products(params, size)) if sums >> t & 1),
        default=0,
    )


def per_view_exact_optimum(
    params: Params, subkeys: tuple[int, ...]
) -> tuple[Fraction, int]:
    """Best exact win probability over every allowed claim for this view,
    with the difference of a best root set, which attains it. Independent
    of the honest data and of the order of the subkeys."""
    return _multiset_optimum(params, tuple(sorted(subkeys)))


@lru_cache(maxsize=_VIEW_CACHE)
def _multiset_optimum(params: Params, multiset: tuple[int, ...]) -> tuple[Fraction, int]:
    """per_view_exact_optimum of the sorted subkeys, the cache's key."""
    value, roots = _best_root_set(params, multiset)
    return Fraction(value, _denominator(params)), _root_difference(params, roots)


def _best_root_set(params: Params, multiset: tuple[int, ...]) -> tuple[int, list[int]]:
    """(value, S): the view's value over _denominator and a root set that
    attains it: h held values, first in _held's order, held t times in all,
    for the first (h, t) whose product is the value, padded with the
    smallest unheld values. _profile_value only scores such sets."""
    values, profile = _held(multiset)
    value, most = _profile_value(params, profile), _most_roots(params)
    unheld = (1 << params.subkey_bits) - len(values)
    roots, size = [], min(most, unheld)  # a set of unheld values scores 0
    if value:
        # after[i][h], bit t: some h of the values from i on are held t times
        after = [[1] + [0] * most]
        for m in reversed(profile):
            nxt = after[0]
            after.insert(0, [1] + [nxt[h] | nxt[h - 1] << m for h in range(1, most + 1)])
        # by size, bit t: the product at threshold t is the value
        hits = {size: sum(1 << t for t, p in enumerate(_products(params, size)) if p == value)
                for size in {min(most, h + unheld) for h in range(1, most + 1)}}
        for h in range(1, most + 1):
            size = min(most, h + unheld)
            if found := after[0][h] & hits[size]:
                break
        t = (found & -found).bit_length() - 1
        for i, m in enumerate(profile):
            if h and t >= m and after[i + 1][h - 1] >> t - m & 1:
                roots.append(values[i])
                h, t = h - 1, t - m
    held = set(values)
    padding = (v for v in range(1 << params.subkey_bits) if v not in held)
    return value, roots + [next(padding) for _ in range(size - len(roots))]


def _root_difference(params: Params, roots) -> int:
    """The difference whose blocks, laid out as chunk_blocks reads them,
    are the coefficients of the product of (x - s) over `roots` in GF(2^l):
    its digest is 0 under exactly those keys. The leading 1 lands in bit 0
    of block |roots| <= M <= blocks - 1, so it fits and is never 0."""
    field = GF2.get(params.subkey_bits)
    coeffs = [1]
    for s in roots:  # (x + s) c(x): c shifted up a block, plus s c
        coeffs = [a ^ b for a, b in zip([0, *coeffs], [*map(field.fixed_mul(s), coeffs), 0])]
    return pack_lanes(coeffs, params.subkey_bits)


def _partitions(total: int, parts: int, largest: int):
    """The partitions of `total` into at most `parts` parts of at most
    `largest` each, every part tuple in descending order."""
    if total == 0:
        yield ()
    for first in range(min(total, largest), 0, -1):
        if first * parts < total:
            return
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _partition_count(total: int, parts: int) -> int:
    """How many partitions _partitions(total, parts, total) yields, counted
    as their conjugates: the partitions of `total` into parts of at most
    `parts` each (a coin-change sum over part sizes)."""
    ways = [1] + [0] * total
    for part in range(1, min(parts, total) + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return ways[total]


def _exhaustive_profiles(params: Params):
    """(profile, views) over every view: each partition of N into at most
    2^l parts, with its number of subkey tuples (Python ints, as they pass
    2^63). The k parts take distinct values in (2^l)!/(2^l - k)! ways,
    counted once per swap of equal parts, and each multiset so made has
    N!/prod(m_i!) orderings."""
    big_n, n_keys = params.subkey_count, 1 << params.subkey_bits
    for profile in _partitions(big_n, n_keys, big_n):
        views = factorial(big_n) * perm(n_keys, len(profile))
        for m in (*profile, *_held(profile)[1]):  # parts, then repeats of a size
            views //= factorial(m)
        yield profile, views


def _sampled_profiles(params: Params, sample: int, seed: int):
    """(profile, views) over `sample` seeded draws, made _VIEW_CHUNK rows at
    a time: each chunk's distinct profiles, with how often each was drawn."""
    import numpy as np

    rng = np.random.default_rng(seed)
    big_n = params.subkey_count
    # a view's code counts its runs of m equal subkeys in digit m - 1 of
    # base N + 1, so it names the profile; Python ints hold it past 2^63
    base = big_n + 1
    weight = np.array([0] + [base**m for m in range(big_n)],
                      dtype=np.int64 if base**big_n <= 1 << 63 else object)
    for first in range(0, sample, _VIEW_CHUNK):
        rows = min(_VIEW_CHUNK, sample - first)
        drawn = rng.integers(0, 1 << params.subkey_bits, size=(rows, big_n), dtype=np.int64)
        keys = np.sort(drawn, axis=1)
        new_run = np.ones(keys.shape, dtype=bool)
        np.not_equal(keys[:, 1:], keys[:, :-1], out=new_run[:, 1:])
        starts = np.flatnonzero(new_run)  # every row starts a run
        lengths = np.diff(starts, append=keys.size)
        codes = np.add.reduceat(weight[lengths], np.flatnonzero(starts % big_n == 0))
        _, row, views = np.unique(codes, return_index=True, return_counts=True)
        for keys_row, count in zip(keys[row].tolist(), views.tolist()):
            yield _held(keys_row)[1], count


@dataclass(frozen=True)
class ExactReport:
    params: Params
    cheat_bound: Fraction
    mean_value: Fraction
    max_value: Fraction
    views: int
    exhaustive: bool

    @property
    def within_bound(self) -> bool:
        return self.max_value <= self.cheat_bound


def proven_cheat_bound(params: Params) -> Fraction:
    # (blocks - 1) / 2^l passes 1 once blocks - 1 exceeds the 2^l keys
    # (3/2 at 4 one-bit blocks); a probability stops at 1
    q = min(collision_bound(params.data_bits, params.subkey_bits), Fraction(1))
    return attack_success_bound(params.subkey_count, params.shared_count, q)[0]


def exact_game_value(
    params: Params,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> ExactReport:
    """Per-view exact optimum aggregated over the view space: every subkey
    tuple, or `sample` seeded draws when `sample` is given. The honest
    message does not enter (see module docstring), so a view is just the
    cheater's subkey tuple, scored once per profile."""
    exhaustive = sample is None
    if exhaustive:
        walk = _partition_count(params.subkey_count, 1 << params.subkey_bits)
        if walk > _MAX_EXACT_PROFILES:
            raise ParameterError(
                f"the exhaustive game would walk {walk} view profiles, over the cap "
                f"of {_MAX_EXACT_PROFILES}; sample the views instead"
            )
        total = (1 << params.subkey_bits) ** params.subkey_count
        profiles = _exhaustive_profiles(params)
    else:
        if sample < 1:
            raise ParameterError(f"need at least one sampled view, got {sample}")
        if seed < 0:
            raise ParameterError(f"sampled views need a non-negative seed, got {seed}")
        if params.subkey_bits > 63:  # _sampled_profiles draws int64 subkeys
            raise ParameterError(
                f"sampled views draw subkeys of at most 63 bits, got {params.subkey_bits}"
            )
        total = sample
        profiles = _sampled_profiles(params, sample, seed)

    views_by_value: Counter[int] = Counter()  # numerators over _denominator
    for profile, views in profiles:
        views_by_value[_profile_value(params, profile)] += views
    den = _denominator(params)
    weighted = sum(value * views for value, views in views_by_value.items())
    return ExactReport(
        params=params,
        cheat_bound=proven_cheat_bound(params),
        mean_value=Fraction(weighted, den * total),
        max_value=Fraction(max(views_by_value), den),
        views=total,
        exhaustive=exhaustive,
    )


# ------------------------------------------------------------ strategies


class Strategy:
    """Picks a claim from the cheater's view.

    The submission is the digest vector of the claim, the collapse every
    sensible strategy uses; the sanity strategy submits the honest data's.
    """

    name = "abstract"
    submits_honest_vector = False

    def choose(self, view: CheaterView, rng: random.Random) -> int:
        raise NotImplementedError

    def play(
        self, view: CheaterView, rng: random.Random
    ) -> tuple[int, Message]:
        claim = Message(self.choose(view, rng), view.params.data_bits)
        submitted = view.honest_message if self.submits_honest_vector else claim
        return _vector_reader(view.params)(view.subkeys, submitted), claim


@lru_cache(maxsize=_VIEW_CACHE)
def _most_collisions(params: Params, multiset: tuple[int, ...]) -> int:
    """The difference whose roots are the M values `multiset` holds most
    often, ties to the smaller: no nonzero difference has more roots in it,
    so its claim collides with the honest data on the most positions."""
    return _root_difference(params, _held(multiset)[0][: _most_roots(params)])


class RandomClaim(Strategy):
    """Uniform claim; the weakest deliberate cheat."""

    name = "random-claim"

    def choose(self, view, rng):
        while True:
            w = rng.getrandbits(view.params.data_bits)
            if w != view.honest_message.value:
                return w


class SingleBitFlip(Strategy):
    """Claim the honest data with one random bit flipped."""

    name = "single-bit-flip"

    def choose(self, view, rng):
        return view.honest_message.value ^ (
            1 << rng.randrange(view.params.data_bits)
        )


class BestCollide(Strategy):
    """Claim what collides with the honest data on the most positions."""

    name = "best-collide"

    def choose(self, view, rng):
        d = _most_collisions(view.params, tuple(sorted(view.subkeys)))
        return view.honest_message.value ^ d


class ExactBest(Strategy):
    """Claim with the exactly optimal win probability for the view."""

    name = "exact-best"

    def choose(self, view, rng):
        _, best_d = per_view_exact_optimum(view.params, view.subkeys)
        return view.honest_message.value ^ best_d


class OverlapGuess(Strategy):
    """Guess the overlap, then pick the claim covering the guess best."""

    name = "overlap-guess"

    def choose(self, view, rng):
        p = view.params
        guess = rng.sample(range(p.subkey_count), p.shared_count)
        d = _most_collisions(p, tuple(sorted(view.subkeys[j] for j in guess)))
        return view.honest_message.value ^ d


class CopyHonestVector(Strategy):
    """Sanity check: submit the digest vector of the honest data itself,
    then claim something else. Passes the comparison every time and loses
    the dispute almost every time, confirming the collapse matters."""

    name = "copy-honest-vector"
    choose = RandomClaim.choose
    submits_honest_vector = True


ALL_STRATEGIES: tuple[Strategy, ...] = (
    RandomClaim(),
    SingleBitFlip(),
    BestCollide(),
    ExactBest(),
    OverlapGuess(),
    CopyHonestVector(),
)


# ------------------------------------------------------------- the game


def play_round(
    params: Params,
    world: World,
    strategy: Strategy,
    rng: random.Random,
    cheater: str = "bob",
) -> bool:
    """One dealt instance, played through the real round logic."""
    if cheater not in ("alice", "bob"):
        raise ParameterError("cheater must be 'alice' or 'bob'")
    m_h = world.honest_message
    view = CheaterView(params, m_h, world.cheater_subkeys)
    submitted, claim = strategy.play(view, rng)
    if claim.value == m_h.value:
        raise ParameterError("game rule: the claim must differ from the honest data")

    vector = _vector_reader(params)
    honest_vec = vector(world.honest_subkeys, m_h)
    passed = (
        core.et_compare(params, world.shared_indices, honest_vec, submitted)
        == core.ET_EQUAL
    )
    if not passed:
        return False

    # (subkeys, claim, submission) of Alice, then of Bob
    honest = (world.honest_subkeys, m_h, honest_vec)
    cheating = (world.cheater_subkeys, claim, submitted)
    (keys_a, claim_a, vec_a), (keys_b, claim_b, vec_b) = (
        (honest, cheating) if cheater == "bob" else (cheating, honest))
    verdict = core.dr_verdict(params, claim_a, claim_b, vec_a, vec_b, keys_a, keys_b, vector)
    honest_wins = core.Verdict.ALICE_CORRECT if cheater == "bob" else core.Verdict.BOB_CORRECT
    return verdict != honest_wins


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 99% Wilson score interval of a success rate."""
    z = WILSON_Z99
    if trials <= 0:
        raise ParameterError("need at least one trial")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * ((phat * (1 - phat) + z * z / (4 * trials)) / trials) ** 0.5
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class GameResult:
    strategy: str
    cheater: str
    trials: int
    wins: int
    seed: int
    cheat_bound: Fraction
    outcome_digest: str

    @property
    def rate(self) -> float:
        return self.wins / self.trials

    @property
    def wilson99(self) -> tuple[float, float]:
        return wilson_interval(self.wins, self.trials)

    @property
    def within_bound(self) -> bool:
        """Only a lower confidence limit above the bound is evidence of a
        break; anything else is consistent."""
        return self.wilson99[0] <= float(self.cheat_bound)


def play_game(
    params: Params,
    strategy: Strategy,
    trials: int,
    seed: int = 0,
    cheater: str = "bob",
) -> GameResult:
    """Monte-Carlo the game; trial t uses its own generator,
    random.Random((seed << 48) + t), so runs are reproducible and
    order-independent. outcome_digest is the SHA-256 of one byte a trial,
    1 for a win and 0 for a loss."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    digest = hashlib.sha256()
    wins = 0
    rng = random.Random()
    for t in range(trials):
        # the C seed skips random.Random.seed's type checks; the generator
        # never draws a gauss, so its state is random.Random(that seed)'s
        super(random.Random, rng).seed((seed << 48) + t)
        win = play_round(params, draw_world(params, rng), strategy, rng, cheater)
        wins += win
        digest.update(b"\x01" if win else b"\x00")
    return GameResult(
        strategy=strategy.name,
        cheater=cheater,
        trials=trials,
        wins=wins,
        seed=seed,
        cheat_bound=proven_cheat_bound(params),
        outcome_digest=digest.hexdigest(),
    )
