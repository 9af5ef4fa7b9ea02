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
XOR difference d between claim and honest data, and the entire view
value depends only on the cheater's subkeys. The exact enumerators
exploit this: they walk difference space, not message space. Two helpers
score it, and only they bar difference 0: `_exact_ranks` for
`per_view_exact_optimum` and `exact_game_value`, `_most_collisions` for
`BestCollide` and `OverlapGuess`.

|T| sums over positions, so a view's value and its best claims depend
only on the multiset of its subkeys, and each multiset is scored once:
`exact_game_value` scores the sorted, deduplicated rows of its views
with their multiplicities as weights (the multinomial count of each
multiset in exhaustive mode, the number of draws of it when sampled),
and the per-view readers cache their answer under the sorted subkeys.

One cached table per (data bits, subkey bits) holds the digest of every
message under every key, filled by the same linearity: doubling over the
bit basis. The difference tables are its zeros, and the game reads each
digest vector as a row of it when it has at most 2^16 entries. Wider
games hash each vector as the parties do. Either way a round runs
through the shipped dealer, comparison and verdict rule.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, islice
from math import factorial, prod

import numpy as np

from .au2hash import collision_bound, poly_hash
from .bits import Message, pack_lanes
from .bounds import attack_rows, attack_success_bound
from .errors import ParameterError
from .etproto import core
from .etproto.keys import deal_subkeys
from .params import Params

WILSON_Z99 = 2.5758293035489004

# exact machinery enumerates difference space, so keep it small
MAX_EXACT_DATA_BITS = 20
# views the sampled exact game draws per call; the sample depends on it
_VIEW_CHUNK = 1024
# sampled draws deduplicated together; also the most distinct multisets
# held before they are scored, which bounds memory whatever the sample
_SAMPLE_BLOCK = 4 * _VIEW_CHUNK
# subkey multisets the exact game scores per numpy batch; a batch holds a
# (differences x multisets x subkeys) array, so a small one keeps the
# process's peak memory where scoring every view once held it
_SCORE_CHUNK = 256
# subkey multisets whose best claims the strategies keep
_VIEW_CACHE = 4096
# The game reads its digest vectors from a (messages x keys) table of at
# most 2^16 entries, which covers every tiny game; wider games, which only
# `etdr attack` with chosen widths plays, hash each vector.
_GAME_TABLE_MAX_BITS = 16


# ------------------------------------------------------------ raw worlds


@dataclass(frozen=True)
class World:
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


@dataclass(frozen=True)
class CheaterView:
    """Everything the cheater is allowed to see."""

    params: Params
    honest_message: Message
    subkeys: tuple[int, ...]


# ------------------------------------------------- difference structure


@lru_cache(maxsize=16)
def _digest_table(data_bits: int, subkey_bits: int):
    """digests[m, k]: the digest of message m under key k, for every
    message and every key."""
    if data_bits > MAX_EXACT_DATA_BITS:
        raise ParameterError(
            f"difference enumeration capped at {MAX_EXACT_DATA_BITS} data bits"
        )
    n_keys = 1 << subkey_bits
    digests = np.zeros(
        (1 << data_bits, n_keys), dtype=np.min_scalar_type(n_keys - 1)
    )
    # digests are GF(2)-linear in the message, so doubling over the bit
    # basis fills the whole message space
    for bit in range(data_bits):
        step = 1 << bit
        basis = [poly_hash(k, step, data_bits, subkey_bits) for k in range(n_keys)]
        digests[step : 2 * step] = digests[:step] ^ np.array(basis, digests.dtype)
    return digests


@lru_cache(maxsize=16)
def _difference_tables(data_bits: int, subkey_bits: int):
    """(roots, counts): roots[d, k] says key k hashes difference d to zero;
    counts[d] is the number of such keys. Row 0 is all keys."""
    roots = _digest_table(data_bits, subkey_bits) == 0
    return roots, roots.sum(axis=1)


@lru_cache(maxsize=16)
def _digest_rows(data_bits: int, subkey_bits: int) -> list[list[int]] | None:
    """_digest_table as Python lists for the game's per-trial lookups, or
    None above 2^_GAME_TABLE_MAX_BITS entries."""
    if data_bits + subkey_bits > _GAME_TABLE_MAX_BITS:
        return None
    return _digest_table(data_bits, subkey_bits).tolist()


def _digest_vector(
    params: Params,
    rows: list[list[int]] | None,
    subkeys: tuple[int, ...],
    message: Message,
) -> int:
    """The packed digest vector of `message` under `subkeys`: from a row of
    the game's table, or the shipped digest for games too wide to tabulate."""
    if rows is None:
        return core.hash_vector_for(params, subkeys, message)
    row = rows[message.value]
    return pack_lanes([row[k] for k in subkeys], params.subkey_bits)


@lru_cache(maxsize=16)
def _win_prob_ranks(data_bits: int, subkey_bits: int, subkey_count: int):
    """Exact win probabilities indexed (|T|, root count): attack_rows'
    cover * tail at q = root count / 2^l, zero below the overlap size; plus
    a rank table so numpy can take maxima without losing exactness."""
    shared = subkey_count // 2
    if subkey_count != 2 * shared:
        raise ParameterError("game needs an even subkey count")
    n_keys = 1 << subkey_bits
    values = {(t, rc): Fraction(0) for t in range(shared) for rc in range(n_keys + 1)}
    for rc in range(n_keys + 1):
        for t, _, _, product in attack_rows(subkey_count, shared, Fraction(rc, n_keys)):
            values[(t, rc)] = product
    ordered = sorted(set(values.values()))
    rank_of = {v: i for i, v in enumerate(ordered)}
    rank_table = np.empty((subkey_count + 1, n_keys + 1), dtype=np.int32)
    for (t, rc), v in values.items():
        rank_table[t, rc] = rank_of[v]
    return ordered, rank_table


def _exact_ranks(params: Params, keys: np.ndarray) -> np.ndarray:
    """ranks[d, v]: the rank in _win_prob_ranks of the exact win probability
    of difference d for view v, one view per row of `keys`; ranks[d] for
    a single view given as 1-D `keys`. Difference zero means claiming the
    honest data, so it is barred with rank -1."""
    roots, counts = _difference_tables(params.data_bits, params.subkey_bits)
    _, rank_table = _win_prob_ranks(
        params.data_bits, params.subkey_bits, params.subkey_count
    )
    # (diffs, views) or (diffs,), summed in the narrowest type that holds
    # subkey_count: an int64 array per chunk is freed and faulted in again
    # by the next
    t_sizes = roots[:, keys].sum(
        axis=-1, dtype=np.min_scalar_type(params.subkey_count)
    )
    # counts runs along diffs, the last axis of t_sizes.T whatever keys' shape
    ranks = rank_table[t_sizes.T, counts].T  # int32, so -1 cannot wrap
    ranks[0] = -1
    return ranks


def per_view_exact_optimum(
    params: Params, subkeys: tuple[int, ...]
) -> tuple[Fraction, int]:
    """Best exact win probability over every allowed claim for this view,
    with the smallest optimal difference. Independent of the honest data
    and of the order of the subkeys."""
    return _multiset_optimum(params, tuple(sorted(subkeys)))


@lru_cache(maxsize=_VIEW_CACHE)
def _multiset_optimum(params: Params, multiset: tuple[int, ...]) -> tuple[Fraction, int]:
    """per_view_exact_optimum of the sorted subkeys, the cache's key."""
    ordered, _ = _win_prob_ranks(
        params.data_bits, params.subkey_bits, params.subkey_count
    )
    ranks = _exact_ranks(params, np.array(multiset))
    best_d = int(np.argmax(ranks))
    return ordered[ranks[best_d]], best_d


def _distinct_multisets(
    rows: np.ndarray, weights: np.ndarray, subkey_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `rows`, each row sorted already, with the summed
    weights of their copies. Rows are packed into int64 words of at most
    62 bits and lexsorted on the words, so one sort serves every width."""
    count, width = rows.shape
    per_word = 62 // subkey_bits
    words = np.zeros((count, -(-width // per_word)), dtype=np.int64)
    for j in range(width):
        words[:, j // per_word] |= rows[:, j] << (subkey_bits * (j % per_word))
    order = np.lexsort(words.T)
    words = words[order]
    first = np.ones(count, dtype=bool)
    np.any(words[1:] != words[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    return rows[order[starts]], np.add.reduceat(weights[order], starts)


def _exhaustive_multisets(subkey_bits: int, big_n: int):
    """(rows, weights) chunks over every multiset of `big_n` subkeys: the
    sorted rows, and how many subkey tuples order each (Python ints, as
    they can pass 2^63)."""
    tuples = combinations_with_replacement(range(1 << subkey_bits), big_n)
    orderings = factorial(big_n)
    while chunk := list(islice(tuples, _SCORE_CHUNK)):
        weights = [
            orderings // prod(factorial(len(list(run))) for _, run in groupby(keys))
            for keys in chunk
        ]
        yield np.array(chunk, dtype=np.int64), weights


def _sampled_multisets(subkey_bits: int, big_n: int, sample: int, seed: int):
    """(rows, weights) chunks over the distinct sorted rows of `sample`
    seeded draws, weighted by how often each was drawn. Draws are made
    _VIEW_CHUNK rows at a time, deduplicated a block at a time and merged
    into the rows not yet scored, which are given out when they outgrow a
    block and at the end."""
    rng = np.random.default_rng(seed)
    n_keys = 1 << subkey_bits
    nothing = np.empty((0, big_n), dtype=np.int64), np.empty(0, dtype=np.int64)
    rows, weights = nothing
    for block in range(0, sample, _SAMPLE_BLOCK):
        drawn = np.sort(np.concatenate([
            rng.integers(0, n_keys, size=(min(_VIEW_CHUNK, sample - base), big_n),
                         dtype=np.int64)
            for base in range(block, min(sample, block + _SAMPLE_BLOCK), _VIEW_CHUNK)
        ]), axis=1)
        rows, weights = _distinct_multisets(
            np.concatenate([rows, drawn]),
            np.concatenate([weights, np.ones(len(drawn), dtype=np.int64)]),
            subkey_bits,
        )
        if len(rows) > _SAMPLE_BLOCK:
            yield rows, weights.tolist()
            rows, weights = nothing
    if len(rows):
        yield rows, weights.tolist()


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
    cheater's subkey tuple, scored once per distinct multiset."""
    ordered, _ = _win_prob_ranks(
        params.data_bits, params.subkey_bits, params.subkey_count
    )
    l, big_n = params.subkey_bits, params.subkey_count
    exhaustive = sample is None
    if exhaustive:
        total = (1 << l) ** big_n
        multisets = _exhaustive_multisets(l, big_n)
    else:
        if sample < 1:
            raise ParameterError(f"need at least one sampled view, got {sample}")
        if seed < 0:
            raise ParameterError(f"sampled views need a non-negative seed, got {seed}")
        total = sample
        multisets = _sampled_multisets(l, big_n, sample, seed)

    rank_counts = [0] * len(ordered)
    for rows, weights in multisets:
        for base in range(0, len(rows), _SCORE_CHUNK):
            best = _exact_ranks(params, rows[base : base + _SCORE_CHUNK]).max(axis=0)
            for rank, weight in zip(best.tolist(), weights[base : base + _SCORE_CHUNK]):
                rank_counts[rank] += weight

    mean = sum(ordered[i] * c for i, c in enumerate(rank_counts) if c) / Fraction(total)
    max_rank = max(i for i, c in enumerate(rank_counts) if c)
    return ExactReport(
        params=params,
        cheat_bound=proven_cheat_bound(params),
        mean_value=mean,
        max_value=ordered[max_rank],
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
    # whether choose() reads the difference tables, which cap the game at
    # MAX_EXACT_DATA_BITS data bits
    enumerates_differences = False
    submits_honest_vector = False

    def choose(self, view: CheaterView, rng: random.Random) -> int:
        raise NotImplementedError

    def play(
        self, view: CheaterView, rng: random.Random
    ) -> tuple[int, Message]:
        p = view.params
        claim = Message(self.choose(view, rng), p.data_bits)
        rows = _digest_rows(p.data_bits, p.subkey_bits)
        submitted = view.honest_message if self.submits_honest_vector else claim
        return _digest_vector(p, rows, view.subkeys, submitted), claim


def _collision_claim(view: CheaterView, subkeys: tuple[int, ...] | list[int]) -> int:
    """The claim, never the honest data, that the most of `subkeys` hash
    alike to the honest data; ties go to the smallest difference."""
    p = view.params
    d = _most_collisions(p.data_bits, p.subkey_bits, tuple(sorted(subkeys)))
    return view.honest_message.value ^ d


@lru_cache(maxsize=_VIEW_CACHE)
def _most_collisions(data_bits: int, subkey_bits: int, multiset: tuple[int, ...]) -> int:
    """The nonzero difference that the most of `multiset` hash to zero,
    the smallest of any tie."""
    roots, _ = _difference_tables(data_bits, subkey_bits)
    covered = roots[:, list(multiset)].sum(axis=1)
    covered[0] = -1
    return int(np.argmax(covered))


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
    """Exhaustively pick the claim colliding with the honest data on the
    most positions (ties to the smallest difference)."""

    name = "best-collide"
    enumerates_differences = True

    def choose(self, view, rng):
        return _collision_claim(view, view.subkeys)


class ExactBest(Strategy):
    """Claim with the exactly optimal win probability for the view."""

    name = "exact-best"
    enumerates_differences = True

    def choose(self, view, rng):
        _, best_d = per_view_exact_optimum(view.params, view.subkeys)
        return view.honest_message.value ^ best_d


class OverlapGuess(Strategy):
    """Guess the overlap, then pick the claim covering the guess best."""

    name = "overlap-guess"
    enumerates_differences = True

    def choose(self, view, rng):
        p = view.params
        guess = rng.sample(range(p.subkey_count), p.shared_count)
        return _collision_claim(view, [view.subkeys[j] for j in guess])


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

    rows = _digest_rows(params.data_bits, params.subkey_bits)
    honest_vec = _digest_vector(params, rows, world.honest_subkeys, m_h)
    passed = (
        core.et_compare(params, world.shared_indices, honest_vec, submitted)
        == core.ET_EQUAL
    )
    if not passed:
        return False

    honest_claim = _digest_vector(params, rows, world.honest_subkeys, claim)
    cheater_honest = _digest_vector(params, rows, world.cheater_subkeys, m_h)
    cheater_claim = _digest_vector(params, rows, world.cheater_subkeys, claim)
    count_hh = core.count_matches(params, honest_vec, honest_vec)
    count_hc = core.count_matches(params, honest_claim, honest_vec)
    count_ch = core.count_matches(params, cheater_honest, submitted)
    count_cc = core.count_matches(params, cheater_claim, submitted)

    if cheater == "bob":
        verdict = core.dr_verdict(
            params, m_h, claim, count_hh, count_hc, count_ch, count_cc
        )
        return verdict != core.Verdict.ALICE_CORRECT
    verdict = core.dr_verdict(
        params, claim, m_h, count_cc, count_ch, count_hc, count_hh
    )
    return verdict != core.Verdict.BOB_CORRECT


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
    """Monte-Carlo the game; trial t uses its own generator derived from
    (seed, t), so runs are reproducible and order-independent."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    digest = hashlib.sha256()
    wins = 0
    for t in range(trials):
        rng = random.Random((seed << 48) + t)
        world = draw_world(params, rng)
        win = play_round(params, world, strategy, rng, cheater)
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
