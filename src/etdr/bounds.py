"""Exact security-bound calculators for the equality-testing game.

A cheating party wins the dispute game by matching the referee's digest
vector on at least t of the N positions, for some threshold t it gets to
aim at. Its success probability at threshold t factors into

    cover_prob(t)   chance the n hidden overlap positions all fall in
                    the t matched ones: C(t, n) / C(N, n)
    match_tail(t)   chance at least t - n of the N - n non-overlap
                    positions also match, each independently with
                    probability at most q (the hash collision bound)

and attack_success_bound maximises the product over t. Everything in
this module is exact rational arithmetic. verify_security also checks
the closed-form chain that covers larger data sizes, every tail above
3n/2 under (n/2 + 1) * 2**(-n/2), by comparing squares of rationals.

No protocol state or I/O here; the module is a standalone calculator so
the protocol implementation can be checked against it independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .au2hash import collision_bound
from .errors import ParameterError
from .params import Params, derive_params


def _check_counts(t: int, subkey_count: int, shared_count: int) -> None:
    if shared_count < 1 or subkey_count < shared_count:
        raise ParameterError("need 1 <= shared_count <= subkey_count")
    if not shared_count <= t <= subkey_count:
        raise ParameterError(
            f"threshold {t} outside [{shared_count}, {subkey_count}]"
        )


def _check_prob(q: Fraction) -> Fraction:
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ParameterError("per-position probability must lie in [0, 1]")
    return q


def cover_prob(t: int, subkey_count: int, shared_count: int) -> Fraction:
    """Probability a uniform n-subset of [N] lands inside a fixed t-subset."""
    _check_counts(t, subkey_count, shared_count)
    return Fraction(comb(t, shared_count), comb(subkey_count, shared_count))


def _tail_sums(trials: int, q: Fraction, lowest: int) -> list[Fraction]:
    """P[Binomial(trials, q) >= u] for u = lowest..trials, as suffix sums of
    the binomial terms, so every threshold costs one more term."""
    tails, total = [], Fraction(0)
    for u in range(trials, lowest - 1, -1):
        total += comb(trials, u) * q**u * (1 - q) ** (trials - u)
        tails.append(total)
    return tails[::-1]


def match_tail(t: int, subkey_count: int, shared_count: int, q) -> Fraction:
    """P[Binomial(N - n, q) >= t - n], exact."""
    _check_counts(t, subkey_count, shared_count)
    q = _check_prob(q)
    return _tail_sums(subkey_count - shared_count, q, t - shared_count)[0]


def attack_rows(
    subkey_count: int, shared_count: int, q
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """Per-threshold rows (t, cover, tail, product) for t in [n, N]."""
    q = _check_prob(q)
    tails = _tail_sums(subkey_count - shared_count, q, 0)
    rows = []
    for t, tail in enumerate(tails, start=shared_count):
        cover = cover_prob(t, subkey_count, shared_count)
        rows.append((t, cover, tail, cover * tail))
    return rows


def _first_max(rows) -> tuple[Fraction, int]:
    """(largest product, its first threshold) over attack_rows output."""
    best_t, best = rows[0][0], rows[0][3]
    for t, _, _, product in rows[1:]:
        if product > best:
            best, best_t = product, t
    return best, best_t


def attack_success_bound(
    subkey_count: int, shared_count: int, q
) -> tuple[Fraction, int]:
    """Max over thresholds of cover * tail, with the first argmax threshold."""
    return _first_max(attack_rows(subkey_count, shared_count, q))


def le_scaled_half_power(value: Fraction, coeff: Fraction, n: int) -> bool:
    """Exact test of value <= coeff * 2**(-n/2) for nonnegative rationals,
    via squaring so odd n needs no irrational arithmetic."""
    if value < 0 or coeff < 0:
        raise ParameterError("comparison needs nonnegative operands")
    return value**2 * 2**n <= coeff**2


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the full security check for one (data_bits, epsilon)."""

    params: Params
    collision_q: Fraction
    attack_bound: Fraction
    attack_argmax_t: int
    round_target: Fraction  # epsilon / 16, the per-round allowance
    attack_ok: bool  # attack_bound <= round_target
    cover_ok: bool  # cover_prob(t) <= round_target for all t <= 3n/2
    chain_ok: bool  # tails above 3n/2 fit under (n/2 + 1) * 2**(-n/2)
    rows: tuple[tuple[int, Fraction, Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return self.attack_ok and self.cover_ok and self.chain_ok


def verify_security(data_bits: int, epsilon) -> BoundReport:
    """Derive parameters and check every bound the protocol relies on."""
    params = derive_params(data_bits, Fraction(epsilon))
    n = params.shared_count
    big_n = params.subkey_count
    q = collision_bound(data_bits, params.subkey_bits)
    rows = attack_rows(big_n, n, q)
    best, best_t = _first_max(rows)
    target = params.epsilon / 16

    cover_ok = all(
        cover <= target for t, cover, _, _ in rows if 2 * t <= 3 * n
    )
    # Two-step chain: every tail above 3n/2 sits under the closed form
    # (n/2 + 1) * 2**(-n/2), and the closed form itself sits under the
    # per-round allowance.
    chain_coeff = Fraction(n + 2, 2)
    tails_ok = all(
        le_scaled_half_power(tail, chain_coeff, n)
        for t, _, tail, _ in rows
        if 2 * t > 3 * n
    )
    form_ok = le_scaled_half_power(chain_coeff, target * 2**n, n)
    chain_ok = tails_ok and form_ok

    return BoundReport(
        params=params,
        collision_q=q,
        attack_bound=best,
        attack_argmax_t=best_t,
        round_target=target,
        attack_ok=best <= target,
        cover_ok=cover_ok,
        chain_ok=chain_ok,
        rows=tuple(rows),
    )
