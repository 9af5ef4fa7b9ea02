"""Exact security-bound calculators for the equality-testing game.

A cheating party wins the dispute game by matching the referee's digest
vector on at least t of the N positions, for some threshold t it gets to
aim at. Its success probability at threshold t factors into

    cover(t)        chance the n hidden overlap positions all fall in
                    the t matched ones: C(t, n) / C(N, n)
    match_tail(t)   chance at least t - n of the N - n non-overlap
                    positions also match, each independently with
                    probability at most q (the hash collision bound)

and attack_success_bound maximises the product over t. verify_security
also checks the closed-form chain that covers larger data sizes, every
tail above 3n/2 under (n/2 + 1) * 2**(-n/2), by comparing squares.

Everything here is exact. With q = a/b and T = N - n, every cover is an
integer numerator over C(N, n) and every tail one over b**T; one integer
kernel, _numerators, computes both columns. Products then share the
denominator C(N, n) * b**T, so the argmax and every check of
verify_security compare integers, each inequality multiplied through by
its positive denominators. Fractions are built only for returned values.

No protocol state or I/O here; the module is a standalone calculator so
the protocol implementation can be checked against it independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

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


class _Numerators(NamedTuple):
    """attack_rows over two shared denominators: at threshold shared + i
    the cover is covers[i] / cover_den and the tail tails[i] / tail_den."""

    shared: int
    covers: list[int]
    cover_den: int
    tails: list[int]
    tail_den: int

    def rows(self) -> list[tuple[int, Fraction, Fraction, Fraction]]:
        den = self.cover_den * self.tail_den
        return [
            (t, Fraction(c, self.cover_den), Fraction(m, self.tail_den),
             Fraction(c * m, den))
            for t, (c, m) in enumerate(zip(self.covers, self.tails), self.shared)
        ]


def _numerators(subkey_count: int, shared_count: int, q: Fraction) -> _Numerators:
    """The integer kernel behind every row: C(t, n) over C(N, n), and
    P[Binomial(T, a/b) >= t - n] over b**T with T = N - n."""
    _check_counts(shared_count, subkey_count, shared_count)
    trials = subkey_count - shared_count
    covers = [1]  # C(t, n) for t = n..N, each from the one before
    for t in range(shared_count + 1, subkey_count + 1):
        covers.append(covers[-1] * t // (t - shared_count))
    a, b = q.numerator, q.denominator
    hit, miss = [1], [1]
    for _ in range(trials):
        hit.append(hit[-1] * a)
        miss.append(miss[-1] * (b - a))
    # suffix sums of the terms C(T, u) * a**u * (b - a)**(T - u), from
    # u = T down, so each threshold costs one more term
    tails, total, c = [], 0, 1
    for u in range(trials, -1, -1):
        total += c * hit[u] * miss[trials - u]
        tails.append(total)
        c = c * u // (trials - u + 1)  # C(T, u - 1)
    tails.reverse()
    return _Numerators(shared_count, covers, covers[-1], tails, b**trials)


def match_tail(t: int, subkey_count: int, shared_count: int, q) -> Fraction:
    """P[Binomial(N - n, q) >= t - n], exact."""
    _check_counts(t, subkey_count, shared_count)
    kernel = _numerators(subkey_count, shared_count, _check_prob(q))
    return Fraction(kernel.tails[t - shared_count], kernel.tail_den)


def attack_rows(
    subkey_count: int, shared_count: int, q
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """Per-threshold rows (t, cover, tail, product) for t in [n, N]."""
    return _numerators(subkey_count, shared_count, _check_prob(q)).rows()


def _first_max(kernel: _Numerators) -> tuple[int, int]:
    """(largest cover * tail numerator, over cover_den * tail_den, and its
    first threshold)."""
    products = [c * m for c, m in zip(kernel.covers, kernel.tails)]
    best_i = max(range(len(products)), key=products.__getitem__)  # first on ties
    return products[best_i], kernel.shared + best_i


def attack_success_bound(
    subkey_count: int, shared_count: int, q
) -> tuple[Fraction, int]:
    """Max over thresholds of cover * tail, with the first argmax threshold."""
    kernel = _numerators(subkey_count, shared_count, _check_prob(q))
    best, best_t = _first_max(kernel)
    return Fraction(best, kernel.cover_den * kernel.tail_den), best_t


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
    cover_ok: bool  # cover(t) <= round_target for all t <= 3n/2
    chain_ok: bool  # tails above 3n/2 fit under (n/2 + 1) * 2**(-n/2)
    _kernel: _Numerators = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.attack_ok and self.cover_ok and self.chain_ok

    @cached_property
    def rows(self) -> tuple[tuple[int, Fraction, Fraction, Fraction], ...]:
        """attack_rows for these parameters, built on first read: as
        Fractions they cost more than every check together."""
        return tuple(self._kernel.rows())


def verify_security(data_bits: int, epsilon) -> BoundReport:
    """Derive parameters and check every bound the protocol relies on.
    The attack, cover and tail checks multiply each inequality through by
    its positive denominators and compare integers."""
    params = derive_params(data_bits, Fraction(epsilon))
    n = params.shared_count
    q = collision_bound(data_bits, params.subkey_bits)
    kernel = _numerators(params.subkey_count, n, q)
    best, best_t = _first_max(kernel)
    target = params.epsilon / 16
    num, den = target.numerator, target.denominator

    # cover <= target, for thresholds t = n + i <= 3n/2
    cover_ok = all(
        c * den <= num * kernel.cover_den
        for i, c in enumerate(kernel.covers)
        if 2 * i <= n
    )
    # Two-step chain: every tail above 3n/2 sits under the closed form
    # (n/2 + 1) * 2**(-n/2), and the closed form itself sits under the
    # per-round allowance. The first step squares tail <= (n + 2)/2 *
    # 2**(-n/2) and multiplies it through by 4 * tail_den**2.
    chain_square = (n + 2) ** 2 * kernel.tail_den**2
    tails_ok = all(
        (tail * tail) << (n + 2) <= chain_square
        for i, tail in enumerate(kernel.tails)
        if 2 * i > n
    )
    form_ok = le_scaled_half_power(Fraction(n + 2, 2), target * 2**n, n)
    attack_den = kernel.cover_den * kernel.tail_den

    return BoundReport(
        params=params,
        collision_q=q,
        attack_bound=Fraction(best, attack_den),
        attack_argmax_t=best_t,
        round_target=target,
        attack_ok=best * den <= num * attack_den,
        cover_ok=cover_ok,
        chain_ok=tails_ok and form_ok,
        _kernel=kernel,
    )
