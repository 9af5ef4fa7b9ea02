"""Test-side oracles, deliberately sharing no code with the package fast paths."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import numpy as np

from etdr.bounds import _check_counts, _check_prob, attack_rows
from etdr.errors import ParameterError
from etdr.etproto.core import Verdict
from etdr.gf2field import reduction_poly
from etdr.transport.frames import Frame
from etdr.transport.runners import _sign

# chi-square 0.999 quantiles by degrees of freedom (frozen; generous so the
# seeded statistical tests fail only on real defects)
CHI2_999 = {5: 20.515005652432873, 15: 37.69729821835383}

WILSON_Z99 = 2.5758293035489004


def bits_from_str(s):
    """Parse "1011" with the leftmost character as bit 0; returns (value, length)."""
    value = 0
    for k, ch in enumerate(s):
        if ch == "1":
            value |= 1 << k
        elif ch != "0":
            raise ParameterError(f"not a bit: {ch!r}")
    return value, len(s)


def _to_coeffs(v):
    return [(v >> i) & 1 for i in range(v.bit_length())]


def _from_coeffs(cs):
    return sum(c << i for i, c in enumerate(cs))


def oracle_mul(a, b, poly):
    """Schoolbook polynomial product then long division remainder, all on lists."""
    ca, cb, cp = _to_coeffs(a), _to_coeffs(b), _to_coeffs(poly)
    prod = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] ^= x & y
    dp = len(cp) - 1
    for i in range(len(prod) - 1, dp - 1, -1):
        if prod[i]:
            for j in range(dp + 1):
                prod[i - dp + j] ^= cp[j]
    return _from_coeffs(prod[:dp])


def horner_oracle(key, value, msg_bits, degree):
    """Digest of au2hash: Horner on the reversed blocks, multiplying with oracle_mul."""
    poly = reduction_poly(degree)
    blocks = [(value >> (i * degree)) & ((1 << degree) - 1) for i in range(-(-msg_bits // degree))]
    acc = 0
    for block in reversed(blocks):
        acc = oracle_mul(acc, key, poly) ^ block
    return acc


def oracle_mod(a, p):
    cp = _to_coeffs(p)
    ca = _to_coeffs(a)
    dp = len(cp) - 1
    for i in range(len(ca) - 1, dp - 1, -1):
        if ca[i]:
            for j in range(dp + 1):
                ca[i - dp + j] ^= cp[j]
    return _from_coeffs(ca[:dp])


def forgery_game_optimum(tagger, key_space, msg_bits):
    """Optimal substitution forgery probability, fully generic.

    tagger(key, msg_value, msg_bits) -> tag. Enumerates every key, every
    observed message m, and every forged (m', t'); returns the maximum over
    (m, t, m', t') of P[tag(K,m')=t' | tag(K,m)=t] as a Fraction.
    """
    msgs = 1 << msg_bits
    keys = list(key_space)
    table = np.empty((len(keys), msgs), dtype=np.int64)
    for ik, k in enumerate(keys):
        for m in range(msgs):
            table[ik, m] = tagger(k, m, msg_bits)
    ntags = int(table.max()) + 1
    best_num, best_den = 0, 1
    for m in range(msgs):
        col = table[:, m]
        row_counts = np.bincount(col, minlength=ntags)
        for mp in range(msgs):
            if mp == m:
                continue
            joint = np.bincount(col * ntags + table[:, mp], minlength=ntags * ntags)
            joint = joint.reshape(ntags, ntags)
            for t in range(ntags):
                denom = int(row_counts[t])
                if denom == 0:
                    continue
                num = int(joint[t].max())
                if num * best_den > best_num * denom:
                    best_num, best_den = num, denom
    return Fraction(best_num, best_den)


def forgery_game_optimum_xor(tagger, hash_keys, pad_values, msg_bits, rng):
    """Same optimum for XOR-masked GF(2)-linear taggers, via difference classes.

    Verifies the two structural assumptions on random samples before using
    them: (a) the pad enters by XOR, (b) the pre-pad tag is linear in the
    message. Then success(m, m', t, t') collapses to the distribution of the
    pre-pad tag of the difference m ^ m' over hash keys.
    """
    msgs = 1 << msg_bits
    for _ in range(200):
        kh = rng.choice(hash_keys)
        p = rng.choice(pad_values)
        m = rng.randrange(msgs)
        mp = rng.randrange(msgs)
        t0 = tagger((kh, 0), m, msg_bits)
        assert tagger((kh, p), m, msg_bits) == t0 ^ p, "pad is not XOR-masked"
        assert (
            t0 ^ tagger((kh, 0), mp, msg_bits)
            == tagger((kh, 0), m ^ mp, msg_bits) ^ tagger((kh, 0), 0, msg_bits)
        ), "pre-pad tag is not linear"
    assert tagger((hash_keys[0], 0), 0, msg_bits) == 0  # zero maps to zero
    best = Fraction(0)
    nk = len(hash_keys)
    for d in range(1, msgs):
        vals = np.array([tagger((kh, 0), d, msg_bits) for kh in hash_keys])
        top = int(np.bincount(vals).max())
        cand = Fraction(top, nk)
        if cand > best:
            best = cand
    return best


def cover_prob(t, subkey_count, shared_count):
    """Probability that a uniform n-subset of [N] lands inside a fixed
    t-subset: C(t, n) / C(N, n), the cover column of bounds.attack_rows."""
    _check_counts(t, subkey_count, shared_count)
    return Fraction(comb(t, shared_count), comb(subkey_count, shared_count))


def binomial_tail_oracle(n_trials, succ_num, succ_den, k_min):
    """Pr[X >= k_min] for X ~ Binomial(n_trials, succ_num/succ_den), exact.

    Pascal's triangle and integer arithmetic only; no math.comb, no Fraction
    until the very end.
    """
    # row of binomial coefficients C(n_trials, u)
    row = [1]
    for _ in range(n_trials):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    p, q = succ_num, succ_den - succ_num
    total = 0
    for u in range(max(k_min, 0), n_trials + 1):
        total += row[u] * p**u * q ** (n_trials - u)
    return Fraction(total, succ_den**n_trials)


def wilson_interval(successes, trials, z=WILSON_Z99):
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) / trials + z2 / (4 * trials * trials)) ** 0.5) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ------------------------------------------- relative-entropy tail bound
#
# The closed-form chain that verify_security checks exactly rests on this
# bound; the tests check in 2048-bit floating point that it dominates the
# exact tails.


def rel_entropy_bits(p, q, prec: int = 2048) -> mpmath.mpf:
    """Binary relative entropy D(p || q) in bits; p in [0, 1], q in (0, 1)."""
    p, q = Fraction(p), Fraction(q)
    if not 0 <= p <= 1:
        raise ParameterError("p must lie in [0, 1]")
    if not 0 < q < 1:
        raise ParameterError("q must lie in (0, 1)")
    with mpmath.workprec(prec):
        qf = mpmath.mpf(q.numerator) / q.denominator
        if p == 0:
            return -mpmath.log(1 - qf, 2)
        if p == 1:
            return -mpmath.log(qf, 2)
        pf = mpmath.mpf(p.numerator) / p.denominator
        return pf * mpmath.log(pf / qf, 2) + (1 - pf) * mpmath.log(
            (1 - pf) / (1 - qf), 2
        )


def kl_tail_bound(
    t: int, subkey_count: int, shared_count: int, q, prec: int = 2048
):
    """(N - t + 1) * 2**(-n * D(t/n - 1 || q)), with D the binary relative
    entropy in bits. Requires N == 2n and n < t <= N. Exact Fraction q**n
    at t == N; an mpmath float elsewhere (q must then be in (0, 1))."""
    n = shared_count
    if subkey_count != 2 * n:
        raise ParameterError("relative-entropy bound needs subkey_count == 2n")
    _check_counts(t, subkey_count, shared_count)
    if t <= n:
        raise ParameterError("relative-entropy bound needs t > shared_count")
    q = _check_prob(q)
    if t == 2 * n:
        return q**n
    if not 0 < q < 1:
        raise ParameterError("relative-entropy bound needs 0 < q < 1 for t < N")
    with mpmath.workprec(prec):
        div = rel_entropy_bits(Fraction(t - n, n), q, prec)
        return (2 * n - t + 1) * mpmath.power(2, -n * div)


def fraction_to_mpf(x: Fraction, prec: int = 2048) -> mpmath.mpf:
    """Round an exact rational to an mpf at the given working precision."""
    with mpmath.workprec(prec):
        return mpmath.mpf(x.numerator) / x.denominator


# ------------------------------------------------------------- dealing
#
# The dealer as first written, through Random.randrange; the package
# draws the same indices with getrandbits directly.


def deal_subkeys_oracle(params, rng):
    """keys.deal_subkeys as first written: the overlap by a partial
    Fisher-Yates through rng.randrange, then the first party's subkeys and
    the second party's fresh draws off the overlap, index-ascending."""
    n, l, big_n = params.shared_count, params.subkey_bits, params.subkey_count
    pool = list(range(big_n))
    for i in range(n):
        j = rng.randrange(i, big_n)
        pool[i], pool[j] = pool[j], pool[i]
    first = tuple(rng.getrandbits(l) for _ in range(big_n))
    second = list(first)
    for j in sorted(pool[n:]):
        second[j] = rng.getrandbits(l)
    return tuple(sorted(pool[:n])), first, tuple(second)


# ------------------------------------------------------- digest vectors
#
# A packed digest vector holds digest j at bits [j*l, (j+1)*l). The
# packer, the unpacker and the referee's two checks below work lane by
# lane on lists, so they share nothing with the package's integer forms.


def pack_digests(digests, width):
    """Digest j at bits [j*width, (j+1)*width), each checked to fit."""
    assert all(0 <= d < 1 << width for d in digests)
    return sum(d << (j * width) for j, d in enumerate(digests))


def unpack_digests(packed, width, count):
    return [(packed >> (j * width)) & ((1 << width) - 1) for j in range(count)]


def count_matches_oracle(fresh, submitted):
    """How many positions of two digest lists are equal."""
    assert len(fresh) == len(submitted)
    return sum(1 for a, b in zip(fresh, submitted) if a == b)


def et_compare_oracle(shared_indices, vec_a, vec_b):
    """Whether two digest lists agree on every overlap position."""
    return all(vec_a[j] == vec_b[j] for j in shared_indices)


def dr_verdict_oracle(claim_a, claim_b, big_n, count_aa, count_ab, count_ba, count_bb):
    """The dispute rule on all four match counts, each read in full.
    count_xy = how many of party x's submitted digests match party y's
    claim under x's subkeys. A party whose own claim reproduces its whole
    submission wins if the other side corroborates its claim more than the
    other's own, or if the other's own submission fails its own claim."""
    if claim_a == claim_b:
        return Verdict.BOTH_CONSISTENT
    a_wins = count_aa == big_n and (count_ba > count_ab or count_bb < big_n)
    b_wins = count_bb == big_n and (count_ab > count_ba or count_aa < big_n)
    assert not (a_wins and b_wins)
    if a_wins:
        return Verdict.ALICE_CORRECT
    if b_wins:
        return Verdict.BOB_CORRECT
    return Verdict.UNDECIDABLE


# --------------------------------------------------- the exact game
#
# The cheater's optimum scored in difference space: every nonzero claim
# difference d, with its roots among the view's subkeys and its root count,
# each root found by evaluating d's blocks as a polynomial at every key
# with oracle_mul. The package scores a view by its profile and builds its
# claims from root sets instead; this is the enumeration that both must
# agree with.


@lru_cache(maxsize=16)
def _roots(data_bits, subkey_bits):
    """roots[d, k]: key k hashes difference d to zero. The digest is the
    sum of block_i * k^i; each product comes from a table of oracle_mul
    over the 2^l block values, gathered for every d at once."""
    l, poly = subkey_bits, reduction_poly(subkey_bits)
    d = np.arange(1 << data_bits)
    blocks = [d >> at & ((1 << l) - 1) for at in range(0, data_bits, l)]
    roots = np.empty((1 << data_bits, 1 << l), dtype=bool)
    for k in range(1 << l):
        digest, power = np.zeros_like(d), 1
        for block in blocks:
            digest ^= np.array([oracle_mul(b, power, poly) for b in range(1 << l)])[block]
            power = oracle_mul(power, k, poly)
        roots[:, k] = digest == 0
    return roots


@lru_cache(maxsize=16)
def _win_prob_ranks(data_bits, subkey_bits, subkey_count):
    """Exact win probabilities indexed (|T|, root count): attack_rows'
    cover * tail at q = root count / 2^l, zero below the overlap size; plus
    a rank table so numpy can take maxima without losing exactness."""
    shared = subkey_count // 2
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


def difference_space_optima(params, views):
    """[(value, smallest optimal difference)] for each subkey tuple in
    `views`, each scored over every nonzero difference; difference zero,
    claiming the honest data, is barred."""
    roots = _roots(params.data_bits, params.subkey_bits)
    counts = roots.sum(axis=1)
    ordered, rank_table = _win_prob_ranks(
        params.data_bits, params.subkey_bits, params.subkey_count
    )
    t_sizes = roots[:, np.array(views)].sum(axis=-1)  # (differences, views)
    ranks = rank_table[t_sizes.T, counts].T
    ranks[0] = -1
    best = np.argmax(ranks, axis=0)
    return [(ordered[ranks[d, v]], int(d)) for v, d in enumerate(best)]


def difference_value(params, keys, d):
    """The exact win probability of claim difference d for the subkey
    tuple `keys`, scored in difference space."""
    roots = _roots(params.data_bits, params.subkey_bits)
    ordered, rank_table = _win_prob_ranks(
        params.data_bits, params.subkey_bits, params.subkey_count
    )
    return ordered[rank_table[roots[d, list(keys)].sum(), roots[d].sum()]]


# hash key of each pad, named as in MacMaterial, so the pad checks do not
# read the phase table they check
PAD_HASH_KEYS = {
    "et_submit_pad": "et_hash_key",
    "et_announce_pad": "et_hash_key",
    "dr_claim_pad": "dr_hash_key",
    "dr_announce_pad": "dr_hash_key",
}


def signing_pad(frame, mac, signer, params):
    """The MacMaterial pad under which `signer` signed `frame`, found by
    signing its untagged shape under every pad; None if it is unsigned."""
    if not frame.tag:
        return None
    unsigned = Frame(frame.msg_type, frame.session_id, frame.payload, b"")
    signed_by = [
        pad
        for pad, hash_key in PAD_HASH_KEYS.items()
        if _sign(unsigned, getattr(mac, hash_key), getattr(mac, pad), params, signer) == frame
    ]
    assert len(signed_by) == 1
    return signed_by[0]
