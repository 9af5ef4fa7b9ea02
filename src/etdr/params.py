"""Parameter derivation and budgets for the equality-testing protocol.

For data of r bits and a security target epsilon, the protocol uses

    shared_count  n = ceil(3 * log2(16/epsilon))   hidden overlap size
    subkey_bits   l = ceil(log2 r)                 hash key width
    subkey_count  N = 2n                           subkeys per party

The supported domain is r >= 256 and 0 < epsilon <= 2^-4. All derived
budgets are exact integers:

    total_key_bits   8(nl + 2n + 2l)    across both parties
    et_comm_bits     4(nl + 2n + 2l + 1)
    dr_comm_bits     2(r + 4n + 4l + 2)

Per party the split is 2nl bits of hash subkeys plus 2nl + 8(n+l) bits of
side-channel material (one-time pad for the digest vector, two per-phase
MAC hash keys of 2(n+l) bits, four per-round MAC pads of n+l bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import ParameterError

EPSILON_MAX = Fraction(1, 16)
DATA_BITS_MIN = 256


def ceil_log2(x: Fraction | int) -> int:
    """Smallest integer k with 2**k >= x, exact for rationals."""
    x = Fraction(x)
    if x <= 0:
        raise ParameterError("log2 argument must be positive")
    p, q = x.numerator, x.denominator

    def reaches(k: int) -> bool:
        return (q << k) >= p if k >= 0 else q >= (p << -k)

    k = p.bit_length() - q.bit_length()
    while not reaches(k):
        k += 1
    while reaches(k - 1):
        k -= 1
    return k


def parse_epsilon(text: str) -> Fraction:
    """Accepts forms like "1/16", "2^-40", "0.001", "1e-12"; exact always."""
    text = text.strip()
    if "^" in text:
        base, _, expo = text.partition("^")
        try:
            return Fraction(int(base)) ** int(expo)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse epsilon {text!r}") from exc
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError) as exc:
        raise ParameterError(f"cannot parse epsilon {text!r}") from exc


@dataclass(frozen=True)
class Params:
    data_bits: int
    epsilon: Fraction | None
    shared_count: int
    subkey_bits: int
    subkey_count: int

    def __post_init__(self) -> None:
        if self.data_bits < 1:
            raise ParameterError("data_bits must be >= 1")
        if self.shared_count < 1 or self.subkey_bits < 1:
            raise ParameterError("counts and widths must be >= 1")
        if self.subkey_count != 2 * self.shared_count:
            raise ParameterError("subkey_count must equal 2 * shared_count")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ParameterError("epsilon must lie in (0, 1)")

    # -- widths ---------------------------------------------------------

    @property
    def tag_bits(self) -> int:
        return self.shared_count + self.subkey_bits

    @property
    def digest_vector_bits(self) -> int:
        # N digests of l bits each; equals 2nl
        return self.subkey_count * self.subkey_bits

    # -- per-party key accounting ---------------------------------------

    @property
    def et_key_bits_per_party(self) -> int:
        return self.subkey_count * self.subkey_bits

    @property
    def sc_key_bits_per_party(self) -> int:
        return self.digest_vector_bits + self.mac_key_bits_per_party

    @property
    def mac_key_bits_per_party(self) -> int:
        # two phase hash keys of 2(n+l) bits + four round pads of n+l bits
        return 8 * self.tag_bits

    @property
    def total_key_bits(self) -> int:
        n, l = self.shared_count, self.subkey_bits
        return 8 * (n * l + 2 * n + 2 * l)

    # -- communication budgets ------------------------------------------

    @property
    def et_comm_bits(self) -> int:
        n, l = self.shared_count, self.subkey_bits
        return 4 * (n * l + 2 * n + 2 * l + 1)

    @property
    def dr_comm_bits(self) -> int:
        n, l = self.shared_count, self.subkey_bits
        return 2 * (self.data_bits + 4 * n + 4 * l + 2)


def derive_params(data_bits: int, epsilon: Fraction) -> Params:
    """Parameters for the supported domain (data_bits >= 256, epsilon <= 2^-4)."""
    if data_bits < DATA_BITS_MIN:
        raise ParameterError(f"data_bits must be >= {DATA_BITS_MIN}, got {data_bits}")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= EPSILON_MAX:
        raise ParameterError("epsilon must lie in (0, 2^-4]")
    n = ceil_log2((Fraction(16) / epsilon) ** 3)
    l = ceil_log2(data_bits)
    return Params(
        data_bits=data_bits,
        epsilon=epsilon,
        shared_count=n,
        subkey_bits=l,
        subkey_count=2 * n,
    )


def experimental_params(
    data_bits: int,
    shared_count: int,
    subkey_bits: int,
    epsilon: Fraction | None = None,
) -> Params:
    """Params outside the supported domain, for games and tiny experiments."""
    return Params(
        data_bits=data_bits,
        epsilon=Fraction(epsilon) if epsilon is not None else None,
        shared_count=shared_count,
        subkey_bits=subkey_bits,
        subkey_count=2 * shared_count,
    )
