"""Key-material generation and the on-disk key-file format.

The dealer draws, in a fixed order so seeded runs are reproducible:

    1. a 16-byte session id
    2. the hidden overlap set (sorted n-subset of [0, N))
    3. Alice's N hash subkeys, index-ascending
    4. Bob's subkeys: copies of Alice's on the overlap, fresh draws elsewhere
    5. Alice's one-time pad (2nl bits), then Bob's
    6. Alice's authentication material, then Bob's

Steps 2-4 are deal_subkeys, which the adversarial game harness also uses.

Authentication material per party, in draw and storage order: a phase hash
key of 2(n+l) bits and two round pads of n+l bits for the comparison phase,
then the same three for the dispute phase. Parties never see each other's
material; the dealer's own file embeds both parties' plus the overlap set.

Key files start with magic "ETDR", a format version, a role byte and the
parameter block, so a file fed to the wrong role or wrong session fails
closed. All multi-byte integers are little-endian; packed bit arrays use
the stream convention from the bits module (bit k of the array = bit k
of the integer).
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ..bits import bits_to_bytes, bytes_to_bits
from ..errors import KeyMaterialError, ParameterError
from ..params import Params
from .core import pack_vector, unpack_vector

MAGIC = b"ETDR"
FORMAT_VERSION = 1

ROLE_ALICE = 1
ROLE_BOB = 2
ROLE_TTP = 3

ROLE_NAMES = {ROLE_ALICE: "alice", ROLE_BOB: "bob", ROLE_TTP: "ttp"}

SESSION_ID_BYTES = 16


@dataclass(frozen=True)
class MacMaterial:
    """One party's authentication key material, all plain integers."""

    et_hash_key: int
    et_submit_pad: int
    et_announce_pad: int
    dr_hash_key: int
    dr_claim_pad: int
    dr_announce_pad: int

    @staticmethod
    def field_bits(tag_bits: int) -> tuple[tuple[str, int], ...]:
        """(name, bit width) pairs in storage order."""
        return (
            ("et_hash_key", 2 * tag_bits),
            ("et_submit_pad", tag_bits),
            ("et_announce_pad", tag_bits),
            ("dr_hash_key", 2 * tag_bits),
            ("dr_claim_pad", tag_bits),
            ("dr_announce_pad", tag_bits),
        )


@dataclass(frozen=True)
class PartyKeys:
    params: Params
    session_id: bytes
    role: int
    subkeys: tuple[int, ...]
    otp_bits: int
    mac: MacMaterial

    def __post_init__(self) -> None:
        p = self.params
        if self.role not in (ROLE_ALICE, ROLE_BOB):
            raise KeyMaterialError(f"bad party role {self.role}")
        if len(self.session_id) != SESSION_ID_BYTES:
            raise KeyMaterialError("session id must be 16 bytes")
        if len(self.subkeys) != p.subkey_count:
            raise KeyMaterialError("wrong number of hash subkeys")
        if self.subkeys and (min(self.subkeys) < 0 or max(self.subkeys) >= 1 << p.subkey_bits):
            raise KeyMaterialError("hash subkey outside the field")
        if not 0 <= self.otp_bits < (1 << p.digest_vector_bits):
            raise KeyMaterialError("one-time pad outside its width")
        tag_bits = p.tag_bits
        for name, width in self.mac.field_bits(tag_bits):
            value = getattr(self.mac, name)
            if not 0 <= value < (1 << width):
                raise KeyMaterialError(f"mac field {name} outside its width")


@dataclass(frozen=True)
class TtpSecret:
    params: Params
    session_id: bytes
    shared_indices: tuple[int, ...]
    alice: PartyKeys
    bob: PartyKeys

    def __post_init__(self) -> None:
        p = self.params
        overlap = self.shared_indices
        if len(overlap) != p.shared_count:
            raise KeyMaterialError("wrong overlap size")
        if any(not 0 <= j < p.subkey_count for j in overlap):
            raise KeyMaterialError("overlap index out of range")
        if any(a >= b for a, b in zip(overlap, overlap[1:])):
            raise KeyMaterialError("overlap indices must be strictly increasing")
        if self.alice.role != ROLE_ALICE or self.bob.role != ROLE_BOB:
            raise KeyMaterialError("party bodies in wrong order")
        for pk in (self.alice, self.bob):
            if pk.params != p or pk.session_id != self.session_id:
                raise KeyMaterialError("party body disagrees with dealer header")
        for j in overlap:
            if self.alice.subkeys[j] != self.bob.subkeys[j]:
                raise KeyMaterialError("parties disagree on an overlap subkey")


def _draw_mac(rng, tag_bits: int) -> MacMaterial:
    # one draw per field in storage order: seeded keys depend on the order
    fields = MacMaterial.field_bits(tag_bits)
    return MacMaterial(**{name: rng.getrandbits(width) for name, width in fields})


def deal_subkeys(
    params: Params, rng
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Draw (overlap, first party's subkeys, second party's subkeys): a
    uniform n-subset of [0, N), N uniform subkeys, then copies of them on
    the overlap and fresh draws elsewhere."""
    n, l, big_n = params.shared_count, params.subkey_bits, params.subkey_count

    # partial Fisher-Yates: uniform n-subset of [0, N)
    pool = list(range(big_n))
    for i in range(n):
        j = rng.randrange(i, big_n)
        pool[i], pool[j] = pool[j], pool[i]
    overlap = tuple(sorted(pool[:n]))
    overlap_set = set(overlap)

    first = [rng.getrandbits(l) for _ in range(big_n)]
    second = [k if j in overlap_set else rng.getrandbits(l) for j, k in enumerate(first)]
    return overlap, tuple(first), tuple(second)


def generate_keys(params: Params, seed: int | None = None) -> TtpSecret:
    """Draw a full key set; a fixed seed reproduces the set bit for bit.
    Parameters whose frames would not fit on the wire are refused before
    any key is drawn."""
    from ..transport.frames import MAX_PAYLOAD_BYTES  # transport imports this module

    # the widest payloads: a dispute claim and an encrypted digest vector
    payload_bytes = (max(params.data_bits, params.digest_vector_bits) + 7) // 8
    if payload_bytes > MAX_PAYLOAD_BYTES:
        raise ParameterError(
            f"a {payload_bytes}-byte frame payload exceeds the wire limit "
            f"of {MAX_PAYLOAD_BYTES} bytes"
        )
    rng = random.Random(seed) if seed is not None else secrets.SystemRandom()

    session_id = rng.getrandbits(8 * SESSION_ID_BYTES).to_bytes(
        SESSION_ID_BYTES, "little"
    )
    overlap, alice_subkeys, bob_subkeys = deal_subkeys(params, rng)
    alice_otp = rng.getrandbits(params.digest_vector_bits)
    bob_otp = rng.getrandbits(params.digest_vector_bits)
    alice_mac = _draw_mac(rng, params.tag_bits)
    bob_mac = _draw_mac(rng, params.tag_bits)

    alice = PartyKeys(params, session_id, ROLE_ALICE, alice_subkeys, alice_otp, alice_mac)
    bob = PartyKeys(params, session_id, ROLE_BOB, bob_subkeys, bob_otp, bob_mac)
    return TtpSecret(params, session_id, overlap, alice, bob)


# ----------------------------------------------------------------- file I/O


def _encode_nonneg(value: int) -> bytes:
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    if len(raw) > 0xFFFF:
        raise KeyMaterialError("integer field too large to encode")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, size: int) -> bytes:
        if size < 0 or self.pos + size > len(self.blob):
            raise KeyMaterialError("key file truncated")
        out = self.blob[self.pos : self.pos + size]
        self.pos += size
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def nonneg(self) -> int:
        (size,) = struct.unpack("<H", self.take(2))
        return int.from_bytes(self.take(size), "little")

    def done(self) -> None:
        if self.pos != len(self.blob):
            raise KeyMaterialError("trailing bytes in key file")


def _packed_bits(reader: _Reader, bit_len: int) -> int:
    nbytes = (bit_len + 7) // 8
    value = bytes_to_bits(reader.take(nbytes))
    if value >> bit_len:
        raise KeyMaterialError("nonzero padding bits in key file")
    return value


def _encode_params(params: Params, session_id: bytes) -> bytes:
    eps = params.epsilon
    out = [
        session_id,
        struct.pack("<Q", params.data_bits),
        _encode_nonneg(eps.numerator if eps is not None else 0),
        _encode_nonneg(eps.denominator if eps is not None else 0),
        struct.pack(
            "<III", params.shared_count, params.subkey_bits, params.subkey_count
        ),
    ]
    return b"".join(out)


def _decode_params(reader: _Reader) -> tuple[Params, bytes]:
    session_id = reader.take(SESSION_ID_BYTES)
    data_bits = reader.u64()
    num, den = reader.nonneg(), reader.nonneg()
    if (num == 0) != (den == 0):
        raise KeyMaterialError("malformed epsilon in key file")
    epsilon = Fraction(num, den) if den else None
    n, l, big_n = reader.u32(), reader.u32(), reader.u32()
    try:
        params = Params(data_bits, epsilon, n, l, big_n)
    except Exception as exc:
        raise KeyMaterialError(f"invalid parameter block: {exc}") from exc
    return params, session_id


def _encode_party_body(pk: PartyKeys) -> bytes:
    p = pk.params
    out = [
        bits_to_bytes(pack_vector(p, pk.subkeys), p.digest_vector_bits),
        bits_to_bytes(pk.otp_bits, p.digest_vector_bits),
    ]
    for name, width in pk.mac.field_bits(p.tag_bits):
        out.append(bits_to_bytes(getattr(pk.mac, name), width))
    return b"".join(out)


def _decode_party_body(
    reader: _Reader, params: Params, session_id: bytes, role: int
) -> PartyKeys:
    subkeys = unpack_vector(params, _packed_bits(reader, params.digest_vector_bits))
    otp = _packed_bits(reader, params.digest_vector_bits)
    fields = {}
    for name, width in MacMaterial.field_bits(params.tag_bits):
        fields[name] = _packed_bits(reader, width)
    return PartyKeys(params, session_id, role, subkeys, otp, MacMaterial(**fields))


def save_keys(path: str | Path, material: PartyKeys | TtpSecret) -> None:
    if isinstance(material, PartyKeys):
        role = material.role
        body = _encode_party_body(material)
        params, session_id = material.params, material.session_id
    else:
        role = ROLE_TTP
        params, session_id = material.params, material.session_id
        body = (
            b"".join(struct.pack("<I", j) for j in material.shared_indices)
            + _encode_party_body(material.alice)
            + _encode_party_body(material.bob)
        )
    blob = (
        MAGIC
        + bytes([FORMAT_VERSION, role])
        + _encode_params(params, session_id)
        + body
    )
    Path(path).write_bytes(blob)


def load_keys(path: str | Path) -> PartyKeys | TtpSecret:
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise KeyMaterialError("not a key file (bad magic)")
    version = reader.u8()
    if version != FORMAT_VERSION:
        raise KeyMaterialError(f"unsupported key-file version {version}")
    role = reader.u8()
    params, session_id = _decode_params(reader)
    if role in (ROLE_ALICE, ROLE_BOB):
        pk = _decode_party_body(reader, params, session_id, role)
        reader.done()
        return pk
    if role == ROLE_TTP:
        overlap = tuple(reader.u32() for _ in range(params.shared_count))
        alice = _decode_party_body(reader, params, session_id, ROLE_ALICE)
        bob = _decode_party_body(reader, params, session_id, ROLE_BOB)
        reader.done()
        return TtpSecret(params, session_id, overlap, alice, bob)
    raise KeyMaterialError(f"unknown role byte {role}")


def load_party_keys(path: str | Path) -> PartyKeys:
    material = load_keys(path)
    if not isinstance(material, PartyKeys):
        raise KeyMaterialError("expected a party key file, got the dealer's")
    return material


def load_ttp_secret(path: str | Path) -> TtpSecret:
    material = load_keys(path)
    if not isinstance(material, TtpSecret):
        raise KeyMaterialError("expected the dealer's key file, got a party's")
    return material
