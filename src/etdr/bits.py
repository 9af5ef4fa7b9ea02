"""Bit-string helpers.

A bit-string of length n is an int whose bit k (value >> k & 1) is the k-th
bit of the stream, k = 0 first. Bytes convert little-endian, so bit 0 of a
stream is bit 0 of its first byte. All modules share this convention.

pack_lanes and unpack_lanes are the one packer of lanes: digest vectors,
their pads and a key file's subkeys. Lanes of 8 bits, the subkeys and
digests of every derived session at r = 256, are the bytes of the packed
int, so int.from_bytes and int.to_bytes convert them in one call each.
Other widths loop over the lanes in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


def bits_to_bytes(value: int, bit_len: int) -> bytes:
    if value < 0 or value.bit_length() > bit_len:
        raise ParameterError(f"value does not fit in {bit_len} bits")
    return value.to_bytes((bit_len + 7) // 8, "little")


def bytes_to_bits(data: bytes, bit_len: int | None = None) -> int:
    value = int.from_bytes(data, "little")
    if bit_len is not None:
        if (bit_len + 7) // 8 != len(data) or value.bit_length() > bit_len:
            raise ParameterError("byte length does not match declared bit length")
    return value


def pack_lanes(lanes, width: int) -> int:
    """lanes[j] at bits [j*width, (j+1)*width): the layout of digest vectors,
    their pads and a key file's subkeys. Callers pass lanes below 2^width."""
    if width == 8:
        return int.from_bytes(bytes(lanes), "little")
    packed = 0
    for lane in reversed(lanes):
        packed = packed << width | lane
    return packed


def unpack_lanes(packed: int, width: int, count: int) -> tuple[int, ...]:
    """The `count` lanes of `width` bits that pack_lanes packed."""
    if packed >> count * width:  # a negative value shifts to -1
        raise ParameterError(f"packed value wider than {count} lanes of {width} bits")
    if width == 8:
        return tuple(packed.to_bytes(count, "little"))
    mask = (1 << width) - 1
    return tuple(packed >> at & mask for at in range(0, count * width, width))


@dataclass(frozen=True)
class Message:
    """An input bit-string of explicit length (lengths need not be byte-aligned)."""

    value: int
    bit_len: int

    def __init__(self, value: int, bit_len: int) -> None:
        if bit_len < 1:
            raise ParameterError("message must contain at least one bit")
        if value < 0 or value.bit_length() > bit_len:
            raise ParameterError("message value wider than its declared length")
        # the adversarial game makes two a trial: set the frozen fields in
        # the instance dict, without the generated __init__'s two
        # object.__setattr__ calls and a __post_init__ frame
        fields = self.__dict__
        fields["value"], fields["bit_len"] = value, bit_len

    @classmethod
    def from_bytes(cls, data: bytes) -> "Message":
        return cls(bytes_to_bits(data), 8 * len(data))
