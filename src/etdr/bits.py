"""Bit-string helpers.

A bit-string of length n is an int whose bit k (value >> k & 1) is the k-th
bit of the stream, k = 0 first. Bytes convert little-endian, so bit 0 of a
stream is bit 0 of its first byte. All modules share this convention.
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


@dataclass(frozen=True)
class Message:
    """An input bit-string of explicit length (lengths need not be byte-aligned)."""

    value: int
    bit_len: int

    def __post_init__(self) -> None:
        if self.bit_len < 1:
            raise ParameterError("message must contain at least one bit")
        if self.value < 0 or self.value.bit_length() > self.bit_len:
            raise ParameterError("message value wider than its declared length")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Message":
        return cls(bytes_to_bits(data), 8 * len(data))

    def to_bytes(self) -> bytes:
        return bits_to_bytes(self.value, self.bit_len)
