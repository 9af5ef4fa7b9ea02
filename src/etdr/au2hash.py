"""Almost-universal hashing by polynomial evaluation over GF(2^l).

A message of r bits is split into c = ceil(r/l) blocks of l bits, front of
the bit-string first, final block zero-padded on its tail. Each block is
read as a field element (bit j of the block = coefficient of x^j) and the
digest for key k is

    block_1 + block_2 * k + ... + block_c * k^(c-1)

in GF(2^l). For two distinct messages of the same length the digests
collide for at most ceil(r/l - 1) of the 2^l keys, because the difference
is a nonzero polynomial in k of degree <= c-1. collision_bound() returns
that count divided by 2^l as an exact Fraction.

The digest is linear in the message over GF(2), so collision statistics
depend only on the XOR difference of a message pair; tests rely on this.

poly_hash, the digest under one key (the MAC's hash), runs Horner with
one of three kernels, by degree alone:

  * degrees up to 16: GF2.fixed_mul's log tables;
  * degrees 17 to 255: bit-spread products (_spread_hash). Each operand
    is spread to one byte per bit, so one integer multiply in CPython
    does the carry-less product: byte j of acc * k counts the terms of
    x^j, and its low bit is their parity. A byte counts up to `degree`
    terms, so from 256 one would carry into the next. The MAC's frames
    tag 1.5-1.9x faster than through the window at degrees 18 to 72;
  * degrees from 256: GF2.fixed_mul's 4-bit window. Spread to two bytes
    per bit, the products cost four times as much, and tags at degree
    280 ran at 0.4x of the window's speed (2-CPU x86 host).

hash_vector, the digests under all N subkeys, is nearly all of a
session's work. It returns them packed into one int (bits.pack_lanes's
lanes), and it takes one of four paths by input size:

  * keys x blocks below _LIST_PATH_MAX_WORK, or degrees above 27:
    VectorHasher, poly_hash's Horner loop once per key. Below the cutoff
    the other paths' fixed cost per call outweighs their speed; sessions
    with experimental sizes over a few bytes, the rows of the game's
    digest table and most `etdr attack` games too wide for it land there.
    No session goes above degree 27, because key dealing caps r at 2^27;
    only `etdr attack` with chosen widths does;
  * degrees up to 8 with r <= 2^l, every derived session with l <= 8
    (r = 256, the paper's corner): one table per degree, built once a
    process, holds the digests under all 2^l keys of each nibble value
    at each nibble of the message, one byte a key (_nibble_table). The
    digest is GF(2)-linear in the message, so the digests of a message
    under every key XOR one entry a nibble, and bytes.translate picks
    the subkeys' bytes out of them. The same bytes(keys) range-checks
    the keys in C. No numpy;
  * degrees up to 16 (the log-table degree): numpy gathers
    exp[log b_i + i * log k] for groups of keys and XOR-reduces each row;
  * degrees 17 to 27: numpy builds a table of key powers by doubling and
    4-bit windows of it, sums b_i * k^i for a slice of blocks from the
    windows, and joins the slices with carry-less array multiplies.

Both numpy paths chunk the message with one to_bytes and a gather of one
8-byte word per block (_block_array), and pack their row of digests with
one unpackbits and one packbits (_pack_digests); the first of them in a
process imports numpy (about 0.17 s).

The log-table path splits the keys into even groups (96 keys at 342
blocks run as 48 + 48) and gathers each group into scratch space that
every thread allocates on its first call and keeps: 2 x 128 kB a thread.
Allocated per call, buffers that size were handed back to the OS on free
(glibc trims freed heap above 128 kB) and faulted in again on the next
call. Only a message with over 2^15 nonzero blocks, which no session
sends, allocates per call.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .bits import pack_lanes
from .errors import ParameterError
from .gf2field import _MUL_TABLE_MAX_DEGREE, GF2, _taps


def block_count(msg_bits: int, degree: int) -> int:
    if msg_bits < 1:
        raise ParameterError("message must contain at least one bit")
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    return -(-msg_bits // degree)


# The list path below this many key-block products (keys x r/l): numpy's
# fixed cost per digest vector (about 40 us) exceeds VectorHasher's loop,
# which the crossover put between 100 and 200 products on a 2-CPU x86 host.
_LIST_PATH_MAX_WORK = 160
# Highest degree on the nibble-table path: a digest fits a byte, so the
# digests under all 2^l keys are 2^l bytes that bytes.translate indexes by
# key. The path needs r <= 2^l as well, which caps the table at 2^l / 4
# nibbles x 15 values x 2^l bytes: 0.3 MB at l = 8, built in about 3 ms.
_NIBBLE_TABLE_MAX_DEGREE = 8
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
# Highest degree on the numpy paths: key dealing caps r at 2^27, so l <= 27
# (and the carry-less path's uint32 windows hold l + 3 bits).
_VECTOR_MAX_DEGREE = 27
# Entries in one log-table gather for a group of keys: 2^15 uint32 entries
# are 128 kB a buffer, so both buffers stay in cache. At r = 2^12 with 264
# keys 2^15 took 0.33 ms and 2^16 0.88 ms (2-CPU Xeon); at r = 2^16 they tie.
# Each thread keeps both buffers (2 x 128 kB) in _scratch for good: glibc
# trims freed heap above 128 kB back to the OS, so buffers allocated per
# call were faulted in again on every call. Keys are split into even
# groups, so each gather is as small as the number of groups allows.
_TABLE_ENTRIES = 1 << 15
_scratch = threading.local()
# The carry-less path's slices (blocks sharing one window table of key
# powers) and groups (slices weighted in one array multiply), powers of
# two so that doubling ends on k^s and k^(s g).
_SLICE_BLOCKS = 128
_GROUP_SLICES = 32
# Blocks per piece that chunk_blocks shifts: a multiple of 8, so that a
# piece is a whole number of bytes.
_PIECE_BLOCKS = 64
# Groups of 8 blocks that _block_array reads at once: 4 MB of uint64 words.
_WORD_GROUPS = 1 << 16
# Highest degree that poly_hash multiplies bit-spread: a byte of a spread
# product counts up to `degree` terms, and at 256 one would carry into the
# next byte. Spread to two bytes a bit, tags at degree 280 ran at 0.4x of
# the 4-bit window's speed, so the window stays above it.
_SPREAD_MAX_DEGREE = 255
_SPREAD = bytes.maketrans(b"01", b"\0\1")
_UNSPREAD = bytes.maketrans(b"\0\1", b"01")


def chunk_blocks(value: int, msg_bits: int, degree: int) -> list[int]:
    """The block sequence hashed for this message, front block first."""
    c = block_count(msg_bits, degree)
    width, mask = c * degree, (1 << degree) - 1
    if c <= _PIECE_BLOCKS:
        # One shift of the message per block: at 3 blocks, cutting bytes
        # costs 2.0 us a call against 0.9 us. Messages this short come
        # from the MAC's tags at degrees outside the bit-spread range,
        # list-path digest vectors and the bit basis of the game's
        # digest table.
        return [value >> i & mask for i in range(0, width, degree)]
    # Shifting the whole message once per block would cost O(r^2 / l): cut
    # its bytes into pieces first, so that only a piece is shifted.
    step = _PIECE_BLOCKS * degree // 8
    data = (value & ((1 << width) - 1)).to_bytes(-(-width // 8), "little")
    out = []
    for at in range(0, len(data), step):
        piece = int.from_bytes(data[at : at + step], "little")
        out += [piece >> i & mask for i in range(0, min(8 * step, width - 8 * at), degree)]
    return out


@lru_cache(maxsize=None)
def _nibble_table(degree: int) -> tuple[tuple[int, ...], ...]:
    """For degree <= 8: rows[j][v] is an int of 2^degree bytes whose byte k
    is the digest under key k of the message whose only nonzero nibble is
    nibble j (bits [4j, 4j+4)), with value v. Rows cover the blocks of a
    2^degree-bit message, whose last block may run past bit 2^degree.
    A single bit x^t of block i has digest x^t * k^i: the powers k^i of
    every key, as bytes, translated through the table of x^t * a."""
    field = GF2.get(degree)
    exp, log = field.log_tables()
    order, n = field.order, field.order - 1

    def by_key(digest) -> bytes:
        """digest(k) at byte k for every key k of the field, as a row of 256
        bytes for bytes.translate (hash_vector refuses keys outside it)."""
        return bytes([digest(k) for k in range(order)]).ljust(256, b"\0")

    times = [by_key(lambda a: exp[log[a] + log[1 << t]] if a else 0) for t in range(degree)]
    bit_rows = []
    for i in range(block_count(order, degree)):
        powers = by_key(lambda k: exp[log[k] * i % n] if k else int(i == 0))  # 0^0 = 1
        bit_rows += [int.from_bytes(powers.translate(x_t), "little") for x_t in times]
    bit_rows += [0] * (-len(bit_rows) % 4)
    rows = []
    for j in range(0, len(bit_rows), 4):
        row = [0] * 16
        for v in range(1, 16):
            row[v] = row[v & (v - 1)] ^ bit_rows[j + (v & -v).bit_length() - 1]
        rows.append(tuple(row))
    return tuple(rows)


def _nibble_digests(keys: list[int], value: int, msg_bits: int, degree: int) -> int:
    """hash_vector for degree <= 8 and msg_bits <= 2^degree: the digests
    under every key XOR one _nibble_table entry a nibble of the message's
    blocks, and the keys' bytes pick their digests out. The same bytes
    range-check the keys in C: bytes() refuses values outside [0, 256),
    and below degree 8 deleting every field element must leave nothing."""
    try:
        key_bytes = bytes(keys)
    except ValueError:
        raise ParameterError("key outside the field") from None
    if degree < 8 and key_bytes.translate(None, bytes(range(1 << degree))):
        raise ParameterError("key outside the field")
    width = block_count(msg_bits, degree) * degree
    nibbles = format(value & ((1 << width) - 1), "x").encode().translate(_HEX_DIGITS)[::-1]
    every_key = 0
    for row, v in zip(_nibble_table(degree), nibbles):
        every_key ^= row[v]
    return pack_lanes(key_bytes.translate(every_key.to_bytes(256, "little")), degree)


def _block_array(value: int, msg_bits: int, degree: int):
    """chunk_blocks as a uint32 numpy array (degree <= 27). Blocks 8g to
    8g + 7 start in bytes g*l to g*l + l - 1: block 8g + j is the
    little-endian 8-byte word at byte g*l + j*l // 8, shifted right by
    j*l % 8 and masked. So after one to_bytes the numpy work is O(r / l),
    done _WORD_GROUPS groups at a time to keep the uint64 words small."""
    import numpy as np

    c = block_count(msg_bits, degree)
    groups = -(-c // 8)
    data = (value & ((1 << c * degree) - 1)).to_bytes(groups * degree + 8, "little")
    words = np.ndarray((groups, degree), "<u8", data, 0, (degree, 1))  # a word at every byte
    column = [j * degree // 8 for j in range(8)]
    shift = np.array([j * degree % 8 for j in range(8)], np.uint64)
    mask = np.uint64((1 << degree) - 1)
    out = np.empty((groups, 8), np.uint32)
    for first in range(0, groups, _WORD_GROUPS):
        part = words[first : first + _WORD_GROUPS].take(column, axis=1)
        part >>= shift
        part &= mask
        out[first : first + _WORD_GROUPS] = part
    return out.ravel()[:c]


def collision_bound(msg_bits: int, degree: int) -> Fraction:
    """Max fraction of keys on which two distinct msg_bits-bit messages collide."""
    return Fraction(block_count(msg_bits, degree) - 1, 1 << degree)


def _check_keys(field: GF2, keys) -> None:
    if keys and (min(keys) < 0 or max(keys) >= field.order):
        raise ParameterError("key outside the field")


def _horner(mul_k, blocks: list[int]) -> int:
    """sum of blocks[i] * k^i, Horner on the reversed blocks; mul_k(a) = k*a.
    The last block starts the sum, so no multiply is spent on zero."""
    rest = reversed(blocks)
    acc = next(rest, 0)
    for block in rest:
        acc = mul_k(acc) ^ block
    return acc


@lru_cache(maxsize=None)
def _spread_constants(degree: int) -> tuple[int, int, int]:
    """(taps, ones, low) for _spread_hash: the pinned polynomial's terms
    below x^degree, one byte a term; 0x0101..01 over a product's 2*degree
    bytes; and the mask of the bytes below x^degree."""
    taps = sum(1 << 8 * e for e in _taps(GF2.get(degree).poly, degree))
    return taps, int.from_bytes(b"\1" * (2 * degree), "little"), (1 << 8 * degree) - 1


def _spread_hash(key: int, value: int, msg_bits: int, degree: int) -> int:
    """poly_hash for 16 < degree <= _SPREAD_MAX_DEGREE, with the carry-less
    products done by CPython's integer multiply. Operands are spread to one
    byte per bit (byte j of the int = coefficient of x^j), so byte j of
    acc * k counts the terms of x^j, at most `degree` of them, and
    `& ones` keeps their parity. Each fold adds the bytes at and above
    x^degree times the taps back below, as _reduce does, until nothing
    is left there; the first fold also adds the next block, so a byte of
    a fold counts at most one term more than the pinned polynomial has.
    Blocks are cut from one spread copy of the message and the digest is
    unspread once."""
    if key < 0 or key >> degree:
        raise ParameterError("operand outside the field")
    taps, ones, low = _spread_constants(degree)
    shift = 8 * degree
    width = block_count(msg_bits, degree) * degree
    spread = format(value & ((1 << width) - 1), f"0{width}b").encode().translate(_SPREAD)
    k = int.from_bytes(format(key, f"0{degree}b").encode().translate(_SPREAD), "big")
    acc = int.from_bytes(spread[:degree], "big")  # the last block, top bit first
    for at in range(degree, width, degree):
        product = acc * k & ones
        block = int.from_bytes(spread[at : at + degree], "big")
        acc = (product & low) + (product >> shift) * taps + block & ones
        while hi := acc >> shift:
            acc = (acc & low) + hi * taps & ones
    return int(acc.to_bytes(degree, "big").translate(_UNSPREAD), 2)


def poly_hash(key: int, value: int, msg_bits: int, degree: int) -> int:
    """Digest of one message under one key: by bit-spread products for
    16 < degree <= _SPREAD_MAX_DEGREE, else Horner over GF2.fixed_mul(key)
    (log tables up to degree 16, the 4-bit window from 256 up)."""
    if _MUL_TABLE_MAX_DEGREE < degree <= _SPREAD_MAX_DEGREE:
        return _spread_hash(key, value, msg_bits, degree)
    mul_k = GF2.get(degree).fixed_mul(key)  # rejects a key outside the field
    return _horner(mul_k, chunk_blocks(value, msg_bits, degree))


class VectorHasher:
    """All-keys digest vector over a message's blocks.

    update() checks a block and stores it, front block first, so the state
    is the message's blocks; digests() runs poly_hash's Horner loop once per
    key. hash_vector uses it only for small inputs and for degrees above 27
    (see the module docstring): there a Python loop beats numpy's fixed
    cost per call, and the field's scalar multiply covers any degree.
    """

    def __init__(self, degree: int, keys: list[int]):
        self.field = GF2.get(degree)
        _check_keys(self.field, keys)
        self.keys = list(keys)
        self._blocks: list[int] = []
        self._done = False

    def update(self, block: int) -> None:
        if self._done:
            raise ParameterError("hasher already finalized")
        if block < 0 or block >= self.field.order:
            raise ParameterError("block outside the field")
        self._blocks.append(block)

    def digests(self) -> list[int]:
        self._done = True
        return [_horner(self.field._multiplier(k), self._blocks) for k in self.keys]


def _log_digests(field: GF2, keys, blocks):
    """Degrees <= 16: the digest for key k != 0 XORs exp[log b_i + i log k]
    over the nonzero blocks b_i. Keys go in even groups whose gather fits
    _TABLE_ENTRIES, through the thread's scratch buffers. i log k <
    2^(2l) is reduced mod 2^l - 1 by adding its high half to its low half;
    with log b_i the index stays below 3(2^l - 1), the length of exp3."""
    import numpy as np

    exp3, log = field.log_arrays()
    n, degree = np.uint32(field.order - 1), np.uint32(field.degree)
    nonzero = np.flatnonzero(blocks)
    log_b = log[blocks[nonzero]]
    index = (nonzero % int(n)).astype(np.uint32)
    log_k = log[keys]
    out = np.empty(len(keys), np.uint32)
    group_max = max(1, _TABLE_ENTRIES // max(1, len(index)))
    group = -(-len(keys) // -(-len(keys) // group_max))  # 96 keys: 48 + 48, not 95 + 1
    size = group * len(index)
    scratch = getattr(_scratch, "buffer", None)
    if scratch is None:
        scratch = _scratch.buffer = np.empty(2 * _TABLE_ENTRIES, np.uint32)
    if size > _TABLE_ENTRIES:  # over 2^15 nonzero blocks: one key a group
        scratch = np.empty(2 * size, np.uint32)
    # e_buf and hi_buf side by side: 128 kB apart, a multiple of the 4 kB
    # page, they slowed r = 256 gathers by about 3 us a call (2-CPU x86)
    e_buf = scratch[:size].reshape(group, len(index))
    hi_buf = scratch[size : 2 * size].reshape(group, len(index))
    for first in range(0, len(keys), group):
        lk = log_k[first : first + group]
        e, hi = e_buf[: len(lk)], hi_buf[: len(lk)]
        np.multiply.outer(lk, index, out=e)
        np.right_shift(e, degree, out=hi)
        e &= n
        e += hi
        e += log_b
        out[first : first + group] = np.bitwise_xor.reduce(np.take(exp3, e, out=hi), axis=1)
    out[keys == 0] = blocks[0]  # k^0 = 1 even for k = 0
    return out


def _powers(field: GF2, k, count: int):
    """(k^0 .. k^(count-1) per key as a (count, keys) uint64 table, k^count)
    for count a power of two: doubling, one array multiply a round gives
    rows [w, 2w) and k^(2w)."""
    import numpy as np

    table = np.empty((count, len(k)), np.uint64)
    table[0] = 1
    width = 1
    while width < count:  # here k holds k^width
        product = field.mul_arrays(np.vstack([table[:width], k]), k)
        table[width : 2 * width], k = product[:width], product[width]
        width *= 2
    return table, k


def _clmul_digests(field: GF2, keys, blocks):
    """Degrees 17-27. With s blocks to a slice, the digest is
    sum_j (k^s)^j D_j, where D_j = sum_{i<s} b_{js+i} k^i. Every slice
    reads one window table, W[16i + v] = v * k^i carry-less and unreduced,
    so D_j XORs W[16i + (4 bits of b_{js+i})], shifted into place. A group
    of slices weights its D_j with powers of k^s in one array multiply,
    and Horner in k^(s g) joins the groups back to front."""
    import numpy as np

    k = keys.astype(np.uint64)
    n_keys, c = len(k), len(blocks)
    s = min(_SLICE_BLOCKS, 1 << (c - 1).bit_length())
    n_slices = -(-c // s)
    g = min(_GROUP_SLICES, 1 << (n_slices - 1).bit_length())
    powers, k_s = _powers(field, k, s)
    weights, k_group = _powers(field, k_s, g)
    powers = powers.astype(np.uint32)  # field elements, l <= 27 bits
    window = np.zeros((s, 16, n_keys), np.uint32)
    for b in range(4):
        window[:, 1 << b] = powers << b
    for v in range(3, 16):
        if v & (v - 1):
            window[:, v] = window[:, v & -v] ^ window[:, v & (v - 1)]
    window = window.reshape(16 * s, n_keys)
    padded = np.zeros(n_slices * s, np.uint32)
    padded[:c] = blocks
    slices = padded.reshape(n_slices, s)
    nibble = np.arange(0, field.degree, 4, dtype=np.uint32)
    row = np.arange(0, 16 * s, 16, dtype=np.uint32)[:, None]
    sums = np.empty((g, n_keys), np.uint64)
    acc = np.zeros(n_keys, np.uint64)
    for first in reversed(range(0, n_slices, g)):
        group = slices[first : first + g]
        index = row + (group[:, :, None] >> nibble & 15)  # (slices, s, nibbles)
        for j in range(len(group)):
            parts = np.bitwise_xor.reduce(np.take(window, index[j], axis=0), axis=0)
            sums[j] = np.bitwise_xor.reduce(parts.astype(np.uint64) << nibble[:, None], axis=0)
        weighted = field.mul_arrays(field.reduce_array(sums[: len(group)]), weights[: len(group)])
        acc = field.mul_arrays(acc, k_group) ^ np.bitwise_xor.reduce(weighted, axis=0)
    return acc


def _pack_digests(digests, degree: int) -> int:
    """A numpy row of digests packed as pack_lanes packs them: the low
    `degree` bits of each digest's 4 bytes, one digest after the other."""
    import numpy as np

    digest_bytes = digests.astype("<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(digest_bytes, axis=1, count=degree, bitorder="little")
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def hash_vector(keys: list[int], value: int, msg_bits: int, degree: int) -> int:
    """Digests of one message under every key, the one under keys[j] at bits
    [j*degree, (j+1)*degree) (see the module docstring for the paths)."""
    if degree > _VECTOR_MAX_DEGREE or len(keys) * msg_bits < _LIST_PATH_MAX_WORK * degree:
        hasher = VectorHasher(degree, keys)
        for block in chunk_blocks(value, msg_bits, degree):
            hasher.update(block)
        return pack_lanes(hasher.digests(), degree)
    field = GF2.get(degree)
    if degree <= _NIBBLE_TABLE_MAX_DEGREE and msg_bits <= field.order:
        return _nibble_digests(keys, value, msg_bits, degree)
    _check_keys(field, keys)
    import numpy as np

    blocks = _block_array(value, msg_bits, degree)
    keys_array = np.array(keys, np.int64)
    if degree <= _MUL_TABLE_MAX_DEGREE:
        return _pack_digests(_log_digests(field, keys_array, blocks), degree)
    return _pack_digests(_clmul_digests(field, keys_array, blocks), degree)
