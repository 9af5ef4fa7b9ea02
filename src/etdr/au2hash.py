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

hash_vector, the digests under all N subkeys, is nearly all of a
session's work, and it takes one of three paths by input size:

  * degrees up to 16 (the log-table degree), keys x blocks at least
    _LIST_PATH_MAX_WORK: numpy gathers exp[log b_i + i * log k] for groups
    of keys and XOR-reduces each row;
  * degrees 17 to 27: numpy builds a table of key powers by doubling and
    4-bit windows of it, sums b_i * k^i for a slice of blocks from the
    windows, and joins the slices with carry-less array multiplies;
  * everything else: VectorHasher, a Python loop per block. Below the
    cutoff numpy's fixed cost per call outweighs its speed; sessions with
    experimental sizes over a few bytes and `etdr attack` games too wide
    for the game's digest table land there. No session goes above degree
    27, because key dealing caps r at 2^27; only `etdr attack` with
    chosen widths does.

Both numpy paths chunk the message with one to_bytes and a gather of one
8-byte word per block (_block_array); the first of them in a process
imports numpy (about 0.17 s).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError
from .gf2field import _MUL_TABLE_MAX_DEGREE, GF2


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
# Highest degree on the numpy paths: key dealing caps r at 2^27, so l <= 27
# (and the carry-less path's uint32 windows hold l + 3 bits).
_VECTOR_MAX_DEGREE = 27
# Entries in one log-table gather for a group of keys: 2^15 uint32 entries
# are 128 kB a buffer, so both buffers stay in cache. At r = 2^12 with 264
# keys 2^15 took 0.33 ms and 2^16 0.88 ms (2-CPU Xeon); at r = 2^16 they tie.
_TABLE_ENTRIES = 1 << 15
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


def chunk_blocks(value: int, msg_bits: int, degree: int) -> list[int]:
    """The block sequence hashed for this message, front block first."""
    c = block_count(msg_bits, degree)
    width, mask = c * degree, (1 << degree) - 1
    if c <= _PIECE_BLOCKS:
        # One shift of the message per block: at 3 blocks, cutting bytes
        # costs 2.0 us a call against 0.9 us. Messages this short come
        # from the MAC's tags over frames, list-path digest vectors and
        # the bit basis of the game's digest table.
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
    for k in keys:
        if k < 0 or k >= field.order:
            raise ParameterError("key outside the field")


def poly_hash(key: int, value: int, msg_bits: int, degree: int) -> int:
    """Digest of one message under one key (Horner on the reversed blocks)."""
    field = GF2.get(degree)
    _check_keys(field, [key])
    blocks = chunk_blocks(value, msg_bits, degree)
    mul_k = field.fixed_mul(key)
    acc = 0
    for block in reversed(blocks):
        acc = mul_k(acc) ^ block
    return acc


class VectorHasher:
    """All-keys digest vector in one streaming pass over the message.

    update() consumes blocks front to back; digests() finalizes. The state
    is O(l) per key regardless of message length. hash_vector uses it only
    for small inputs and for degrees above 27 (see the module docstring);
    it stays because there a Python loop beats numpy's fixed cost per call,
    and the window multiply covers any degree.

    Up to the field's log-table degree (16), each key is held as log k and
    update(b_i) XORs exp[log b_i + (i * log k mod (2^l - 1))] into the
    accumulator of every nonzero key: no field multiply, and a zero block
    costs nothing. A zero key's digest is the first block. Above degree 16
    each key keeps a running power k^i and its fixed_mul closure, and
    update(b_i) builds b_i's window once, then makes two window multiplies
    per key.
    """

    def __init__(self, degree: int, keys: list[int]):
        self.field = GF2.get(degree)
        self.degree = degree
        _check_keys(self.field, keys)
        self.keys = list(keys)
        self._tables = self.field.log_tables()
        if self._tables is None:
            self._acc = [0] * len(keys)
            self._kpow = [1] * len(keys)
            self._mul_k = [self.field.fixed_mul(k) for k in keys]
        else:
            log = self._tables[1]
            self._logk = [log[k] for k in keys if k]
            self._acc = [0] * len(self._logk)
            self._first = 0
            self._index = 0
        self._done = False

    def update(self, block: int) -> None:
        if self._done:
            raise ParameterError("hasher already finalized")
        if self._tables is None:
            acc, kpow = self._acc, self._kpow
            mul_b = self.field.fixed_mul(block)  # rejects a block outside the field
            for j, mul_k in enumerate(self._mul_k):
                acc[j] ^= mul_b(kpow[j])
                kpow[j] = mul_k(kpow[j])
            return
        if block < 0 or block >= self.field.order:
            raise ParameterError("block outside the field")
        i = self._index
        self._index = i + 1
        if not block:
            return
        if not i:
            self._first = block
        exp, log = self._tables
        n = self.field.order - 1
        lb, i = log[block], i % n
        self._acc = [a ^ exp[lb + i * lk % n] for a, lk in zip(self._acc, self._logk)]

    def digests(self) -> list[int]:
        self._done = True
        if self._tables is None:
            return list(self._acc)
        nonzero = iter(self._acc)
        return [next(nonzero) if k else self._first for k in self.keys]


def _log_digests(field: GF2, keys, blocks):
    """Degrees <= 16: the digest for key k != 0 XORs exp[log b_i + i log k]
    over the nonzero blocks b_i. Keys go in groups whose gather stays near
    _TABLE_ENTRIES, through two buffers reused for every group. i log k <
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
    group = min(len(keys), max(1, _TABLE_ENTRIES // max(1, len(index))))
    e_buf = np.empty((group, len(index)), np.uint32)
    hi_buf = np.empty_like(e_buf)
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


def hash_vector(keys: list[int], value: int, msg_bits: int, degree: int) -> list[int]:
    """Digests of one message under every key (see the module docstring
    for which path serves which sizes)."""
    if degree > _VECTOR_MAX_DEGREE or len(keys) * msg_bits < _LIST_PATH_MAX_WORK * degree:
        hasher = VectorHasher(degree, keys)
        for block in chunk_blocks(value, msg_bits, degree):
            hasher.update(block)
        return hasher.digests()
    import numpy as np

    field = GF2.get(degree)
    _check_keys(field, keys)
    blocks = _block_array(value, msg_bits, degree)
    keys_array = np.array(keys, np.int64)
    if degree <= _MUL_TABLE_MAX_DEGREE:
        return _log_digests(field, keys_array, blocks).tolist()
    return _clmul_digests(field, keys_array, blocks).tolist()
