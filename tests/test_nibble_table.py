"""hash_vector's nibble-table path: degrees up to 8 with r <= 2^l, which
covers every derived session at r = 256, the paper's corner."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from etdr import au2hash
from etdr.au2hash import hash_vector
from etdr.errors import ParameterError
from oracles import horner_oracle, pack_digests

SRC = Path(__file__).resolve().parents[1] / "src"


def fewest_bits(n_keys, degree):
    """The shortest message that n_keys keys hash off the list path."""
    return -(-au2hash._LIST_PATH_MAX_WORK * degree // n_keys)


@pytest.mark.parametrize("degree", range(1, 9))
def test_nibble_table_path_matches_the_oracle(degree, monkeypatch):
    q = 1 << degree
    rng = random.Random(400 + degree)
    reached = []
    kernel = au2hash._nibble_digests

    def spy(keys, value, msg_bits, degree):
        reached.append(msg_bits)
        return kernel(keys, value, msg_bits, degree)

    monkeypatch.setattr(au2hash, "_nibble_digests", spy)
    for n_keys in (max(3, fewest_bits(q, degree)), 528):  # the fewest keys that reach it, then many
        keys = [0, 1, q - 1] + [rng.randrange(q) for _ in range(n_keys - 3)]
        lowest = fewest_bits(n_keys, degree)
        # the shortest message on the path, a partial last block, 2^l bits,
        # and the sizes just outside it on both sides
        sizes = sorted({lowest, q - 1, rng.randint(lowest, q), q, lowest - 1, q + 1} - {0})
        for bits in sizes:
            on_path = lowest <= bits <= q
            for v in (0, (1 << bits + 9) - 1, rng.getrandbits(bits + 16) | 1 << bits + 15):
                # v's bits above the last block are ignored, as chunk_blocks ignores them
                want = {k: horner_oracle(k, v, bits, degree) for k in set(keys)}
                before = len(reached)
                got = hash_vector(keys, v, bits, degree)
                assert got == pack_digests([want[k] for k in keys], degree), (n_keys, bits, v)
                assert len(reached) - before == on_path, (n_keys, bits)
    assert reached


@pytest.mark.parametrize("degree", range(1, 9))
def test_nibble_table_path_refuses_keys_outside_the_field(degree):
    # bytes() takes every key below 256, so below l = 8 the keys in
    # [2^l, 256) must be refused by the path's own check
    q = 1 << degree
    keys = [k % q for k in range(128)]
    bits = max(fewest_bits(len(keys), degree), 1)
    assert bits <= q  # on the nibble-table path
    hash_vector(keys, 1, bits, degree)
    for bad in sorted({q, q + 1, 255, 256, -1} - set(range(q))):
        with pytest.raises(ParameterError, match="^key outside the field$"):
            hash_vector(keys[:5] + [bad] + keys[5:], 1, bits, degree)


def test_corner_sessions_import_no_numpy():
    """Dealing, a comparison and a dispute at r = 256, at epsilon 1/16 and
    2^-40, in a fresh interpreter: none of it imports numpy, so a one-shot
    `etdr demo` at the corner does not pay its import."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fractions import Fraction\n"
        "from etdr.bits import Message\n"
        "from etdr.etproto.core import ET_EQUAL, Verdict\n"
        "from etdr.etproto.keys import generate_keys\n"
        "from etdr.params import derive_params\n"
        "from etdr.transport.channel import run_session\n"
        "for seed, eps in enumerate((Fraction(1, 16), Fraction(1, 2**40))):\n"
        "    params = derive_params(256, eps)\n"
        "    a, b = Message(0x1234, 256), Message(0x9999, 256)\n"
        "    same = run_session(generate_keys(params, seed=2 * seed), a, a)\n"
        "    assert same.clean and same.et_outcome_a == ET_EQUAL\n"
        "    lie = run_session(generate_keys(params, seed=2 * seed + 1), a, b,\n"
        "                      dispute=True, claim_b=Message(0x4444, 256))\n"
        "    assert lie.verdict_a == Verdict.ALICE_CORRECT\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
