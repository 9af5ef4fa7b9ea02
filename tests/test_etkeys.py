"""Key generation, the overlap distribution, and key-file round-trips."""

import itertools
import random
from fractions import Fraction

import pytest

from etdr.errors import KeyMaterialError, ParameterError
from etdr.etproto import keys as K
from etdr.params import derive_params, experimental_params

from oracles import CHI2_999

PARAMS = derive_params(256, Fraction(1, 16))
TINY = experimental_params(data_bits=4, shared_count=2, subkey_bits=2)


def test_generate_is_seed_deterministic():
    a = K.generate_keys(PARAMS, seed=1234)
    b = K.generate_keys(PARAMS, seed=1234)
    assert a == b
    c = K.generate_keys(PARAMS, seed=1235)
    assert c.session_id != a.session_id
    assert c.alice.subkeys != a.alice.subkeys


def test_unseeded_draws_differ():
    a = K.generate_keys(TINY)
    b = K.generate_keys(TINY)
    assert a.session_id != b.session_id


def test_overlap_well_formed_and_shared():
    sec = K.generate_keys(PARAMS, seed=9)
    overlap = sec.shared_indices
    assert len(overlap) == PARAMS.shared_count
    assert len(set(overlap)) == len(overlap)
    assert list(overlap) == sorted(overlap)
    assert all(0 <= j < PARAMS.subkey_count for j in overlap)
    for j in overlap:
        assert sec.alice.subkeys[j] == sec.bob.subkeys[j]
    assert sec.alice.subkeys != sec.bob.subkeys


def test_overlap_uniform_over_subsets():
    # N=4, n=2: six possible overlap sets, chi-square at the 99.9% point
    counts = {s: 0 for s in itertools.combinations(range(4), 2)}
    trials = 6000
    for seed in range(trials):
        counts[K.generate_keys(TINY, seed=seed).shared_indices] += 1
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_999[5]


def test_subkeys_are_dealt_right_after_the_session_id():
    sec = K.generate_keys(PARAMS, seed=1234)
    rng = random.Random(1234)
    rng.getrandbits(8 * K.SESSION_ID_BYTES)
    dealt = K.deal_subkeys(PARAMS, rng)
    assert dealt == (sec.shared_indices, sec.alice.subkeys, sec.bob.subkeys)


def test_keygen_refuses_frames_over_the_wire_limit():
    # a dispute claim carries ceil(r/8) bytes; frames cap payloads at 2^24
    sec = K.generate_keys(derive_params(2**27, Fraction(1, 16)), seed=1)
    assert sec.params.data_bits == 2**27
    with pytest.raises(ParameterError):
        K.generate_keys(derive_params(2**27 + 8, Fraction(1, 16)), seed=1)
    # the calculator's domain is unchanged
    assert derive_params(2**50, Fraction(1, 10**12)).subkey_bits == 50


def test_material_widths():
    sec = K.generate_keys(PARAMS, seed=3)
    tag_bits = PARAMS.tag_bits
    for pk in (sec.alice, sec.bob):
        assert len(pk.subkeys) == PARAMS.subkey_count
        assert all(k < (1 << PARAMS.subkey_bits) for k in pk.subkeys)
        assert pk.otp_bits < (1 << PARAMS.digest_vector_bits)
        assert pk.mac.et_hash_key < (1 << (2 * tag_bits))
        assert pk.mac.dr_announce_pad < (1 << tag_bits)


def test_party_file_round_trip(tmp_path):
    sec = K.generate_keys(PARAMS, seed=42)
    for pk in (sec.alice, sec.bob):
        path = tmp_path / f"{pk.role}.key"
        K.save_keys(path, pk)
        assert K.load_party_keys(path) == pk
        assert K.load_keys(path) == pk


def test_ttp_file_round_trip(tmp_path):
    sec = K.generate_keys(PARAMS, seed=42)
    path = tmp_path / "ttp.key"
    K.save_keys(path, sec)
    assert K.load_ttp_secret(path) == sec


def test_tiny_experimental_round_trip(tmp_path):
    # epsilon None must survive the trip too
    sec = K.generate_keys(TINY, seed=5)
    path = tmp_path / "ttp.key"
    K.save_keys(path, sec)
    back = K.load_ttp_secret(path)
    assert back == sec
    assert back.params.epsilon is None


def test_role_confusion_rejected(tmp_path):
    sec = K.generate_keys(PARAMS, seed=8)
    K.save_keys(tmp_path / "alice.key", sec.alice)
    K.save_keys(tmp_path / "ttp.key", sec)
    with pytest.raises(KeyMaterialError):
        K.load_party_keys(tmp_path / "ttp.key")
    with pytest.raises(KeyMaterialError):
        K.load_ttp_secret(tmp_path / "alice.key")
    with pytest.raises(KeyMaterialError):
        K.load_party_keys(tmp_path / "alice.key", role=K.ROLE_BOB)
    assert K.load_party_keys(tmp_path / "alice.key", role=K.ROLE_ALICE) == sec.alice


def test_corrupt_files_rejected(tmp_path):
    sec = K.generate_keys(PARAMS, seed=8)
    path = tmp_path / "alice.key"
    K.save_keys(path, sec.alice)
    blob = bytearray(path.read_bytes())

    bad_magic = bytes(blob)
    bad_magic = b"XXXX" + bad_magic[4:]
    (tmp_path / "m.key").write_bytes(bad_magic)
    with pytest.raises(KeyMaterialError):
        K.load_keys(tmp_path / "m.key")

    bad_version = bytearray(blob)
    bad_version[4] = 9
    (tmp_path / "v.key").write_bytes(bytes(bad_version))
    with pytest.raises(KeyMaterialError):
        K.load_keys(tmp_path / "v.key")

    (tmp_path / "t.key").write_bytes(bytes(blob[:-1]))
    with pytest.raises(KeyMaterialError):
        K.load_keys(tmp_path / "t.key")

    (tmp_path / "x.key").write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(KeyMaterialError):
        K.load_keys(tmp_path / "x.key")


def test_padding_bits_must_be_zero(tmp_path):
    # tag width 6 leaves two slack bits in the last stored byte (the final
    # round pad); they must be zero on disk
    p = experimental_params(data_bits=6, shared_count=3, subkey_bits=3)
    sec = K.generate_keys(p, seed=1)
    path = tmp_path / "alice.key"
    K.save_keys(path, sec.alice)
    blob = bytearray(path.read_bytes())
    blob[-1] |= 0x80
    path.write_bytes(bytes(blob))
    with pytest.raises(KeyMaterialError):
        K.load_keys(path)


def test_ttp_secret_validates_overlap_agreement():
    sec = K.generate_keys(TINY, seed=2)
    j = sec.shared_indices[0]
    bad_subkeys = list(sec.bob.subkeys)
    bad_subkeys[j] ^= 1
    bad_bob = K.PartyKeys(
        sec.params, sec.session_id, K.ROLE_BOB, tuple(bad_subkeys),
        sec.bob.otp_bits, sec.bob.mac,
    )
    with pytest.raises(KeyMaterialError):
        K.TtpSecret(sec.params, sec.session_id, sec.shared_indices, sec.alice, bad_bob)


def test_file_size_matches_accounting(tmp_path):
    sec = K.generate_keys(PARAMS, seed=4)
    K.save_keys(tmp_path / "a.key", sec.alice)
    K.save_keys(tmp_path / "t.key", sec)
    p = PARAMS
    header = 4 + 1 + 1 + 16 + 8 + 3 + 3 + 12  # magic..params for eps=1/16
    body = (
        (p.digest_vector_bits + 7) // 8 * 2  # subkeys + one-time pad
        + 2 * ((2 * p.tag_bits + 7) // 8)  # two double-width hash keys
        + 4 * ((p.tag_bits + 7) // 8)  # four round pads
    )
    assert (tmp_path / "a.key").stat().st_size == header + body
    assert (
        tmp_path / "t.key"
    ).stat().st_size == header + 4 * p.shared_count + 2 * body
