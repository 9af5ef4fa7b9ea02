"""Referee session store: write-once fields, integrity tags, restarts."""

import pytest

from etdr.errors import ProtocolStateError, StoreIntegrityError
from etdr.etproto.session import SessionRecord, SessionStore

SID = bytes(range(16))


def test_write_once_semantics(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_blob_a", b"hello")
    rec.set("et_blob_a", b"hello")  # identical replay absorbed
    with pytest.raises(ProtocolStateError):
        rec.set("et_blob_a", b"other")
    with pytest.raises(ProtocolStateError):
        rec.set("nonsense", b"x")


def test_survives_restart(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_blob_a", b"A" * 48)
    rec.set("et_blob_b", b"B" * 48)
    rec.set("et_outcome", b"\x01")
    store.save(rec)

    again = SessionStore(tmp_path)
    rec2 = again.record(SID)
    assert rec2.get("et_blob_a") == b"A" * 48
    assert rec2.get("et_outcome") == b"\x01"
    assert not rec2.has("dr_verdict")
    rec2.set("dr_verdict", b"\x02")
    again.save(rec2)

    third = SessionStore(tmp_path)
    assert third.record(SID).get("dr_verdict") == b"\x02"
    assert third.record(SID).get("et_blob_b") == b"B" * 48


def test_lookup_reads_what_another_store_saved_since(tmp_path):
    reader = SessionStore(tmp_path)
    assert not reader.record(SID).has("et_outcome")
    writer = SessionStore(tmp_path)
    rec = writer.record(SID)
    rec.set("et_outcome", b"\x01")
    writer.save(rec)
    assert reader.record(SID).get("et_outcome") == b"\x01"


def test_append_only_across_restart(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_outcome", b"\x00")
    store.save(rec)
    again = SessionStore(tmp_path)
    with pytest.raises(ProtocolStateError):
        again.record(SID).set("et_outcome", b"\x01")


def test_tamper_detected(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_blob_a", b"payload-bytes")
    store.save(rec)
    path = tmp_path / (SID.hex() + ".rec")
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreIntegrityError):
        SessionStore(tmp_path).record(SID)


def test_truncated_record_detected(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_blob_a", b"payload")
    store.save(rec)
    path = tmp_path / (SID.hex() + ".rec")
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(StoreIntegrityError):
        SessionStore(tmp_path).record(SID)


def test_foreign_store_key_rejected(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_blob_a", b"payload")
    store.save(rec)
    (tmp_path / "store.key").unlink()
    # the reopened store mints a new key; the old tag must fail
    with pytest.raises(StoreIntegrityError):
        SessionStore(tmp_path).record(SID)


def test_record_file_for_wrong_session_rejected(tmp_path):
    store = SessionStore(tmp_path)
    rec = store.record(SID)
    rec.set("et_blob_a", b"payload")
    store.save(rec)
    other = bytes(reversed(SID))
    src = tmp_path / (SID.hex() + ".rec")
    (tmp_path / (other.hex() + ".rec")).write_bytes(src.read_bytes())
    with pytest.raises(StoreIntegrityError):
        SessionStore(tmp_path).record(other)


def test_decode_rejects_duplicate_fields():
    rec = SessionRecord(SID)
    rec.set("et_outcome", b"\x00")
    body = rec.encode()
    doubled = body + body[16:]
    with pytest.raises(StoreIntegrityError):
        SessionRecord.decode(doubled)
