"""Referee-side session persistence.

One record file per session under the store root, each integrity-tagged
with HMAC-SHA256 under a store-local key so offline edits are caught on
load. Fields are write-once: replays carrying the identical value are
absorbed silently, anything conflicting freezes the session. Every
lookup reads the record file, so any store over the same directory
sees exactly what was saved, and the referee can rule after a restart.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import secrets
import struct
from pathlib import Path

from ..errors import ProtocolStateError, StoreIntegrityError
from .keys import SESSION_ID_BYTES

_FIELDS = (
    "et_blob_a",  # encrypted digest vector as submitted by Alice
    "et_blob_b",
    "et_outcome",  # one announce-code byte
    "dr_claim_a",  # revealed data, packed bits
    "dr_claim_b",
    "dr_verdict",  # one verdict byte
)
_FIELD_INDEX = {name: i for i, name in enumerate(_FIELDS)}
_TAG_BYTES = 32


class SessionRecord:
    """Write-once field map for one session."""

    def __init__(self, session_id: bytes):
        self.session_id = session_id
        self._fields: dict[str, bytes] = {}

    def get(self, name: str) -> bytes | None:
        if name not in _FIELD_INDEX:
            raise ProtocolStateError(f"unknown session field {name!r}")
        return self._fields.get(name)

    def set(self, name: str, value: bytes) -> None:
        if name not in _FIELD_INDEX:
            raise ProtocolStateError(f"unknown session field {name!r}")
        if not isinstance(value, bytes):
            raise ProtocolStateError("session fields hold bytes")
        old = self._fields.get(name)
        if old is not None and old != value:
            raise ProtocolStateError(
                f"session field {name!r} already set to a different value"
            )
        self._fields[name] = value

    def has(self, name: str) -> bool:
        return self.get(name) is not None

    def encode(self) -> bytes:
        out = [self.session_id]
        for name in _FIELDS:
            value = self._fields.get(name)
            if value is None:
                continue
            out.append(struct.pack("<BI", _FIELD_INDEX[name], len(value)))
            out.append(value)
        return b"".join(out)

    @classmethod
    def decode(cls, body: bytes) -> "SessionRecord":
        if len(body) < SESSION_ID_BYTES:
            raise StoreIntegrityError("session record truncated")
        rec = cls(body[:SESSION_ID_BYTES])
        pos = SESSION_ID_BYTES
        seen: set[int] = set()
        while pos < len(body):
            if pos + 5 > len(body):
                raise StoreIntegrityError("session record truncated")
            idx, size = struct.unpack_from("<BI", body, pos)
            pos += 5
            if idx >= len(_FIELDS) or idx in seen:
                raise StoreIntegrityError("malformed session record")
            if pos + size > len(body):
                raise StoreIntegrityError("session record truncated")
            seen.add(idx)
            rec._fields[_FIELDS[idx]] = body[pos : pos + size]
            pos += size
        return rec


class SessionStore:
    """Directory of tagged session records plus the store key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._key_path = self.root / "store.key"
        if self._key_path.exists():
            self._key = self._key_path.read_bytes()
            if len(self._key) != 32:
                raise StoreIntegrityError("store key has wrong length")
        else:
            self._key = secrets.token_bytes(32)
            fd = os.open(self._key_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                os.write(fd, self._key)
            finally:
                os.close(fd)

    def _path_for(self, session_id: bytes) -> Path:
        return self.root / (session_id.hex() + ".rec")

    def record(self, session_id: bytes) -> SessionRecord:
        """The session's record as last saved, or a fresh one."""
        if len(session_id) != SESSION_ID_BYTES:
            raise ProtocolStateError("session id must be 16 bytes")
        try:
            blob = self._path_for(session_id).read_bytes()
        except FileNotFoundError:
            return SessionRecord(session_id)
        if len(blob) < _TAG_BYTES:
            raise StoreIntegrityError("record file shorter than its tag")
        body, tag = blob[:-_TAG_BYTES], blob[-_TAG_BYTES:]
        want = hmac.new(self._key, body, hashlib.sha256).digest()
        if not hmac.compare_digest(tag, want):
            raise StoreIntegrityError("record file failed integrity check")
        rec = SessionRecord.decode(body)
        if rec.session_id != session_id:
            raise StoreIntegrityError("record file for a different session")
        return rec

    def save(self, rec: SessionRecord) -> None:
        body = rec.encode()
        tag = hmac.new(self._key, body, hashlib.sha256).digest()
        path = self._path_for(rec.session_id)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(body + tag)
        os.replace(tmp, path)
