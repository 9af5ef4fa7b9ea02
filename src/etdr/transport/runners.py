"""Per-role protocol state machines, independent of any carrier.

Runners consume raw frame bytes and return the frames they want sent; a
carrier just moves bytes. Anything wrong with an incoming frame freezes
the runner: it records why, emits one error frame where an unused
authenticator pad remains, and ignores everything afterwards. Local API
misuse (submitting twice, disputing before the comparison finished)
raises ProtocolStateError instead, since that is a programming error and
not an attack.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bits import Message, bits_to_bytes, bytes_to_bits
from ..errors import FrameError, ParameterError, ProtocolStateError
from ..etproto import core
from ..etproto.keys import (
    ROLE_ALICE,
    ROLE_BOB,
    ROLE_TTP,
    PartyKeys,
    TtpSecret,
)
from ..etproto.session import SessionRecord, SessionStore
from ..itsmac import MacKey, mac_tag, mac_verify
from ..params import Params
from .frames import Frame, MsgType, decode_frame

# error-frame reason codes
ERR_MAC = 1
ERR_STATE = 2
ERR_FRAME = 3

_REASON_NAMES = {ERR_MAC: "mac", ERR_STATE: "state", ERR_FRAME: "frame"}


@dataclass(frozen=True)
class FreezeInfo:
    reason: int
    detail: str
    local: bool  # detected here, as opposed to reported by the peer

    @property
    def reason_name(self) -> str:
        return _REASON_NAMES.get(self.reason, str(self.reason))


def _tag_bytes(params: Params) -> int:
    return (params.tag_bits + 7) // 8


def _submit_payload_bytes(params: Params) -> int:
    return (params.digest_vector_bits + 7) // 8


def _claim_payload_bytes(params: Params) -> int:
    return (params.data_bits + 7) // 8


def _sign(frame: Frame, hash_key: int, pad: int, params: Params, role: int) -> Frame:
    # authenticate under the header as it will appear on the wire, i.e.
    # with the final tag length already in it
    placeholder = bytes(_tag_bytes(params))
    signed_shape = Frame(frame.msg_type, frame.session_id, frame.payload, placeholder)
    key = MacKey(hash_key, pad, params.tag_bits)
    tag_int = mac_tag(key, signed_shape.mac_input(role))
    return Frame(
        frame.msg_type,
        frame.session_id,
        frame.payload,
        bits_to_bytes(tag_int, params.tag_bits),
    )


def _verify(frame: Frame, hash_key: int, pad: int, params: Params, role: int) -> bool:
    if len(frame.tag) != _tag_bytes(params):
        return False
    try:
        tag_int = bytes_to_bits(frame.tag, params.tag_bits)
    except ParameterError:
        return False
    key = MacKey(hash_key, pad, params.tag_bits)
    return mac_verify(key, frame.mac_input(role), tag_int)


class _Runner:
    """State shared by both endpoint kinds: freeze handling and signing."""

    def __init__(self, params: Params, session_id: bytes):
        self.params = params
        self.session_id = session_id
        self.frozen: FreezeInfo | None = None

    def _require_live(self) -> None:
        if self.frozen is not None:
            raise ProtocolStateError(
                f"session frozen ({self.frozen.reason_name}): {self.frozen.detail}"
            )


# --------------------------------------------------------------- parties


class PartyRunner(_Runner):
    """Alice or Bob. Feed it announce frames; it hands back nothing unless
    it needs to report an error."""

    def __init__(self, keys: PartyKeys, message: Message):
        super().__init__(keys.params, keys.session_id)
        if message.bit_len != keys.params.data_bits:
            raise ParameterError(
                f"message is {message.bit_len} bits, protocol fixed "
                f"{keys.params.data_bits}"
            )
        self.keys = keys
        self.role = keys.role
        self.message = message
        self.state = "new"
        self.et_outcome: int | None = None
        self.verdict: core.Verdict | None = None
        self._claimed: Message | None = None
        self._announce_payload: bytes | None = None
        self._verdict_payload: bytes | None = None

    # -- outbound -------------------------------------------------------

    def et_submit_frame(self) -> Frame:
        self._require_live()
        if self.state != "new":
            raise ProtocolStateError("digest vector already submitted")
        vec = core.hash_vector_for(self.params, self.keys.subkeys, self.message)
        blob = core.encrypt_vector(self.params, vec, self.keys.otp_bits)
        payload = bits_to_bytes(blob, self.params.digest_vector_bits)
        msg_type = (
            MsgType.ET_SUBMIT_A if self.role == ROLE_ALICE else MsgType.ET_SUBMIT_B
        )
        frame = _sign(
            Frame(msg_type, self.session_id, payload, b""),
            self.keys.mac.et_hash_key,
            self.keys.mac.et_submit_pad,
            self.params,
            self.role,
        )
        self.state = "et_wait"
        return frame

    def dr_claim_frame(self, claim: Message | None = None) -> Frame:
        """Reveal data for the dispute; an honest party claims its own."""
        self._require_live()
        if self.state != "et_done":
            raise ProtocolStateError("dispute opens only after the comparison")
        claim = claim if claim is not None else self.message
        if claim.bit_len != self.params.data_bits:
            raise ParameterError("claim has the wrong length")
        payload = bits_to_bytes(claim.value, self.params.data_bits)
        msg_type = (
            MsgType.DR_CLAIM_A if self.role == ROLE_ALICE else MsgType.DR_CLAIM_B
        )
        frame = _sign(
            Frame(msg_type, self.session_id, payload, b""),
            self.keys.mac.dr_hash_key,
            self.keys.mac.dr_claim_pad,
            self.params,
            self.role,
        )
        self._claimed = claim
        self.state = "dr_wait"
        return frame

    # -- inbound --------------------------------------------------------

    def on_frame(self, raw: bytes) -> list[Frame]:
        if self.frozen is not None:
            return []
        try:
            frame = decode_frame(raw)
        except FrameError as exc:
            return self._freeze(ERR_FRAME, str(exc))
        if frame.session_id != self.session_id:
            return self._freeze(ERR_FRAME, "frame for a different session")
        if frame.msg_type == MsgType.ET_ANNOUNCE:
            return self._on_announce(frame, "et")
        if frame.msg_type == MsgType.DR_ANNOUNCE:
            return self._on_announce(frame, "dr")
        if frame.msg_type == MsgType.ERROR:
            return self._on_error(frame)
        return self._freeze(ERR_STATE, f"unexpected {frame.msg_type.name} at a party")

    def _on_announce(self, frame: Frame, phase: str) -> list[Frame]:
        mac = self.keys.mac
        if phase == "et":
            want_state, hash_key, pad = "et_wait", mac.et_hash_key, mac.et_announce_pad
            done_state, replay = "et_done", self._announce_payload
        else:
            want_state, hash_key, pad = "dr_wait", mac.dr_hash_key, mac.dr_announce_pad
            done_state, replay = "done", self._verdict_payload

        if self.state == done_state and replay == frame.payload:
            if _verify(frame, hash_key, pad, self.params, ROLE_TTP):
                return []  # identical authentic retransmit
        if self.state != want_state:
            return self._freeze(
                ERR_STATE, f"{frame.msg_type.name} in state {self.state}"
            )
        if len(frame.payload) != 1:
            return self._freeze(ERR_FRAME, "announce payload must be one byte")
        if not _verify(frame, hash_key, pad, self.params, ROLE_TTP):
            return self._freeze(ERR_MAC, f"bad authenticator on {frame.msg_type.name}")
        code = frame.payload[0]
        if phase == "et":
            if code not in (core.ET_EQUAL, core.ET_DISTINCT):
                return self._freeze(ERR_STATE, f"invalid comparison outcome {code}")
            self.et_outcome = code
            self._announce_payload = frame.payload
        else:
            if code > core.Verdict.UNDECIDABLE:
                return self._freeze(ERR_STATE, f"invalid verdict code {code}")
            self.verdict = core.Verdict(code)
            self._verdict_payload = frame.payload
        self.state = done_state
        return []

    def _on_error(self, frame: Frame) -> list[Frame]:
        mac = self.keys.mac
        authentic = any(
            _verify(frame, hk, pad, self.params, ROLE_TTP)
            for hk, pad in (
                (mac.et_hash_key, mac.et_announce_pad),
                (mac.dr_hash_key, mac.dr_announce_pad),
            )
        )
        reason = frame.payload[0] if frame.payload else 0
        kind = "authentic" if authentic else "unauthenticated"
        self.frozen = FreezeInfo(
            reason if authentic else ERR_MAC,
            f"{kind} error report from referee (code {reason})",
            local=False,
        )
        return []

    # -- freezing -------------------------------------------------------

    def _unused_outbound(self) -> tuple[int, int] | None:
        mac = self.keys.mac
        if self.state == "new":
            return mac.et_hash_key, mac.et_submit_pad
        if self.state in ("et_wait", "et_done"):
            return mac.dr_hash_key, mac.dr_claim_pad
        return None

    def _freeze(self, reason: int, detail: str) -> list[Frame]:
        keys = self._unused_outbound()
        self.frozen = FreezeInfo(reason, detail, local=True)
        err = Frame(MsgType.ERROR, self.session_id, bytes([reason]), b"")
        if keys is None:
            return [err]
        return [_sign(err, keys[0], keys[1], self.params, self.role)]


# ----------------------------------------------------------------- ttp


class TtpRunner(_Runner):
    """The referee. Returns (destination role, frame) pairs to send."""

    def __init__(self, secret: TtpSecret, store: SessionStore | None = None):
        super().__init__(secret.params, secret.session_id)
        self.secret = secret
        self.store = store
        self.record: SessionRecord = (
            store.record(secret.session_id) if store else SessionRecord(secret.session_id)
        )
        # announce pads spent in an earlier process stay spent
        self._announce_pad_used = {
            (ROLE_ALICE, "et"): self.record.has("et_outcome"),
            (ROLE_BOB, "et"): self.record.has("et_outcome"),
            (ROLE_ALICE, "dr"): self.record.has("dr_verdict"),
            (ROLE_BOB, "dr"): self.record.has("dr_verdict"),
        }

    def _party(self, role: int) -> PartyKeys:
        return self.secret.alice if role == ROLE_ALICE else self.secret.bob

    def _save(self) -> None:
        if self.store is not None:
            self.store.save(self.record)

    # -- inbound --------------------------------------------------------

    def on_frame(self, raw: bytes) -> list[tuple[int, Frame]]:
        if self.frozen is not None:
            return []
        try:
            frame = decode_frame(raw)
        except FrameError as exc:
            return self._freeze(ERR_FRAME, str(exc))
        if frame.session_id != self.session_id:
            return self._freeze(ERR_FRAME, "frame for a different session")
        handlers = {
            MsgType.ET_SUBMIT_A: (self._on_submit, ROLE_ALICE),
            MsgType.ET_SUBMIT_B: (self._on_submit, ROLE_BOB),
            MsgType.DR_CLAIM_A: (self._on_claim, ROLE_ALICE),
            MsgType.DR_CLAIM_B: (self._on_claim, ROLE_BOB),
        }
        if frame.msg_type == MsgType.ERROR:
            return self._on_error(frame)
        if frame.msg_type not in handlers:
            return self._freeze(
                ERR_STATE, f"unexpected {frame.msg_type.name} at the referee"
            )
        handler, sender = handlers[frame.msg_type]
        return handler(frame, sender)

    def _on_submit(self, frame: Frame, sender: int) -> list[tuple[int, Frame]]:
        p = self.params
        if len(frame.payload) != _submit_payload_bytes(p):
            return self._freeze(ERR_FRAME, "submission has the wrong size")
        keys = self._party(sender)
        if not _verify(frame, keys.mac.et_hash_key, keys.mac.et_submit_pad, p, sender):
            return self._freeze(ERR_MAC, "bad authenticator on a submission")
        try:
            bytes_to_bits(frame.payload, p.digest_vector_bits)
        except ParameterError:
            return self._freeze(ERR_STATE, "authentic submission is malformed")
        field = "et_blob_a" if sender == ROLE_ALICE else "et_blob_b"
        try:
            self.record.set(field, frame.payload)
        except ProtocolStateError:
            return self._freeze(ERR_STATE, "conflicting resubmission")
        self._save()
        return self._maybe_announce_et()

    def _maybe_announce_et(self) -> list[tuple[int, Frame]]:
        rec = self.record
        if not (rec.has("et_blob_a") and rec.has("et_blob_b")):
            return []
        if not rec.has("et_outcome"):
            vec_a = core.decrypt_vector(
                self.params,
                bytes_to_bits(rec.get("et_blob_a")),
                self.secret.alice.otp_bits,
            )
            vec_b = core.decrypt_vector(
                self.params,
                bytes_to_bits(rec.get("et_blob_b")),
                self.secret.bob.otp_bits,
            )
            code = core.et_compare(self.params, self.secret.shared_indices, vec_a, vec_b)
            rec.set("et_outcome", bytes([code]))
            self._save()
        return [
            (role, self._announce(role, "et", rec.get("et_outcome")))
            for role in (ROLE_ALICE, ROLE_BOB)
        ]

    def _on_claim(self, frame: Frame, sender: int) -> list[tuple[int, Frame]]:
        p = self.params
        if len(frame.payload) != _claim_payload_bytes(p):
            return self._freeze(ERR_FRAME, "claim has the wrong size")
        keys = self._party(sender)
        if not _verify(frame, keys.mac.dr_hash_key, keys.mac.dr_claim_pad, p, sender):
            return self._freeze(ERR_MAC, "bad authenticator on a claim")
        if not self.record.has("et_outcome"):
            return self._freeze(ERR_STATE, "dispute before the comparison finished")
        try:
            bytes_to_bits(frame.payload, p.data_bits)
        except ParameterError:
            return self._freeze(ERR_STATE, "authentic claim is malformed")
        field = "dr_claim_a" if sender == ROLE_ALICE else "dr_claim_b"
        try:
            self.record.set(field, frame.payload)
        except ProtocolStateError:
            return self._freeze(ERR_STATE, "conflicting re-claim")
        self._save()
        return self._maybe_announce_dr()

    def _maybe_announce_dr(self) -> list[tuple[int, Frame]]:
        rec = self.record
        if not (rec.has("dr_claim_a") and rec.has("dr_claim_b")):
            return []
        p = self.params
        if not rec.has("dr_verdict"):
            claim_a = Message(bytes_to_bits(rec.get("dr_claim_a"), p.data_bits), p.data_bits)
            claim_b = Message(bytes_to_bits(rec.get("dr_claim_b"), p.data_bits), p.data_bits)
            vec_a = core.decrypt_vector(
                p, bytes_to_bits(rec.get("et_blob_a")), self.secret.alice.otp_bits
            )
            vec_b = core.decrypt_vector(
                p, bytes_to_bits(rec.get("et_blob_b")), self.secret.bob.otp_bits
            )
            counts = core.dispute_counts(
                p,
                self.secret.alice.subkeys,
                self.secret.bob.subkeys,
                claim_a,
                claim_b,
                vec_a,
                vec_b,
            )
            verdict = core.dr_verdict(p, claim_a, claim_b, *counts)
            rec.set("dr_verdict", bytes([verdict]))
            self._save()
        return [
            (role, self._announce(role, "dr", rec.get("dr_verdict")))
            for role in (ROLE_ALICE, ROLE_BOB)
        ]

    def _announce(self, role: int, phase: str, payload: bytes) -> Frame:
        keys = self._party(role).mac
        hash_key, pad, msg_type = (
            (keys.et_hash_key, keys.et_announce_pad, MsgType.ET_ANNOUNCE)
            if phase == "et"
            else (keys.dr_hash_key, keys.dr_announce_pad, MsgType.DR_ANNOUNCE)
        )
        self._announce_pad_used[(role, phase)] = True
        return _sign(
            Frame(msg_type, self.session_id, payload, b""),
            hash_key,
            pad,
            self.params,
            ROLE_TTP,
        )

    def _on_error(self, frame: Frame) -> list[tuple[int, Frame]]:
        authentic_from = None
        for role in (ROLE_ALICE, ROLE_BOB):
            mac = self._party(role).mac
            if any(
                _verify(frame, hk, pad, self.params, role)
                for hk, pad in (
                    (mac.et_hash_key, mac.et_submit_pad),
                    (mac.dr_hash_key, mac.dr_claim_pad),
                )
            ):
                authentic_from = role
                break
        reason = frame.payload[0] if frame.payload else 0
        name = {ROLE_ALICE: "alice", ROLE_BOB: "bob", None: "unknown sender"}[
            authentic_from
        ]
        self.frozen = FreezeInfo(
            reason if authentic_from else ERR_MAC,
            f"error report from {name} (code {reason})",
            local=False,
        )
        return []

    # -- freezing -------------------------------------------------------

    def _freeze(self, reason: int, detail: str) -> list[tuple[int, Frame]]:
        self.frozen = FreezeInfo(reason, detail, local=True)
        out = []
        for role in (ROLE_ALICE, ROLE_BOB):
            err = Frame(MsgType.ERROR, self.session_id, bytes([reason]), b"")
            mac = self._party(role).mac
            for phase, hash_key, pad in (
                ("et", mac.et_hash_key, mac.et_announce_pad),
                ("dr", mac.dr_hash_key, mac.dr_announce_pad),
            ):
                if not self._announce_pad_used[(role, phase)]:
                    self._announce_pad_used[(role, phase)] = True
                    out.append((role, _sign(err, hash_key, pad, self.params, ROLE_TTP)))
                    break
            else:
                out.append((role, err))
        return out


@dataclass
class SessionResult:
    """Everything observable after an in-process run."""

    et_outcome_a: int | None
    et_outcome_b: int | None
    verdict_a: core.Verdict | None
    verdict_b: core.Verdict | None
    frozen: dict[str, FreezeInfo]
    meter: object
    transcript: list[tuple[int, int, bytes]]

    @property
    def clean(self) -> bool:
        return not self.frozen
