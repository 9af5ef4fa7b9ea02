"""Per-role protocol state machines, independent of any carrier.

Runners consume raw frame bytes and return the frames they want sent; a
carrier just moves bytes. Both phases run from the phase table in
frames: each party sends one payload, and the referee records both,
decides and announces. Anything wrong with an incoming frame freezes
the runner: it records why, emits one error frame where an unused
authenticator pad remains, and acts on nothing afterwards. A frozen
referee still checks the tag of the first submission or claim per pad
and names its signer, so that its carrier can deliver the error report.
Local API misuse (submitting twice, disputing before the comparison
finished) raises ProtocolStateError instead, since that is a programming
error and not an attack.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bits import Message, bits_to_bytes, bytes_to_bits
from ..errors import FrameError, ParameterError, ProtocolStateError
from ..etproto import core
from ..etproto.keys import (
    ROLE_ALICE,
    ROLE_BOB,
    ROLE_NAMES,
    ROLE_TTP,
    MacMaterial,
    PartyKeys,
    TtpSecret,
)
from ..etproto.session import SessionRecord, SessionStore
from ..itsmac import MacKey, mac_tag, mac_verify
from ..params import Params
from .frames import DR, ET, PHASE_OF, PHASES, SENDER_OF, Frame, MsgType, Phase, decode_frame

# error-frame reason codes
ERR_MAC = 1
ERR_STATE = 2
ERR_FRAME = 3

_REASON_NAMES = {ERR_MAC: "mac", ERR_STATE: "state", ERR_FRAME: "frame"}

PARTIES = (ROLE_ALICE, ROLE_BOB)

# a party's states per phase: awaiting the announce, and holding it
_TURNS = {ET: ("et_wait", "et_done"), DR: ("dr_wait", "done")}

# what the referee calls a phase's payload, and a second, different one
_NOUNS = {ET: ("submission", "resubmission"), DR: ("claim", "re-claim")}


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


def _sign(frame: Frame, hash_key: int, pad: int, params: Params, role: int) -> Frame:
    # authenticate under the header as it will appear on the wire, i.e.
    # with the final tag length already in it
    placeholder = bytes(_tag_bytes(params))
    signed_shape = Frame(frame.msg_type, frame.session_id, frame.payload, placeholder)
    key = MacKey(hash_key, pad, params.tag_bits)
    tag_int = mac_tag(key, signed_shape.mac_input(role))
    tag = bits_to_bytes(tag_int, params.tag_bits)
    return Frame(frame.msg_type, frame.session_id, frame.payload, tag)


class _Runner:
    """State shared by both endpoint kinds: decoding, signing, freezing and
    the pad ledger.

    A runner has one link per peer, keyed by the peer's role. On a link
    each phase has one pad per direction: parties sign with the phase's
    inbound pad, the referee with its announce pad. Subclasses handle a
    checked protocol frame (`_accept`).

    The ledger maps (peer, phase name, outbound) to the payload that pad
    passed: what this runner signed under an outbound pad, the announce a
    party accepted, or the one frame a frozen referee checked. A live
    referee's accepted payloads are in its SessionRecord instead.
    """

    role: int  # the role byte this runner signs as
    _to_referee: bool  # whether this runner's frames go to the referee
    _error_detail: str  # wording of a peer's error report: {kind}, {name}, {code}

    def __init__(self, params: Params, session_id: bytes, links: dict[int, MacMaterial]):
        self.params = params
        self.session_id = session_id
        self._links = links  # peer role -> key material of the link
        self.frozen: FreezeInfo | None = None
        self._ledger: dict[tuple[int, str, bool], bytes] = {}

    def _require_live(self) -> None:
        if self.frozen is not None:
            raise ProtocolStateError(
                f"session frozen ({self.frozen.reason_name}): {self.frozen.detail}"
            )

    def _key(self, peer: int, phase: Phase, outbound: bool) -> tuple[int, int]:
        """(hash key, pad) of `phase` on the link to `peer`, for a frame this
        runner sends (outbound) or receives."""
        mac = self._links[peer]
        pad = phase.inbound_pad if outbound == self._to_referee else phase.announce_pad
        return getattr(mac, phase.hash_key), getattr(mac, pad)

    def _signed(self, frame: Frame, peer: int, phase: Phase) -> Frame:
        self._ledger[peer, phase.name, True] = frame.payload
        return _sign(frame, *self._key(peer, phase, True), self.params, self.role)

    def _authentic(self, frame: Frame, peer: int, phase: Phase) -> bool:
        if len(frame.tag) != _tag_bytes(self.params):
            return False
        try:
            tag_int = bytes_to_bits(frame.tag, self.params.tag_bits)
        except ParameterError:
            return False
        key = MacKey(*self._key(peer, phase, False), self.params.tag_bits)
        return mac_verify(key, frame.mac_input(peer), tag_int)

    # -- inbound --------------------------------------------------------

    def _receive(self, raw: bytes) -> list[tuple[int, Frame]]:
        try:
            frame = decode_frame(raw)
        except FrameError as exc:
            return self._freeze(ERR_FRAME, str(exc))
        if frame.session_id != self.session_id:
            return self._freeze(ERR_FRAME, "frame for a different session")
        if frame.msg_type == MsgType.ERROR:
            return self._on_error(frame)
        return self._accept(frame)

    def _on_error(self, frame: Frame) -> list[tuple[int, Frame]]:
        if self.frozen is not None:
            return []
        # the peer's reason code counts only under one of its own pads
        senders = (p for p in self._links if any(self._authentic(frame, p, ph) for ph in PHASES))
        sender = next(senders, None)
        reason = frame.payload[0] if frame.payload else 0
        kind = "unauthenticated" if sender is None else "authentic"
        name = ROLE_NAMES.get(sender, "unknown sender")
        detail = self._error_detail.format(kind=kind, name=name, code=reason)
        self.frozen = FreezeInfo(ERR_MAC if sender is None else reason, detail, local=False)
        return []

    # -- freezing -------------------------------------------------------

    def _freeze(self, reason: int, detail: str) -> list[tuple[int, Frame]]:
        """Freeze and report to every peer, signed with the link's first
        unspent outbound pad; unsigned once the link has none left. Does
        nothing once frozen."""
        if self.frozen is not None:
            return []
        self.frozen = FreezeInfo(reason, detail, local=True)
        err = Frame(MsgType.ERROR, self.session_id, bytes([reason]), b"")
        out = []
        for peer in self._links:
            unspent = [ph for ph in PHASES if (peer, ph.name, True) not in self._ledger]
            out.append((peer, self._signed(err, peer, unspent[0]) if unspent else err))
        return out


# --------------------------------------------------------------- parties


class PartyRunner(_Runner):
    """Alice or Bob. Feed it announce frames; it hands back nothing unless
    it needs to report an error."""

    _to_referee = True
    _error_detail = "{kind} error report from referee (code {code})"

    def __init__(self, keys: PartyKeys, message: Message):
        super().__init__(keys.params, keys.session_id, {ROLE_TTP: keys.mac})
        if message.bit_len != keys.params.data_bits:
            raise ParameterError(
                f"message is {message.bit_len} bits, protocol fixed {keys.params.data_bits}"
            )
        self.keys = keys
        self.role = keys.role
        self.message = message
        self.state = "new"
        self.et_outcome: int | None = None
        self.verdict: core.Verdict | None = None

    # -- outbound -------------------------------------------------------

    def et_submit_frame(self) -> Frame:
        self._require_live()
        if self.state != "new":
            raise ProtocolStateError("digest vector already submitted")
        vec = core.hash_vector_for(self.params, self.keys.subkeys, self.message)
        return self._send(ET, core.encrypt_vector(self.params, vec, self.keys.otp_bits))

    def dr_claim_frame(self, claim: Message | None = None) -> Frame:
        """Reveal data for the dispute; an honest party claims its own."""
        self._require_live()
        if self.state != "et_done":
            raise ProtocolStateError("dispute opens only after the comparison")
        claim = claim if claim is not None else self.message
        if claim.bit_len != self.params.data_bits:
            raise ParameterError("claim has the wrong length")
        return self._send(DR, claim.value)

    def _send(self, phase: Phase, payload: int) -> Frame:
        raw = bits_to_bytes(payload, phase.payload_bits(self.params))
        frame = Frame(phase.inbound[self.role], self.session_id, raw, b"")
        frame = self._signed(frame, ROLE_TTP, phase)
        self.state = _TURNS[phase][0]
        return frame

    # -- inbound --------------------------------------------------------

    def on_frame(self, raw: bytes) -> list[Frame]:
        if self.frozen is not None:
            return []
        return [frame for _, frame in self._receive(raw)]

    def _accept(self, frame: Frame) -> list[tuple[int, Frame]]:
        phase = PHASE_OF[frame.msg_type]
        if frame.msg_type == phase.announce:
            return self._on_announce(frame, phase)
        return self._freeze(ERR_STATE, f"unexpected {frame.msg_type.name} at a party")

    def _on_announce(self, frame: Frame, phase: Phase) -> list[tuple[int, Frame]]:
        want_state, done_state = _TURNS[phase]
        # an identical authentic retransmit, also once a later phase began
        if self._ledger.get((ROLE_TTP, phase.name, False)) == frame.payload:
            if self._authentic(frame, ROLE_TTP, phase):
                return []
        if self.state != want_state:
            return self._freeze(ERR_STATE, f"{frame.msg_type.name} in state {self.state}")
        if len(frame.payload) != 1:
            return self._freeze(ERR_FRAME, "announce payload must be one byte")
        if not self._authentic(frame, ROLE_TTP, phase):
            return self._freeze(ERR_MAC, f"bad authenticator on {frame.msg_type.name}")
        code = frame.payload[0]
        if phase is ET:
            if code not in (core.ET_EQUAL, core.ET_DISTINCT):
                return self._freeze(ERR_STATE, f"invalid comparison outcome {code}")
            self.et_outcome = code
        else:
            if code > core.Verdict.UNDECIDABLE:
                return self._freeze(ERR_STATE, f"invalid verdict code {code}")
            self.verdict = core.Verdict(code)
        self._ledger[ROLE_TTP, phase.name, False] = frame.payload
        self.state = done_state
        return []


# ----------------------------------------------------------------- ttp


class TtpRunner(_Runner):
    """The referee. Returns (destination role, frame) pairs to send."""

    role = ROLE_TTP
    _to_referee = False
    _error_detail = "error report from {name} (code {code})"
    # the party whose MAC key verified the tag of the frame just handled, or
    # None; a carrier binds a connection to a party's role by this alone
    signer: int | None = None

    def __init__(self, secret: TtpSecret, store: SessionStore | None = None):
        links = {ROLE_ALICE: secret.alice.mac, ROLE_BOB: secret.bob.mac}
        super().__init__(secret.params, secret.session_id, links)
        self.secret = secret
        self.store = store
        self.record: SessionRecord = (
            store.record(secret.session_id) if store else SessionRecord(secret.session_id)
        )
        # announce pads spent in an earlier process stay spent
        for phase in PHASES:
            result = self.record.get(phase.result_field)
            if result is not None:
                self._ledger.update({(role, phase.name, True): result for role in PARTIES})

    # -- recorded results, under a party's names -------------------------

    @property
    def et_outcome(self) -> int | None:
        code = self.record.get(ET.result_field)
        return None if code is None else code[0]

    @property
    def verdict(self) -> core.Verdict | None:
        code = self.record.get(DR.result_field)
        return None if code is None else core.Verdict(code[0])

    @property
    def disputed(self) -> bool:
        """Whether either party's dispute claim is recorded."""
        return any(self.record.has(name) for name in DR.payload_fields.values())

    # -- inbound --------------------------------------------------------

    def on_frame(self, raw: bytes) -> list[tuple[int, Frame]]:
        self.signer = None
        return self._receive(raw)

    def _accept(self, frame: Frame) -> list[tuple[int, Frame]]:
        sender = SENDER_OF.get(frame.msg_type)
        if sender is None:
            return self._freeze(ERR_STATE, f"unexpected {frame.msg_type.name} at the referee")
        return self._on_inbound(frame, PHASE_OF[frame.msg_type], sender)

    def _on_inbound(self, frame: Frame, phase: Phase, sender: int) -> list[tuple[int, Frame]]:
        noun, again = _NOUNS[phase]
        bits = phase.payload_bits(self.params)
        if len(frame.payload) != (bits + 7) // 8:
            return self._freeze(ERR_FRAME, f"{noun} has the wrong size")
        if self.frozen is not None:
            # whether a tag verified shows from outside (the carrier binds and
            # delivers), so a frozen referee checks one frame per pad and is
            # no oracle for guessing tags
            if (sender, phase.name, False) in self._ledger:
                return []
            self._ledger[sender, phase.name, False] = frame.payload
        if not self._authentic(frame, sender, phase):
            return self._freeze(ERR_MAC, f"bad authenticator on a {noun}")
        self.signer = sender
        if self.frozen is not None:
            return []  # named the signer, so its report can be delivered; acts on nothing
        if phase is DR and not self.record.has(ET.result_field):
            return self._freeze(ERR_STATE, "dispute before the comparison finished")
        try:
            bytes_to_bits(frame.payload, bits)
        except ParameterError:
            return self._freeze(ERR_STATE, f"authentic {noun} is malformed")
        try:
            self.record.set(phase.payload_fields[sender], frame.payload)
        except ProtocolStateError:
            return self._freeze(ERR_STATE, f"conflicting {again}")
        return self._announce(phase)

    def _announce(self, phase: Phase) -> list[tuple[int, Frame]]:
        """Once both payloads are recorded: decide once, save the record,
        then announce the recorded result to both parties."""
        rec = self.record
        if not all(rec.has(name) for name in phase.payload_fields.values()):
            return []
        if not rec.has(phase.result_field):
            rec.set(phase.result_field, bytes([self._decide(phase)]))
            if self.store is not None:
                self.store.save(rec)
        result = Frame(phase.announce, self.session_id, rec.get(phase.result_field), b"")
        return [(role, self._signed(result, role, phase)) for role in PARTIES]

    def _decide(self, phase: Phase) -> int:
        """The comparison outcome, or the dispute verdict."""
        p, secret = self.params, self.secret
        blob_a, blob_b = self._recorded(ET)
        vec_a = core.decrypt_vector(p, blob_a, secret.alice.otp_bits)
        vec_b = core.decrypt_vector(p, blob_b, secret.bob.otp_bits)
        if phase is ET:
            return core.et_compare(p, secret.shared_indices, vec_a, vec_b)
        claim_a, claim_b = (Message(value, p.data_bits) for value in self._recorded(DR))
        counts = core.dispute_counts(
            p, secret.alice.subkeys, secret.bob.subkeys, claim_a, claim_b, vec_a, vec_b
        )
        return core.dr_verdict(p, claim_a, claim_b, *counts)

    def _recorded(self, phase: Phase) -> list[int]:
        """Both parties' recorded payloads of `phase`, Alice's first."""
        bits = phase.payload_bits(self.params)
        fields = phase.payload_fields
        return [bytes_to_bits(self.record.get(fields[role]), bits) for role in PARTIES]


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
