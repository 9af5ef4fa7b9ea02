"""Frame layout shared by every carrier.

    offset  size  field
    0       1     format version (1)
    1       1     message type
    2       16    session id
    18      4     payload length, big-endian
    22      1     tag length in bytes (0 = unauthenticated error)
    23      ...   payload, then tag

The authenticator covers header || sender-role byte || payload, so a frame
cannot be replayed as a different type, for a different session, with a
reshaped payload, or reflected back to its sender. The tag is the n+l bit
authenticator packed little-endian into whole bytes; spare high bits must
be zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from ..errors import FrameError
from ..etproto.keys import ROLE_ALICE, ROLE_BOB, SESSION_ID_BYTES
from ..params import Params

FRAME_VERSION = 1
HEADER_BYTES = 23

# hard caps so a corrupt length cannot balloon memory
MAX_PAYLOAD_BYTES = 1 << 24
MAX_TAG_BYTES = 64


class MsgType(IntEnum):
    ET_SUBMIT_A = 1
    ET_SUBMIT_B = 2
    ET_ANNOUNCE = 3
    DR_CLAIM_A = 4
    DR_CLAIM_B = 5
    DR_ANNOUNCE = 6
    ERROR = 7


@dataclass(frozen=True, eq=False)
class Phase:
    """One round of the protocol: each party sends the referee one
    authenticated payload, and the referee records both, decides, and
    announces one code to each party.

    Keys and pads are named by MacMaterial field, payloads and the result
    by SessionRecord field, and the payload width by Params attribute.
    """

    name: str
    inbound: dict[int, MsgType]  # sender role -> its message type
    announce: MsgType
    hash_key: str
    inbound_pad: str
    announce_pad: str
    payload_fields: dict[int, str]  # sender role -> record field of its payload
    result_field: str
    payload_width: str

    def payload_bits(self, params: Params) -> int:
        return getattr(params, self.payload_width)


ET = Phase(
    "et",
    {ROLE_ALICE: MsgType.ET_SUBMIT_A, ROLE_BOB: MsgType.ET_SUBMIT_B},
    MsgType.ET_ANNOUNCE,
    "et_hash_key", "et_submit_pad", "et_announce_pad",
    {ROLE_ALICE: "et_blob_a", ROLE_BOB: "et_blob_b"},
    "et_outcome",
    "digest_vector_bits",
)
DR = Phase(
    "dr",
    {ROLE_ALICE: MsgType.DR_CLAIM_A, ROLE_BOB: MsgType.DR_CLAIM_B},
    MsgType.DR_ANNOUNCE,
    "dr_hash_key", "dr_claim_pad", "dr_announce_pad",
    {ROLE_ALICE: "dr_claim_a", ROLE_BOB: "dr_claim_b"},
    "dr_verdict",
    "data_bits",
)
PHASES = (ET, DR)  # in protocol order
PHASE_OF = {t: ph for ph in PHASES for t in (*ph.inbound.values(), ph.announce)}
SENDER_OF = {t: role for ph in PHASES for role, t in ph.inbound.items()}


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    session_id: bytes
    payload: bytes
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.session_id) != SESSION_ID_BYTES:
            raise FrameError("session id must be 16 bytes")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise FrameError("payload too large")
        if len(self.tag) > MAX_TAG_BYTES:
            raise FrameError("tag too large")

    def header(self) -> bytes:
        return (
            bytes([FRAME_VERSION, self.msg_type])
            + self.session_id
            + struct.pack(">I", len(self.payload))
            + bytes([len(self.tag)])
        )

    def mac_input(self, sender_role: int) -> bytes:
        """What the authenticator covers; binds direction via the role byte."""
        return self.header() + bytes([sender_role]) + self.payload


def encode_frame(frame: Frame) -> bytes:
    return frame.header() + frame.payload + frame.tag


def decode_frame(buf: bytes) -> Frame:
    """Parse one complete frame; the buffer must hold exactly one."""
    total = _frame_length(buf)
    if total is None or len(buf) < total:
        raise FrameError("frame truncated")
    if len(buf) > total:
        raise FrameError("trailing bytes after frame")
    tag_start = total - buf[22]
    payload = buf[HEADER_BYTES:tag_start]
    return Frame(MsgType(buf[1]), buf[2:18], payload, buf[tag_start:])


def _frame_length(buf: bytes | bytearray) -> int | None:
    """The length of the frame whose header starts `buf`, or None until the
    whole header is there. The header is checked in place."""
    if len(buf) < HEADER_BYTES:
        return None
    version, raw_type = buf[0], buf[1]
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    try:
        MsgType(raw_type)
    except ValueError as exc:
        raise FrameError(f"unknown message type {raw_type}") from exc
    (payload_len,) = struct.unpack_from(">I", buf, 18)
    tag_len = buf[22]
    if payload_len > MAX_PAYLOAD_BYTES:
        raise FrameError("declared payload length too large")
    if tag_len > MAX_TAG_BYTES:
        raise FrameError("declared tag length too large")
    return HEADER_BYTES + payload_len + tag_len


class FrameReader:
    """Cuts whole wire frames from a stream carrier's bytes. It checks each
    header, so a poisoned stream raises FrameError, and leaves the parsing
    to `decode_frame` in the runner that receives the frame."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        raws = []
        while True:
            total = _frame_length(self._buf)
            if total is None or len(self._buf) < total:
                return raws
            raws.append(bytes(self._buf[:total]))
            del self._buf[:total]
