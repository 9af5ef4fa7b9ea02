"""Semantic-bit accounting for a protocol run.

Counts the information actually carried per message, not wire overhead:
an encrypted digest vector is 2nl bits, a revealed message r bits, an
announcement 2 bits, and every authenticator n+l bits. The comparison
phase must fit in 4(nl + 2n + 2l + 1) bits total and the dispute phase
in 2(r + 4n + 4l + 2); the meter checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolStateError
from ..params import Params
from .frames import DR, ET, PHASE_OF, Frame, MsgType

ANNOUNCE_BITS = 2


def semantic_bits(params: Params, msg_type: MsgType) -> int:
    """Payload information plus the n+l authenticator bits."""
    phase = PHASE_OF.get(msg_type)
    if phase is None:
        raise ProtocolStateError(f"no semantic accounting for {msg_type!r}")
    payload = ANNOUNCE_BITS if msg_type == phase.announce else phase.payload_bits(params)
    return payload + params.tag_bits


@dataclass
class TrafficMeter:
    """Aggregates one session's semantic bits; error frames do not count."""

    params: Params
    et_bits: int = 0
    dr_bits: int = 0
    claim_bits: int = 0

    def note(self, frame: Frame) -> None:
        if frame.msg_type == MsgType.ERROR:
            return
        bits = semantic_bits(self.params, frame.msg_type)
        if PHASE_OF[frame.msg_type] is ET:
            self.et_bits += bits
        else:
            self.dr_bits += bits
        if frame.msg_type in DR.inbound.values():
            self.claim_bits += bits - self.params.tag_bits

    @property
    def et_within_budget(self) -> bool:
        return self.et_bits <= self.params.et_comm_bits

    @property
    def dr_within_budget(self) -> bool:
        return self.dr_bits <= self.params.dr_comm_bits
