"""Wire format and carriers for the three-party protocol.

frames   fixed header + payload + truncated-polynomial tag; the phase table
runners  sans-IO per-role state machines (all protocol decisions)
channel  in-process carrier with deterministic fault injection
sockets  TCP carrier running the same runners over real connections
traffic  semantic-bit accounting against the phase budgets
"""

from .channel import FaultPlan, MemoryNetwork, run_session
from .frames import (
    FRAME_VERSION,
    MsgType,
    Frame,
    FrameReader,
    decode_frame,
    encode_frame,
)
from .runners import PartyRunner, SessionResult, TtpRunner
from .traffic import TrafficMeter, semantic_bits

__all__ = [
    "FRAME_VERSION",
    "FaultPlan",
    "Frame",
    "FrameReader",
    "MemoryNetwork",
    "MsgType",
    "PartyRunner",
    "SessionResult",
    "TrafficMeter",
    "TtpRunner",
    "decode_frame",
    "encode_frame",
    "run_session",
    "semantic_bits",
]
