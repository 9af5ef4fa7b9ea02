"""In-process carrier: routes frames between runners, optionally mutating
them on the way to exercise the detection paths deterministically.

A FaultPlan addresses frames by their global send sequence number (0, 1,
2, ... in posting order) and either flips one bit or drops the frame.
Runs are fully synchronous, so transcripts are reproducible byte for
byte given the same key material and inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..bits import Message
from ..etproto.keys import ROLE_ALICE, ROLE_BOB, ROLE_TTP, ROLE_NAMES, TtpSecret
from ..etproto.session import SessionStore
from .frames import Frame, encode_frame
from .runners import PARTIES, PartyRunner, SessionResult, TtpRunner
from .traffic import TrafficMeter


@dataclass(frozen=True)
class FaultPlan:
    """bit_flips: sequence number -> bit index (taken mod the frame size)."""

    bit_flips: dict[int, int] = field(default_factory=dict)
    drops: frozenset[int] = frozenset()

    def apply(self, seq: int, raw: bytes) -> bytes | None:
        if seq in self.drops:
            return None
        if seq in self.bit_flips:
            k = self.bit_flips[seq] % (8 * len(raw))
            mutated = bytearray(raw)
            mutated[k // 8] ^= 1 << (k % 8)
            return bytes(mutated)
        return raw


class MemoryNetwork:
    """Synchronous router for one referee and two parties."""

    def __init__(
        self,
        ttp: TtpRunner,
        alice: PartyRunner,
        bob: PartyRunner,
        fault_plan: FaultPlan | None = None,
    ):
        self.runners = {ROLE_TTP: ttp, ROLE_ALICE: alice, ROLE_BOB: bob}
        self.fault_plan = fault_plan or FaultPlan()
        self.meter = TrafficMeter(ttp.params)
        self.transcript: list[tuple[int, int, bytes]] = []
        self.seq = 0
        self._queue: deque[tuple[int, int, bytes]] = deque()

    def post(self, src: int, dst: int, frame: Frame) -> None:
        raw = encode_frame(frame)
        self.meter.note(frame)  # accounting measures what was produced
        delivered = self.fault_plan.apply(self.seq, raw)
        self.seq += 1
        if delivered is not None:
            self._queue.append((src, dst, delivered))

    def deliver_all(self) -> None:
        while self._queue:
            src, dst, raw = self._queue.popleft()
            self.transcript.append((src, dst, raw))
            for out_dst, out_frame in self.runners[dst].on_frame(raw):
                self.post(dst, out_dst, out_frame)

    def result(self) -> SessionResult:
        alice = self.runners[ROLE_ALICE]
        bob = self.runners[ROLE_BOB]
        frozen = {
            ROLE_NAMES[role]: r.frozen
            for role, r in self.runners.items()
            if r.frozen is not None
        }
        return SessionResult(
            et_outcome_a=alice.et_outcome,
            et_outcome_b=bob.et_outcome,
            verdict_a=alice.verdict,
            verdict_b=bob.verdict,
            frozen=frozen,
            meter=self.meter,
            transcript=self.transcript,
        )


def run_session(
    secret: TtpSecret,
    message_a: Message,
    message_b: Message,
    *,
    dispute: bool = False,
    claim_a: Message | None = None,
    claim_b: Message | None = None,
    store: SessionStore | None = None,
    fault_plan: FaultPlan | None = None,
) -> SessionResult:
    """One full in-process session: comparison phase, then optionally the
    dispute. A claim implies the dispute; claims default to each party's
    true data."""
    ttp = TtpRunner(secret, store=store)
    alice = PartyRunner(secret.alice, message_a)
    bob = PartyRunner(secret.bob, message_b)
    net = MemoryNetwork(ttp, alice, bob, fault_plan=fault_plan)

    net.post(ROLE_ALICE, ROLE_TTP, alice.et_submit_frame())
    net.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
    net.deliver_all()

    if dispute or claim_a is not None or claim_b is not None:
        for role, runner, claim in zip(PARTIES, (alice, bob), (claim_a, claim_b)):
            if runner.frozen is None and runner.et_outcome is not None:
                net.post(role, ROLE_TTP, runner.dr_claim_frame(claim))
        net.deliver_all()

    return net.result()
