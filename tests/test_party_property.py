"""A hypothesis state machine for one party at tiny seeded parameters:
submissions, claims and announce frames in any order; skipped where
hypothesis is not installed.

The announces come from real referee sessions over the same keys, so
several authentic ones carry different codes. Restarts are left out: a
party keeps no state between processes.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from etdr.bits import Message  # noqa: E402
from etdr.errors import ProtocolStateError  # noqa: E402
from etdr.etproto.keys import ROLE_ALICE, ROLE_TTP, generate_keys  # noqa: E402
from etdr.params import experimental_params  # noqa: E402
from etdr.transport.channel import run_session  # noqa: E402
from etdr.transport.frames import HEADER_BYTES, MsgType, encode_frame  # noqa: E402
from etdr.transport.runners import PartyRunner  # noqa: E402
from oracles import signing_pad  # noqa: E402

# 18-bit tags, so no frame here verifies under a second pad by chance
PARAMS = experimental_params(32, 2, 16)
SECRET = generate_keys(PARAMS, seed=11)
DATA = Message(0x1234ABCD, 32)
OTHER = Message(0x1234ABCC, 32)
LIE = Message(0xFFFF0000, 32)


def _announces():
    """Each authentic announce to Alice -> (index into (et_outcome,
    verdict), the code it carries), from equal, honest and lying runs."""
    runs = [
        run_session(SECRET, DATA, DATA, dispute=True),
        run_session(SECRET, DATA, OTHER, dispute=True),
        run_session(SECRET, DATA, OTHER, dispute=True, claim_b=LIE),
        run_session(SECRET, DATA, OTHER, dispute=True, claim_a=LIE),
    ]
    return {
        raw: (int(raw[1] == MsgType.DR_ANNOUNCE), raw[HEADER_BYTES])
        for res in runs
        for _, dst, raw in res.transcript
        if dst == ROLE_ALICE
    }


ANNOUNCES = _announces()
# both outcomes and all four verdicts, so an accepted code is told apart
assert sorted(set(ANNOUNCES.values())) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]


class OneParty(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.party = PartyRunner(SECRET.alice, DATA)
        self.pads = {}  # pad -> the one MAC input it signed
        self.seen = []  # every frame delivered or emitted, for replays
        self.results = [None, None]  # (et_outcome, verdict) once set
        self.frozen = None  # the freeze, and (et_outcome, verdict) at it
        self.last = None  # the frame delivered last

    def emit(self, frame):
        mac_input = frame.mac_input(ROLE_ALICE)
        pad = signing_pad(frame, SECRET.alice.mac, ROLE_ALICE, PARAMS)
        if pad is not None:
            assert self.pads.setdefault(pad, mac_input) == mac_input, pad
        self.seen.append(encode_frame(frame))

    def sign(self, make, allowed):
        if self.party.frozen is not None or not allowed:
            with pytest.raises(ProtocolStateError):
                make()
        else:
            self.emit(make())

    def deliver(self, raw):
        """A live party keeps going only on an authentic announce that it
        awaits or already accepted; a frozen one answers nothing."""
        live, awaited = self.party.frozen is None, self.awaited()
        out = self.party.on_frame(raw)
        if live:
            phase, code = ANNOUNCES.get(raw, (None, None))
            kept = phase is not None and (self.results[phase] == code or phase == awaited)
            assert (self.party.frozen is None) == kept
        else:
            assert out == []
        for dst, frame in out:
            assert dst == ROLE_TTP
            self.emit(frame)
        self.seen.append(raw)
        self.last = raw

    @initialize(turns=st.integers(0, 4), own=st.booleans(), data=st.data())
    def honest_start(self, turns, own, data):
        """Start at any of the party's five turns, reached in order."""
        moves = [self.submit, self.awaited_announce, self.claim, self.awaited_announce]
        args = [(), (data,), (own,), (data,)]
        for move, arg in zip(moves[:turns], args):
            move(*arg)
            self.results_are_signed_codes_and_never_change()
        assert self.party.frozen is None

    @rule()
    def submit(self):
        self.sign(self.party.et_submit_frame, "et_submit_pad" not in self.pads)

    @rule(own=st.booleans())
    def claim(self, own):
        allowed = self.results[0] is not None and "dr_claim_pad" not in self.pads
        self.sign(lambda: self.party.dr_claim_frame(None if own else LIE), allowed)

    def awaited(self):
        """The phase (0 or 1) whose payload this party signed and whose
        announce it has not accepted, or None."""
        signed = ["et_submit_pad" in self.pads, "dr_claim_pad" in self.pads]
        return next((i for i in (0, 1) if signed[i] and self.results[i] is None), None)

    @precondition(lambda self: self.awaited() is not None)
    @rule(data=st.data())
    def awaited_announce(self, data):
        """An authentic announce of the phase this party awaits."""
        phase = self.awaited()
        self.deliver(data.draw(st.sampled_from([r for r, v in ANNOUNCES.items() if v[0] == phase])))

    @rule(raw=st.sampled_from(sorted(ANNOUNCES)), bit=st.none() | st.integers(0, 23))
    def announce(self, raw, bit):
        """Any authentic announce, or one with a flipped tag bit."""
        if bit is not None:
            k = 8 * (HEADER_BYTES + 1) + bit  # a bit of the three tag bytes
            raw = raw[: k // 8] + bytes([raw[k // 8] ^ (1 << k % 8)]) + raw[k // 8 + 1 :]
        self.deliver(raw)

    @precondition(lambda self: self.seen)
    @rule(data=st.data())
    def replay(self, data):
        self.deliver(data.draw(st.sampled_from(self.seen)))

    @rule(junk=st.binary(max_size=40))
    def junk(self, junk):
        self.deliver(junk)

    @invariant()
    def results_are_signed_codes_and_never_change(self):
        for i, value in enumerate((self.party.et_outcome, self.party.verdict)):
            if self.results[i] is None and value is not None:
                assert ANNOUNCES[self.last] == (i, value)
                self.results[i] = value
            assert value == self.results[i]

    @invariant()
    def a_freeze_is_final(self):
        """A frozen party accepts nothing more, and its API raises."""
        now = (self.party.frozen, self.party.et_outcome, self.party.verdict)
        if self.frozen is None and now[0] is not None:
            self.frozen = now
        assert self.frozen in (None, now)
        if self.frozen is not None:
            for make in (self.party.et_submit_frame, self.party.dr_claim_frame):
                with pytest.raises(ProtocolStateError):
                    make()


OneParty.TestCase.settings = settings(
    max_examples=200, stateful_step_count=20, deadline=None, derandomize=True
)
test_one_party = OneParty.TestCase
