"""Each one-time pad authenticates one message, over whole sessions.

The one-time MAC's forgery bound holds only while every (hash key, pad)
pair tags a single MAC input. These tests record every frame the runners
hand the memory carrier, before its faults are applied, work out which
pad signed each one from the frame alone, and check that no pad tagged
two different MAC inputs. A retransmit of the same frame is one input.
"""

import random
from fractions import Fraction

import pytest

from etdr.bits import Message, bytes_to_bits
from etdr.etproto.keys import ROLE_ALICE, ROLE_BOB, ROLE_TTP, generate_keys
from etdr.etproto.session import SessionStore
from etdr.itsmac import MacKey, mac_verify
from etdr.params import derive_params
from etdr.transport.channel import FaultPlan, MemoryNetwork, run_session
from etdr.transport.frames import PHASE_OF, PHASES, MsgType, encode_frame
from etdr.transport.runners import PartyRunner, TtpRunner

PARAMS = derive_params(256, Fraction(1, 16))


@pytest.fixture
def signed(monkeypatch):
    """Every (sender, receiver, frame) posted to a memory carrier, as signed."""
    frames = []
    post = MemoryNetwork.post

    def recording_post(self, src, dst, frame):
        frames.append((src, dst, frame))
        post(self, src, dst, frame)

    monkeypatch.setattr(MemoryNetwork, "post", recording_post)
    return frames


def pad_of(secret, src, dst, frame):
    """(party of the link, MacMaterial pad field) that signed `frame`, or
    None for an unsigned error report."""
    party = dst if src == ROLE_TTP else src
    mac = (secret.alice if party == ROLE_ALICE else secret.bob).mac

    def sender_pad(phase):
        return phase.announce_pad if src == ROLE_TTP else phase.inbound_pad

    if frame.msg_type != MsgType.ERROR:
        return party, sender_pad(PHASE_OF[frame.msg_type])
    if not frame.tag:
        return None
    # as the receiver finds it: the sender's pad of that link whose tag verifies
    tag = bytes_to_bits(frame.tag, PARAMS.tag_bits)
    (pad,) = [
        sender_pad(phase)
        for phase in PHASES
        if mac_verify(
            MacKey(getattr(mac, phase.hash_key), getattr(mac, sender_pad(phase)), PARAMS.tag_bits),
            frame.mac_input(src),
            tag,
        )
    ]
    return party, pad


def assert_single_use(secret, signed):
    inputs = {}
    for src, dst, frame in signed:
        pad = pad_of(secret, src, dst, frame)
        if pad is not None:
            inputs.setdefault(pad, set()).add(frame.mac_input(src))
    assert {pad: len(seen) for pad, seen in inputs.items() if len(seen) > 1} == {}
    return inputs


def every_fault(frames):
    """A plan per drop and per single-bit flip of `frames`, in posting order."""
    sizes = [8 * len(encode_frame(frame)) for frame in frames]
    plans = [FaultPlan(drops=frozenset({seq})) for seq in range(len(sizes))]
    return plans + [FaultPlan(bit_flips={seq: k}) for seq, n in enumerate(sizes) for k in range(n)]


def session_inputs(seed):
    rng = random.Random(seed)
    m = Message(rng.getrandbits(256), 256)
    other = Message(m.value ^ (1 << rng.randrange(256)), 256)
    lie = Message(other.value ^ (1 << rng.randrange(256)), 256)
    return generate_keys(PARAMS, seed=seed), m, other, lie


def test_no_pad_tags_two_inputs_in_a_comparison_or_a_dispute(signed):
    sec, m, other, lie = session_inputs(901)
    for kwargs in ({}, {"dispute": True}, {"dispute": True, "claim_b": lie}):
        signed.clear()
        assert run_session(sec, m, other, **kwargs).clean
        # every pad of both links signed exactly one frame
        assert len(assert_single_use(sec, signed)) == 2 * (4 if kwargs else 2)


def test_no_pad_tags_two_inputs_under_any_bit_flip_or_drop(signed):
    sec, m, other, lie = session_inputs(902)
    assert run_session(sec, m, other, dispute=True, claim_b=lie).clean
    frames = [frame for _, _, frame in signed]
    frozen = 0
    for plan in every_fault(frames):
        signed.clear()
        frozen += bool(run_session(sec, m, other, dispute=True, claim_b=lie, fault_plan=plan).frozen)
        assert_single_use(sec, signed)
    # every flip is caught, and no drop freezes
    assert frozen == sum(8 * len(encode_frame(frame)) for frame in frames)


def test_no_pad_tags_two_inputs_across_a_referee_restart(signed, tmp_path):
    # The referee restarts between the phases, over its store, and serves
    # the dispute under every drop and bit flip of the dispute's frames.
    # A restart after a freeze is left out: the freeze and the pads a
    # frozen referee has checked live in memory only, so a referee
    # restarted after one comes up live (ROADMAP item 12).
    sec, m, other, lie = session_inputs(903)

    def run(store_dir, plan):
        signed.clear()
        alice, bob = PartyRunner(sec.alice, m), PartyRunner(sec.bob, other)
        net = MemoryNetwork(TtpRunner(sec, store=SessionStore(store_dir)), alice, bob)
        net.post(ROLE_ALICE, ROLE_TTP, alice.et_submit_frame())
        net.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
        net.deliver_all()
        restarted = TtpRunner(sec, store=SessionStore(store_dir))
        net = MemoryNetwork(restarted, alice, bob, fault_plan=plan)
        net.post(ROLE_ALICE, ROLE_TTP, alice.dr_claim_frame())
        net.post(ROLE_BOB, ROLE_TTP, bob.dr_claim_frame(lie))
        net.deliver_all()
        assert_single_use(sec, signed)
        return net.result()

    assert run(tmp_path / "clean", None).clean
    dispute = [frame for _, _, frame in signed[4:]]  # the four comparison frames come first
    for i, plan in enumerate(every_fault(dispute)):
        run(tmp_path / str(i), plan)
