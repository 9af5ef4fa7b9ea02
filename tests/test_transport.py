"""End-to-end sessions over both carriers, fault injection, restarts."""

import hashlib
import random
import threading
from fractions import Fraction

import pytest

from etdr.bits import Message
from etdr.errors import ProtocolStateError
from etdr.etproto import ET_DISTINCT, ET_EQUAL, Verdict, generate_keys
from etdr.etproto.keys import ROLE_ALICE, ROLE_BOB, ROLE_TTP
from etdr.etproto.session import SessionStore
from etdr.params import derive_params
from etdr.transport import (
    FaultPlan,
    Frame,
    MemoryNetwork,
    MsgType,
    PartyRunner,
    TtpRunner,
    run_session,
)
from etdr.transport.frames import encode_frame
from etdr.transport.runners import ERR_STATE, _sign
from etdr.transport.sockets import SocketTtpServer, run_party_session

PARAMS = derive_params(256, Fraction(1, 16))
PINNED_TRANSCRIPT_DIGEST = "ed67ada13490f94d31c47a31e24902a58bd90c12cfda0a778ba89a628915daed"


def messages(seed):
    rng = random.Random(seed)
    m = Message(rng.getrandbits(256), 256)
    other = Message(m.value ^ (1 << rng.randrange(256)), 256)
    return m, other


# ------------------------------------------------------------ memory path


def test_honest_equal_run():
    sec = generate_keys(PARAMS, seed=101)
    m, _ = messages(1)
    res = run_session(sec, m, m)
    assert res.clean
    assert res.et_outcome_a == res.et_outcome_b == ET_EQUAL
    assert res.verdict_a is None


def test_honest_distinct_run_and_dispute():
    sec = generate_keys(PARAMS, seed=102)
    m, other = messages(2)
    res = run_session(sec, m, other, dispute=True)
    assert res.clean
    assert res.et_outcome_a == res.et_outcome_b == ET_DISTINCT
    # both told the truth in the dispute: no one can be blamed
    assert res.verdict_a == res.verdict_b == Verdict.UNDECIDABLE


def test_dispute_blames_lying_claimant():
    sec = generate_keys(PARAMS, seed=103)
    m, other = messages(3)
    lie = Message(m.value ^ (1 << 200), 256)
    res = run_session(sec, m, other, dispute=True, claim_b=lie)
    assert res.clean
    assert res.verdict_a == res.verdict_b == Verdict.ALICE_CORRECT
    res = run_session(sec, m, other, dispute=True, claim_a=lie)
    assert res.verdict_a == res.verdict_b == Verdict.BOB_CORRECT


def test_matching_claims_close_the_dispute():
    sec = generate_keys(PARAMS, seed=104)
    m, other = messages(4)
    res = run_session(sec, m, other, dispute=True, claim_b=m)
    assert res.verdict_a == res.verdict_b == Verdict.BOTH_CONSISTENT


def test_traffic_measured_totals():
    n, l, r = PARAMS.shared_count, PARAMS.subkey_bits, PARAMS.data_bits
    sec = generate_keys(PARAMS, seed=105)
    m, other = messages(5)
    res = run_session(sec, m, other, dispute=True)
    meter = res.meter
    assert meter.et_bits == 4 * n * l + 4 * (n + l) + 4
    assert meter.dr_bits == 2 * r + 4 * (n + l) + 4
    assert meter.claim_bits == 2 * r
    assert meter.et_within_budget and meter.dr_within_budget


def test_traffic_budgets_hold_on_second_parameter_set():
    params = derive_params(1024, Fraction(1, 256))
    sec = generate_keys(params, seed=106)
    rng = random.Random(6)
    m = Message(rng.getrandbits(1024), 1024)
    other = Message(m.value ^ 1, 1024)
    res = run_session(sec, m, other, dispute=True)
    assert res.clean
    assert res.meter.et_within_budget and res.meter.dr_within_budget
    assert res.meter.claim_bits == 2 * 1024


def seeded_transcript_digest():
    """SHA-256 over the frames (tags included), outcomes and verdicts of
    seeded honest and dispute sessions at r = 256, eps = 2^-4 and 2^-40."""
    h = hashlib.sha256()
    for eps in (Fraction(1, 16), Fraction(1, 2**40)):
        params = derive_params(256, eps)
        for seed in range(1, 4):
            sec = generate_keys(params, seed=seed)
            m, other = messages(seed)
            lie = Message(m.value ^ (1 << 200), 256)
            for res in (
                run_session(sec, m, m),
                run_session(sec, m, other, dispute=True),
                run_session(sec, m, other, dispute=True, claim_b=lie),
            ):
                for src, dst, raw in res.transcript:
                    h.update(bytes([src, dst]) + len(raw).to_bytes(4, "big") + raw)
                ends = (res.et_outcome_a, res.et_outcome_b, res.verdict_a, res.verdict_b)
                h.update(repr([None if x is None else int(x) for x in ends]).encode())
    return h.hexdigest()


def test_seeded_transcripts_match_the_pinned_digest():
    # pinned with the per-key byte-table multiply the MAC used before the
    # 4-bit window; any changed tag or frame byte fails
    assert seeded_transcript_digest() == PINNED_TRANSCRIPT_DIGEST


# -------------------------------------------------------- fault injection


def test_single_bit_tamper_is_detected_never_misleads():
    rng = random.Random(7)
    detected = 0
    for trial in range(40):
        sec = generate_keys(PARAMS, seed=200 + trial)
        m, other = messages(700 + trial)
        equal = trial % 2 == 0
        m_b = m if equal else other
        # frames 0..3 cross the network in the comparison phase
        seq = rng.randrange(4)
        plan = FaultPlan(bit_flips={seq: rng.randrange(4000)})
        res = run_session(sec, m, m_b, fault_plan=plan)
        want = ET_EQUAL if equal else ET_DISTINCT
        assert res.frozen, "tampering went unnoticed"
        detected += 1
        # no endpoint may hold a wrong outcome; unset or correct only
        for outcome in (res.et_outcome_a, res.et_outcome_b):
            assert outcome in (None, want)
    assert detected == 40


def test_dropped_frame_stalls_without_wrong_result():
    sec = generate_keys(PARAMS, seed=300)
    m, _ = messages(8)
    res = run_session(sec, m, m, fault_plan=FaultPlan(drops=frozenset({1})))
    # bob's submission vanished: nobody gets an outcome, nobody freezes
    assert res.et_outcome_a is None and res.et_outcome_b is None
    assert not res.frozen


def test_duplicate_submission_is_absorbed():
    sec = generate_keys(PARAMS, seed=301)
    m, _ = messages(9)
    ttp = TtpRunner(sec)
    alice = PartyRunner(sec.alice, m)
    bob = PartyRunner(sec.bob, m)
    net = MemoryNetwork(ttp, alice, bob)
    first = alice.et_submit_frame()
    net.post(ROLE_ALICE, ROLE_TTP, first)
    net.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
    net.deliver_all()
    # replay alice's frame: identical announces go out again, absorbed
    net.post(ROLE_ALICE, ROLE_TTP, first)
    net.deliver_all()
    res = net.result()
    assert res.clean
    assert res.et_outcome_a == res.et_outcome_b == ET_EQUAL
    assert res.meter.counts[MsgType.ET_ANNOUNCE] == 4


def test_cross_session_frame_freezes():
    # a frame for some other session can never be authenticated here, so
    # the referee fails closed rather than guessing
    sec = generate_keys(PARAMS, seed=302)
    stranger = generate_keys(PARAMS, seed=303)
    m, _ = messages(10)
    ttp = TtpRunner(sec)
    alice = PartyRunner(sec.alice, m)
    bob = PartyRunner(sec.bob, m)
    net = MemoryNetwork(ttp, alice, bob)
    intruder = PartyRunner(stranger.alice, m)
    net.post(ROLE_ALICE, ROLE_TTP, intruder.et_submit_frame())
    net.deliver_all()
    res = net.result()
    assert ttp.frozen is not None
    assert set(res.frozen) == {"ttp", "alice", "bob"}
    assert res.et_outcome_a is None


def test_premature_claim_freezes_session():
    sec = generate_keys(PARAMS, seed=304)
    m, _ = messages(11)
    ttp = TtpRunner(sec)
    alice = PartyRunner(sec.alice, m)
    bob = PartyRunner(sec.bob, m)
    net = MemoryNetwork(ttp, alice, bob)
    # correctly authenticated claim, but the comparison never ran
    payload = m.to_bytes()
    claim = _sign(
        Frame(MsgType.DR_CLAIM_A, sec.session_id, payload, b""),
        sec.alice.mac.dr_hash_key,
        sec.alice.mac.dr_claim_pad,
        PARAMS,
        ROLE_ALICE,
    )
    net.post(ROLE_ALICE, ROLE_TTP, claim)
    net.deliver_all()
    assert ttp.frozen is not None and ttp.frozen.reason == ERR_STATE
    # both parties got an authenticated error report
    res = net.result()
    assert set(res.frozen) == {"ttp", "alice", "bob"}
    assert not res.frozen["alice"].local


def test_party_api_misuse_raises():
    sec = generate_keys(PARAMS, seed=305)
    m, _ = messages(12)
    alice = PartyRunner(sec.alice, m)
    alice.et_submit_frame()
    with pytest.raises(ProtocolStateError):
        alice.et_submit_frame()
    with pytest.raises(ProtocolStateError):
        alice.dr_claim_frame()


# ----------------------------------------------------------- ttp restart


def test_ttp_restart_preserves_session(tmp_path):
    sec = generate_keys(PARAMS, seed=400)
    m, other = messages(13)

    alice = PartyRunner(sec.alice, m)
    bob = PartyRunner(sec.bob, other)
    ttp1 = TtpRunner(sec, store=SessionStore(tmp_path))
    net1 = MemoryNetwork(ttp1, alice, bob)
    submit_a = alice.et_submit_frame()
    net1.post(ROLE_ALICE, ROLE_TTP, submit_a)
    net1.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
    net1.deliver_all()
    assert alice.et_outcome == ET_DISTINCT

    # referee restarts; parties keep their state and open the dispute
    ttp2 = TtpRunner(sec, store=SessionStore(tmp_path))
    net2 = MemoryNetwork(ttp2, alice, bob)
    net2.post(ROLE_ALICE, ROLE_TTP, alice.dr_claim_frame())
    net2.post(ROLE_BOB, ROLE_TTP, bob.dr_claim_frame())
    net2.deliver_all()
    assert alice.verdict == bob.verdict == Verdict.UNDECIDABLE
    assert ttp2.frozen is None

    # a replayed submission after restart re-emits the same announce
    ttp3 = TtpRunner(sec, store=SessionStore(tmp_path))
    out = ttp3.on_frame(encode_frame(submit_a))
    assert [dst for dst, _ in out] == [ROLE_ALICE, ROLE_BOB]
    assert out[0][1].payload == bytes([ET_DISTINCT])


def test_restart_verdict_matches_uninterrupted_run(tmp_path):
    sec = generate_keys(PARAMS, seed=401)
    m, other = messages(14)
    lie = Message(other.value ^ (1 << 99), 256)

    straight = run_session(sec, m, other, dispute=True, claim_b=lie)

    alice = PartyRunner(sec.alice, m)
    bob = PartyRunner(sec.bob, other)
    net1 = MemoryNetwork(TtpRunner(sec, store=SessionStore(tmp_path)), alice, bob)
    net1.post(ROLE_ALICE, ROLE_TTP, alice.et_submit_frame())
    net1.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
    net1.deliver_all()

    net2 = MemoryNetwork(TtpRunner(sec, store=SessionStore(tmp_path)), alice, bob)
    net2.post(ROLE_ALICE, ROLE_TTP, alice.dr_claim_frame())
    net2.post(ROLE_BOB, ROLE_TTP, bob.dr_claim_frame(lie))
    net2.deliver_all()

    assert alice.verdict == straight.verdict_a == Verdict.ALICE_CORRECT
    assert bob.verdict == straight.verdict_b


# --------------------------------------------------------------- sockets


def _drive_socket_session(sec, m_a, m_b, *, dispute, store=None):
    results = {}
    with SocketTtpServer(sec, store=store) as server:
        def drive(name, keys, msg):
            results[name] = run_party_session(
                keys, msg, server.address, dispute=dispute
            )
        threads = [
            threading.Thread(target=drive, args=("alice", sec.alice, m_a)),
            threading.Thread(target=drive, args=("bob", sec.bob, m_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        logs = {role: server.logs[role] for role in (ROLE_ALICE, ROLE_BOB)}
    return results, logs


def test_socket_carrier_full_session():
    sec = generate_keys(PARAMS, seed=500)
    m, other = messages(15)
    results, _ = _drive_socket_session(sec, m, other, dispute=True)
    alice, _ = results["alice"]
    bob, _ = results["bob"]
    assert alice.frozen is None and bob.frozen is None
    assert alice.et_outcome == bob.et_outcome == ET_DISTINCT
    assert alice.verdict == bob.verdict == Verdict.UNDECIDABLE


def test_socket_and_memory_transcripts_identical():
    sec = generate_keys(PARAMS, seed=501)
    m, other = messages(16)
    mem = run_session(sec, m, other, dispute=True)

    def chan(src, dst):
        return b"".join(raw for s, d, raw in mem.transcript if (s, d) == (src, dst))

    results, logs = _drive_socket_session(sec, m, other, dispute=True)
    _, alice_log = results["alice"]
    _, bob_log = results["bob"]
    assert b"".join(alice_log.to_ttp) == chan(ROLE_ALICE, ROLE_TTP)
    assert b"".join(alice_log.from_ttp) == chan(ROLE_TTP, ROLE_ALICE)
    assert b"".join(bob_log.to_ttp) == chan(ROLE_BOB, ROLE_TTP)
    assert b"".join(bob_log.from_ttp) == chan(ROLE_TTP, ROLE_BOB)
    assert b"".join(logs[ROLE_ALICE].to_ttp) == chan(ROLE_ALICE, ROLE_TTP)
    assert b"".join(logs[ROLE_BOB].from_ttp) == chan(ROLE_TTP, ROLE_BOB)


def test_socket_carrier_with_store(tmp_path):
    sec = generate_keys(PARAMS, seed=502)
    m, _ = messages(17)
    results, _ = _drive_socket_session(
        sec, m, m, dispute=False, store=SessionStore(tmp_path)
    )
    alice, _ = results["alice"]
    assert alice.et_outcome == ET_EQUAL
    reopened = SessionStore(tmp_path).record(sec.session_id)
    assert reopened.get("et_outcome") == bytes([ET_EQUAL])
