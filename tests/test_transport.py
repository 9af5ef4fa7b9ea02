"""End-to-end sessions over both carriers, fault injection, restarts."""

import copy
import gc
import hashlib
import random
import socket
import threading
import time
import warnings
from fractions import Fraction

import pytest

from etdr.bits import Message, bits_to_bytes
from etdr.errors import FrameError, ProtocolStateError
from etdr.etproto.core import ET_DISTINCT, ET_EQUAL, Verdict
from etdr.etproto.keys import ROLE_ALICE, ROLE_BOB, ROLE_TTP, MacMaterial, generate_keys
from etdr.etproto.session import _FIELDS as SESSION_FIELDS
from etdr.etproto.session import SessionStore
from etdr.params import derive_params, experimental_params
from etdr.transport import runners
from etdr.transport.channel import FaultPlan, MemoryNetwork, run_session
from etdr.transport.frames import PHASES, Frame, FrameReader, MsgType, encode_frame
from etdr.transport.runners import ERR_FRAME, ERR_MAC, ERR_STATE, PartyRunner, TtpRunner, _sign
from etdr.transport.sockets import SocketTtpServer, run_party_session
from oracles import signing_pad

PARAMS = derive_params(256, Fraction(1, 16))
PINNED_TRANSCRIPT_DIGEST = "ed67ada13490f94d31c47a31e24902a58bd90c12cfda0a778ba89a628915daed"
PINNED_NON_BYTE_LANE_DIGEST = "839bf8b6eacfa16e107e36f899739e7afba35e7b40715a5a9500086bc54af3dd"


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


def test_a_claim_implies_the_dispute():
    sec = generate_keys(PARAMS, seed=103)
    m, other = messages(3)
    lie = Message(m.value ^ (1 << 200), 256)
    asked = run_session(sec, m, other, dispute=True, claim_b=lie)
    implied = run_session(sec, m, other, claim_b=lie)
    assert implied.verdict_a == implied.verdict_b == Verdict.ALICE_CORRECT
    assert (implied.verdict_a, implied.verdict_b) == (asked.verdict_a, asked.verdict_b)
    assert implied.transcript == asked.transcript
    # over TCP each party runs its own dispute: a claim alone starts it
    verdicts = {}
    with SocketTtpServer(sec) as server:
        def drive(name, keys, msg, claim):
            runner, _ = run_party_session(keys, msg, server.address, claim=claim, timeout=5.0)
            verdicts[name] = runner.verdict
        threads = [
            threading.Thread(target=drive, args=("alice", sec.alice, m, m)),
            threading.Thread(target=drive, args=("bob", sec.bob, other, lie)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert verdicts == {"alice": Verdict.ALICE_CORRECT, "bob": Verdict.ALICE_CORRECT}


def test_matching_claims_close_the_dispute():
    sec = generate_keys(PARAMS, seed=104)
    m, other = messages(4)
    res = run_session(sec, m, other, dispute=True, claim_b=m)
    assert res.verdict_a == res.verdict_b == Verdict.BOTH_CONSISTENT


def test_referee_reads_cross_counts_only_when_both_reproduce(monkeypatch):
    # hash_vector calls the referee makes to rule: none on equal claims,
    # each claim under its own party's N subkeys, and the claims'
    # difference under all 2N only when both reproduce their submissions
    calls = []
    hash_vector = runners.hash_vector

    def counted(keys, *args):
        calls.append(len(keys))
        return hash_vector(keys, *args)

    monkeypatch.setattr(runners, "hash_vector", counted)
    sec = generate_keys(PARAMS, seed=102)
    m, other = messages(2)
    lie, big_n = Message(m.value ^ (1 << 200), 256), PARAMS.subkey_count
    for claims, verdict, reads in (
        ({"claim_b": m}, Verdict.BOTH_CONSISTENT, []),
        ({"claim_b": lie}, Verdict.ALICE_CORRECT, [big_n, big_n]),
        ({"claim_a": lie}, Verdict.BOB_CORRECT, [big_n, big_n]),
        ({"claim_a": lie, "claim_b": m}, Verdict.UNDECIDABLE, [big_n, big_n]),
        ({}, Verdict.UNDECIDABLE, [big_n, big_n, 2 * big_n]),
    ):
        calls.clear()
        res = run_session(sec, m, other, dispute=True, **claims)
        assert res.verdict_a == res.verdict_b == verdict
        assert calls == reads


def test_traffic_measured_totals():
    n, l, r = PARAMS.shared_count, PARAMS.subkey_bits, PARAMS.data_bits
    sec = generate_keys(PARAMS, seed=105)
    m, other = messages(5)
    res = run_session(sec, m, other, dispute=True)
    meter = res.meter
    assert meter.et_bits == 4 * n * l + 4 * (n + l) + 4
    assert meter.dr_bits == 2 * r + 4 * (n + l) + 4
    assert meter.et_bits <= PARAMS.et_comm_bits
    assert meter.dr_bits <= PARAMS.dr_comm_bits


def test_traffic_budgets_hold_on_second_parameter_set():
    params = derive_params(1024, Fraction(1, 256))
    sec = generate_keys(params, seed=106)
    rng = random.Random(6)
    m = Message(rng.getrandbits(1024), 1024)
    other = Message(m.value ^ 1, 1024)
    res = run_session(sec, m, other, dispute=True)
    assert res.clean
    assert res.meter.et_bits <= params.et_comm_bits
    assert res.meter.dr_bits <= params.dr_comm_bits
    n, l = params.shared_count, params.subkey_bits
    assert res.meter.dr_bits == 2 * 1024 + 4 * (n + l) + 4


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


def non_byte_lane_digest():
    """seeded_transcript_digest's hash at digest widths other than a byte:
    l = 12 on the log-table path, l = 18 on the carry-less path, and l = 5
    on the list path."""
    h = hashlib.sha256()
    for params in (
        derive_params(4096, Fraction(1, 16)),
        derive_params(2**18, Fraction(1, 16)),
        experimental_params(64, 3, 5),
    ):
        r = params.data_bits
        for seed in range(1, 3):
            sec = generate_keys(params, seed=seed)
            rng = random.Random(seed)
            m = Message(rng.getrandbits(r), r)
            other = Message(m.value ^ (1 << rng.randrange(r)), r)
            lie = Message(m.value ^ (1 << rng.randrange(r)), r)
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


def test_non_byte_lane_transcripts_match_the_pinned_digest():
    # a digest packed or unpacked at the wrong lane offset changes a frame
    # byte or a verdict at these widths even where l = 8 would hide it
    assert non_byte_lane_digest() == PINNED_NON_BYTE_LANE_DIGEST


# ------------------------------------------------------------ phase table


def test_phase_table_names_only_real_fields():
    mac_names = [name for name, _ in MacMaterial.field_bits(PARAMS.tag_bits)]
    table_macs, table_fields = [], []
    for phase in PHASES:
        table_macs += [phase.hash_key, phase.inbound_pad, phase.announce_pad]
        table_fields += [*phase.payload_fields.values(), phase.result_field]
        assert phase.payload_bits(PARAMS) == getattr(PARAMS, phase.payload_width) > 0
        assert set(phase.inbound) == set(phase.payload_fields) == {ROLE_ALICE, ROLE_BOB}
    # every key, pad and record field is named once, and each is real
    assert sorted(table_macs) == sorted(mac_names)
    assert sorted(table_fields) == sorted(SESSION_FIELDS)


def test_every_message_type_but_error_belongs_to_one_phase():
    for msg_type in MsgType:
        owners = [ph for ph in PHASES if msg_type in (*ph.inbound.values(), ph.announce)]
        assert len(owners) == (0 if msg_type == MsgType.ERROR else 1), msg_type.name


def error_pad(err, mac, signer):
    """The MacMaterial pad that signed error frame `err`, None if unsigned."""
    assert err.msg_type == MsgType.ERROR
    return signing_pad(err, mac, signer, PARAMS)


def test_party_error_frame_pad_in_each_state():
    # a party reports under the first of its two outbound pads it has not
    # yet used, and unsigned once it has used both. At each step it may
    # sign only its next payload, absorbs an authentic announce equal to
    # the one it accepted, accepts any authentic announce it awaits, and
    # freezes on every other announce.
    sec = generate_keys(PARAMS, seed=306)
    m, other = messages(18)
    alice, bob = PartyRunner(sec.alice, m), PartyRunner(sec.bob, other)
    net = MemoryNetwork(TtpRunner(sec), alice, bob)
    et, dr = MsgType.ET_ANNOUNCE, MsgType.DR_ANNOUNCE

    def announces(message_b):
        """The referee's announces to Alice in a dispute with Bob on message_b."""
        res = run_session(sec, m, message_b, dispute=True)
        return {raw[1]: raw for _, dst, raw in res.transcript if dst == ROLE_ALICE}

    # this session's announces, authentic ones with other codes, and this
    # session's with a flipped tag bit; with their (outcome, verdict) codes
    ours, theirs = announces(other), announces(m)
    flipped = {t: raw[:-1] + bytes([raw[-1] ^ 1]) for t, raw in ours.items()}
    sources = {
        "ours": (ours, (ET_DISTINCT, Verdict.UNDECIDABLE)),
        "theirs": (theirs, (ET_EQUAL, Verdict.BOTH_CONSISTENT)),
        "flipped": (flipped, None),
    }
    # per step: Alice's error pad, whether she may submit and claim (None)
    # or the refusal of each, the announce she awaits, the ones she
    # accepted, her outcome and verdict
    submitted, too_early, claimed = (
        "digest vector already submitted",
        "dispute opens only after the comparison",
        "dispute claim already sent",
    )
    steps = iter([
        ("et_submit_pad", (None, too_early), None, (), (None, None)),
        ("dr_claim_pad", (submitted, too_early), et, (), (None, None)),
        ("dr_claim_pad", (submitted, None), None, (et,), (ET_DISTINCT, None)),
        (None, (submitted, claimed), dr, (et,), (ET_DISTINCT, None)),
        (None, (submitted, claimed), None, (et, dr), (ET_DISTINCT, Verdict.UNDECIDABLE)),
    ])

    def probe_copies():
        pad, refusals, awaited, accepted, results = next(steps)
        probe = copy.deepcopy(alice)
        ((dst, err),) = probe.on_frame(b"junk")
        assert dst == ROLE_TTP and probe.frozen.reason == ERR_FRAME
        assert error_pad(err, sec.alice.mac, ROLE_ALICE) == pad
        signers = (PartyRunner.et_submit_frame, PartyRunner.dr_claim_frame)
        for sign, refusal in zip(signers, refusals):
            probe = copy.deepcopy(alice)
            if refusal is None:
                assert sign(probe).tag
            else:
                with pytest.raises(ProtocolStateError, match=refusal):
                    sign(probe)
        assert (alice.et_outcome, alice.verdict) == results
        for name, (source, codes) in sources.items():
            for t, raw in source.items():
                want, freeze = list(results), None
                if t == awaited and codes:  # authentic and awaited: accepted
                    want[t == dr] = codes[t == dr]
                elif t == awaited:
                    freeze = ERR_MAC
                elif name != "ours" or t not in accepted:  # else an absorbed repeat
                    freeze = ERR_STATE
                probe = copy.deepcopy(alice)
                assert len(probe.on_frame(raw)) == (freeze is not None)
                reason = probe.frozen.reason if probe.frozen else None
                assert (reason, probe.et_outcome, probe.verdict) == (freeze, *want), (name, t.name)

    probe_copies()
    net.post(ROLE_ALICE, ROLE_TTP, alice.et_submit_frame())
    probe_copies()
    net.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
    net.deliver_all()
    probe_copies()
    net.post(ROLE_ALICE, ROLE_TTP, alice.dr_claim_frame())
    probe_copies()
    net.post(ROLE_BOB, ROLE_TTP, bob.dr_claim_frame())
    net.deliver_all()
    probe_copies()
    assert next(steps, None) is None
    assert net.result().clean and alice.verdict == Verdict.UNDECIDABLE


def test_referee_error_frame_pads_before_and_after_each_announce(tmp_path):
    # the referee reports to each party under the first announce pad of
    # that link it has not yet used, unsigned once both are used; a
    # referee restarted on its store counts the stored results as used
    sec = generate_keys(PARAMS, seed=307)
    m, other = messages(19)
    alice, bob = PartyRunner(sec.alice, m), PartyRunner(sec.bob, other)
    ttp = TtpRunner(sec, store=SessionStore(tmp_path))
    net = MemoryNetwork(ttp, alice, bob)
    seen = []

    def freeze_copies():
        for runner in (ttp, TtpRunner(sec, store=SessionStore(tmp_path))):
            out = copy.deepcopy(runner).on_frame(b"junk")
            assert [dst for dst, _ in out] == [ROLE_ALICE, ROLE_BOB]
            keys = {ROLE_ALICE: sec.alice, ROLE_BOB: sec.bob}
            seen.append(tuple(error_pad(err, keys[dst].mac, ROLE_TTP) for dst, err in out))

    freeze_copies()
    net.post(ROLE_ALICE, ROLE_TTP, alice.et_submit_frame())
    net.deliver_all()
    freeze_copies()
    net.post(ROLE_BOB, ROLE_TTP, bob.et_submit_frame())
    net.deliver_all()
    freeze_copies()
    net.post(ROLE_ALICE, ROLE_TTP, alice.dr_claim_frame())
    net.post(ROLE_BOB, ROLE_TTP, bob.dr_claim_frame())
    net.deliver_all()
    freeze_copies()
    assert net.result().clean and alice.verdict == Verdict.UNDECIDABLE
    et, dr, unsigned = ("et_announce_pad",) * 2, ("dr_announce_pad",) * 2, (None, None)
    # (live referee, restarted referee) before any announce, after one
    # submission, after the comparison announce, after the verdict
    assert seen == [et, et, et, et, dr, dr, unsigned, unsigned]


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
    announces = [raw for _, _, raw in res.transcript if raw[1] == MsgType.ET_ANNOUNCE]
    assert len(announces) == 4


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
    payload = bits_to_bytes(m.value, m.bit_len)
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


def outbound_ledger(runner):
    """The pads a runner has signed under, with what each one signed."""
    return {key: payload for key, payload in runner._ledger.items() if key[2]}


def test_frozen_referee_names_an_authentic_signer_and_records_nothing():
    sec = generate_keys(PARAMS, seed=321)
    m, _ = messages(24)
    submit = PartyRunner(sec.alice, m).et_submit_frame()
    forged = Frame(submit.msg_type, submit.session_id, submit.payload, bytes(len(submit.tag)))
    ttp = TtpRunner(sec)
    assert len(ttp.on_frame(encode_frame(forged))) == 2  # one error report per party
    assert ttp.signer is None and ttp.frozen.reason == ERR_MAC
    record, spent = ttp.record.encode(), outbound_ledger(ttp)
    assert ttp.on_frame(encode_frame(submit)) == []
    assert ttp.signer == ROLE_ALICE
    assert ttp.record.encode() == record and outbound_ledger(ttp) == spent
    for raw in (encode_frame(forged), b"not a frame"):  # cleared on every frame
        assert ttp.on_frame(raw) == [] and ttp.signer is None


def test_frozen_referee_checks_one_frame_per_pad():
    # a frozen referee's binding shows from outside whether a tag verified,
    # so it checks only the first submission per pad: a second attempt
    # under the same pad names no signer, even with the authentic tag
    sec = generate_keys(PARAMS, seed=322)
    m, _ = messages(25)
    submits = {
        role: PartyRunner(keys, m).et_submit_frame()
        for role, keys in ((ROLE_ALICE, sec.alice), (ROLE_BOB, sec.bob))
    }
    forged = {
        role: Frame(f.msg_type, f.session_id, f.payload, bytes(len(f.tag)))
        for role, f in submits.items()
    }
    ttp = TtpRunner(sec)
    ttp.on_frame(encode_frame(forged[ROLE_BOB]))  # freezes, live
    assert ttp.frozen.reason == ERR_MAC
    record, spent = ttp.record.encode(), outbound_ledger(ttp)
    assert ttp.on_frame(encode_frame(forged[ROLE_ALICE])) == [] and ttp.signer is None
    assert ttp.on_frame(encode_frame(submits[ROLE_ALICE])) == [] and ttp.signer is None
    # the pad whose forged frame froze the runner live still gets one check
    assert ttp.on_frame(encode_frame(submits[ROLE_BOB])) == [] and ttp.signer == ROLE_BOB
    assert ttp.on_frame(encode_frame(submits[ROLE_BOB])) == [] and ttp.signer is None
    assert ttp.record.encode() == record and outbound_ledger(ttp) == spent


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


def test_party_disputing_absorbs_a_repeated_comparison_announce():
    # a resubmitted comparison payload (from a party that reconnected, or
    # one restarted against a restarted referee) makes the referee announce
    # the recorded outcome again, also to a party that has already claimed
    sec = generate_keys(PARAMS, seed=402)
    m, other = messages(15)
    alice, bob = PartyRunner(sec.alice, m), PartyRunner(sec.bob, other)
    net = MemoryNetwork(TtpRunner(sec), alice, bob)
    submit_b = bob.et_submit_frame()
    net.post(ROLE_ALICE, ROLE_TTP, alice.et_submit_frame())
    net.post(ROLE_BOB, ROLE_TTP, submit_b)
    net.deliver_all()
    net.post(ROLE_ALICE, ROLE_TTP, alice.dr_claim_frame())
    net.post(ROLE_BOB, ROLE_TTP, submit_b)
    net.deliver_all()
    assert alice.verdict is None and alice.frozen is None
    net.post(ROLE_BOB, ROLE_TTP, bob.dr_claim_frame())
    net.deliver_all()
    assert net.result().clean
    assert alice.verdict == bob.verdict == run_session(sec, m, other, dispute=True).verdict_a


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


class CountingStore(SessionStore):
    saves = 0

    def save(self, rec):
        self.saves += 1
        super().save(rec)


def test_referee_dropped_between_submits_rules_as_uninterrupted(tmp_path):
    # the referee writes its record once per announce, so one dropped after
    # Alice's submit and before Bob's has stored nothing of the comparison:
    # a fresh referee on the same store takes both submits, and both
    # claims after the same drop, and reaches the uninterrupted outcomes
    sec = generate_keys(PARAMS, seed=402)
    m, other = messages(15)
    lie = Message(other.value ^ (1 << 7), 256)
    straight = run_session(sec, m, other, dispute=True, claim_b=lie)

    alice = PartyRunner(sec.alice, m)
    bob = PartyRunner(sec.bob, other)
    submit_a, submit_b = alice.et_submit_frame(), bob.et_submit_frame()
    dropped = TtpRunner(sec, store=CountingStore(tmp_path))
    assert dropped.on_frame(encode_frame(submit_a)) == []
    assert dropped.store.saves == 0

    store = CountingStore(tmp_path)
    ttp = TtpRunner(sec, store=store)
    assert not ttp.record.has("et_blob_a")
    net = MemoryNetwork(ttp, alice, bob)
    net.post(ROLE_ALICE, ROLE_TTP, submit_a)
    net.post(ROLE_BOB, ROLE_TTP, submit_b)
    net.deliver_all()
    assert alice.et_outcome == straight.et_outcome_a == ET_DISTINCT
    assert bob.et_outcome == straight.et_outcome_b
    assert store.saves == 1

    claim_a, claim_b = alice.dr_claim_frame(), bob.dr_claim_frame(lie)
    dropped = TtpRunner(sec, store=CountingStore(tmp_path))
    assert dropped.on_frame(encode_frame(claim_a)) == []
    assert dropped.store.saves == 0

    store = CountingStore(tmp_path)
    net = MemoryNetwork(TtpRunner(sec, store=store), alice, bob)
    net.post(ROLE_ALICE, ROLE_TTP, claim_a)
    net.post(ROLE_BOB, ROLE_TTP, claim_b)
    net.deliver_all()
    assert alice.verdict == straight.verdict_a == Verdict.ALICE_CORRECT
    assert bob.verdict == straight.verdict_b
    assert store.saves == 1
    assert SessionStore(tmp_path).record(sec.session_id).has("dr_verdict")


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
    return results


def test_socket_carrier_full_session():
    sec = generate_keys(PARAMS, seed=500)
    m, other = messages(15)
    results = _drive_socket_session(sec, m, other, dispute=True)
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

    results = _drive_socket_session(sec, m, other, dispute=True)
    _, alice_log = results["alice"]
    _, bob_log = results["bob"]
    assert b"".join(alice_log.to_ttp) == chan(ROLE_ALICE, ROLE_TTP)
    assert b"".join(alice_log.from_ttp) == chan(ROLE_TTP, ROLE_ALICE)
    assert b"".join(bob_log.to_ttp) == chan(ROLE_BOB, ROLE_TTP)
    assert b"".join(bob_log.from_ttp) == chan(ROLE_TTP, ROLE_BOB)


def test_socket_carrier_with_store(tmp_path):
    sec = generate_keys(PARAMS, seed=502)
    m, _ = messages(17)
    results = _drive_socket_session(
        sec, m, m, dispute=False, store=SessionStore(tmp_path)
    )
    alice, _ = results["alice"]
    assert alice.et_outcome == ET_EQUAL
    reopened = SessionStore(tmp_path).record(sec.session_id)
    assert reopened.get("et_outcome") == bytes([ET_EQUAL])


def test_socket_impostor_connecting_first_receives_nothing():
    # an impostor takes the first connection and sends a badly tagged
    # ET_SUBMIT_A; the referee freezes (denial of service is out of scope)
    # but binds no role to that connection, so Alice's frames never reach
    # it, and no honest party ends with a wrong outcome
    sec = generate_keys(PARAMS, seed=503)
    m, _ = messages(18)
    tag = bytes((PARAMS.tag_bits + 7) // 8)
    forged = Frame(MsgType.ET_SUBMIT_A, sec.session_id, bytes(PARAMS.digest_vector_bits // 8), tag)
    with SocketTtpServer(sec, timeout=5.0) as server:
        impostor = socket.create_connection(server.address, timeout=5.0)
        impostor.sendall(encode_frame(forged))
        assert server.wait_until(lambda r: r.frozen is not None, timeout=5.0)
        assert server.runner.frozen.reason == ERR_MAC
        results = {}

        def drive(name, keys):
            try:
                results[name] = run_party_session(keys, m, server.address, timeout=1.0)[0]
            except FrameError as exc:  # waited for an announce that never came
                results[name] = exc

        threads = [
            threading.Thread(target=drive, args=("alice", sec.alice)),
            threading.Thread(target=drive, args=("bob", sec.bob)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        impostor.settimeout(0.5)
        with pytest.raises(socket.timeout):
            impostor.recv(65536)
        impostor.close()
    assert set(results) == {"alice", "bob"}
    for result in results.values():  # a timeout, or a runner with no wrong outcome
        assert isinstance(result, FrameError) or result.et_outcome in (None, ET_EQUAL)
    # each party's authentic submission bound its connection to the frozen
    # referee, which then sent its queued error report there
    assert [len(server._pending[role]) for role in (ROLE_ALICE, ROLE_BOB)] == [0, 0]
    for result in results.values():
        assert result.frozen is not None and not result.frozen.local


def _wait_for(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


def test_socket_forged_tag_on_a_recorded_payload_binds_nothing():
    # Alice submits and drops her connection; a new connection then sends
    # her recorded payload under an all-zero tag. The referee freezes, but
    # that connection is not Alice's and receives nothing; Alice's own
    # resent submission then binds her new connection to the error report
    sec = generate_keys(PARAMS, seed=510)
    m, _ = messages(23)
    alice = PartyRunner(sec.alice, m)
    submit = alice.et_submit_frame()
    forged = Frame(submit.msg_type, submit.session_id, submit.payload, bytes(len(submit.tag)))
    with SocketTtpServer(sec, timeout=5.0) as server:
        with socket.create_connection(server.address, timeout=5.0) as first:
            first.sendall(encode_frame(submit))
            assert server.wait_until(lambda r: r.record.has("et_blob_a"), timeout=5.0)
        _wait_for(lambda: ROLE_ALICE not in server._conns)  # the referee saw it end
        with socket.create_connection(server.address, timeout=5.0) as impostor:
            impostor.sendall(encode_frame(forged))
            assert server.wait_until(lambda r: r.frozen is not None, timeout=5.0)
            assert server.runner.frozen.reason == ERR_MAC
            assert ROLE_ALICE not in server._conns
            assert len(server._pending[ROLE_ALICE]) == 1
            impostor.settimeout(0.5)
            with pytest.raises(socket.timeout):
                impostor.recv(65536)
            with socket.create_connection(server.address, timeout=5.0) as second:
                second.sendall(encode_frame(submit))
                reader = FrameReader()
                while alice.frozen is None:
                    data = second.recv(65536)
                    assert data, "referee closed Alice's second connection"
                    for raw in reader.feed(data):
                        alice.on_frame(raw)
    assert alice.frozen.reason == ERR_MAC and not alice.frozen.local
    assert alice.et_outcome is None


def test_socket_party_reconnects_and_resends_after_a_dropped_connection():
    # Alice submits and drops her connection, then reconnects and resends
    # the same frame; the referee must announce to the new connection, and
    # Bob's session must end with the outcome rather than a closed stream
    sec = generate_keys(PARAMS, seed=504)
    m, _ = messages(19)
    alice = PartyRunner(sec.alice, m)
    submit = encode_frame(alice.et_submit_frame())
    with SocketTtpServer(sec, timeout=5.0) as server:
        first = socket.create_connection(server.address, timeout=5.0)
        first.sendall(submit)
        assert server.wait_until(lambda r: r.record.has("et_blob_a"), timeout=5.0)
        first.close()
        _wait_for(lambda: ROLE_ALICE not in server._conns)  # the referee saw it end
        with socket.create_connection(server.address, timeout=5.0) as second:
            second.sendall(submit)
            _wait_for(lambda: ROLE_ALICE in server._conns)  # rebound before Bob submits
            bob, _ = run_party_session(sec.bob, m, server.address, timeout=5.0)
            reader, received = FrameReader(), []
            while alice.et_outcome is None and alice.frozen is None:
                data = second.recv(65536)
                assert data, "referee closed Alice's second connection"
                for raw in reader.feed(data):
                    received.append(raw[1])
                    alice.on_frame(raw)
    assert received == [MsgType.ET_ANNOUNCE]
    assert alice.frozen is None and bob.frozen is None
    assert alice.et_outcome == bob.et_outcome == ET_EQUAL


def test_socket_close_does_not_wait_out_an_idle_client():
    sec = generate_keys(PARAMS, seed=505)
    with SocketTtpServer(sec, timeout=3.0) as server, socket.create_connection(
        server.address, timeout=3.0
    ) as idle:
        _wait_for(lambda: len(server._deadlines) == 1)  # accepted: the loop reads it
        start = time.perf_counter()
        server.close()
        assert time.perf_counter() - start < 0.5
        assert idle.recv(65536) == b""  # the referee ended the connection


def test_socket_close_is_prompt_with_a_bound_and_an_idle_client():
    # Alice's session has finished on a connection she keeps open, and a
    # second client has sent nothing; close() ends both at once
    sec = generate_keys(PARAMS, seed=506)
    m, _ = messages(20)
    alice = PartyRunner(sec.alice, m)
    with SocketTtpServer(sec, timeout=3.0) as server, socket.create_connection(
        server.address, timeout=3.0
    ) as bound, socket.create_connection(server.address, timeout=3.0) as idle:
        bound.sendall(encode_frame(alice.et_submit_frame()))
        run_party_session(sec.bob, m, server.address, timeout=3.0)
        reader = FrameReader()
        while alice.et_outcome is None:
            data = bound.recv(65536)
            assert data, "referee closed Alice's connection"
            for raw in reader.feed(data):
                alice.on_frame(raw)
        _wait_for(lambda: len(server._deadlines) == 2)  # Bob's connection ended
        assert ROLE_ALICE in server._conns
        start = time.perf_counter()
        server.close()
        assert time.perf_counter() - start < 0.02
        assert bound.recv(65536) == b"" and idle.recv(65536) == b""
    assert alice.et_outcome == ET_EQUAL


def test_socket_close_without_enter_releases_its_sockets():
    def build_and_close():
        server = SocketTtpServer(generate_keys(PARAMS, seed=507))
        server.close()
        server.close()  # a second close is harmless

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_and_close()
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_socket_silent_connection_is_dropped_and_unbound():
    sec = generate_keys(PARAMS, seed=509)
    m, _ = messages(22)
    submit = encode_frame(PartyRunner(sec.alice, m).et_submit_frame())
    with SocketTtpServer(sec, timeout=0.3) as server, socket.create_connection(
        server.address, timeout=3.0
    ) as alice:
        start = time.perf_counter()
        alice.sendall(submit)
        _wait_for(lambda: ROLE_ALICE in server._conns)  # bound, then silent
        assert alice.recv(65536) == b""  # the referee ended the connection
        assert 0.29 <= time.perf_counter() - start < 2.0
        assert ROLE_ALICE not in server._conns and not server._deadlines


class FailingStore(SessionStore):
    def save(self, rec):
        raise OSError("store unavailable")


def test_socket_runner_exception_ends_both_sessions(tmp_path):
    # the referee's store fails when it saves the comparison outcome; both
    # parties must learn at once that the referee is gone, not wait out
    # their timeout
    sec = generate_keys(PARAMS, seed=508)
    m, _ = messages(21)
    referee_errors, results = [], {}
    hook, threading.excepthook = threading.excepthook, referee_errors.append
    try:
        with SocketTtpServer(sec, store=FailingStore(tmp_path), timeout=4.0) as server:
            def drive(name, keys):
                start = time.perf_counter()
                try:
                    run_party_session(keys, m, server.address, timeout=4.0)
                except FrameError as exc:
                    results[name] = (exc, time.perf_counter() - start)

            threads = [
                threading.Thread(target=drive, args=("alice", sec.alice)),
                threading.Thread(target=drive, args=("bob", sec.bob)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        threading.excepthook = hook
    assert not any(t.is_alive() for t in threads)
    assert [args.exc_type for args in referee_errors] == [OSError]
    assert set(results) == {"alice", "bob"}
    for exc, elapsed in results.values():
        assert elapsed < 1.0, (exc, elapsed)
