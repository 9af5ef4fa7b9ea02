"""The four workloads: inputs from a seed, one closed-loop cycle, checks.

Every workload drives etdr through its public API and names each
function by module attribute at call time, so the tracing wrappers see
every call. A cycle yields Op records, one as each op finishes: the
op's kind, its timings, and a check to run once the timing is over.
Inputs are drawn from the seed before each op starts, so the library
only sees generated keys and data.

Kinds; run.py reports a and b as op_a / op_b and prints c and d:

  session workloads  a = comparison-only session on equal data
                     b = dispute session: Bob holds different data and
                         claims a third value, Alice claims the truth
                     c = dealing (generate_keys; on deploy also the three
                         key files written and read back)
                     d = deploy only: a dispute session over TCP
  analysis           a = verify_security(256, 2^-40)
                     b = attack battery: six strategies x 1,000 trials
                     c = exact game value over 50,000 sampled views
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import etdr.adversary as adversary
import etdr.bounds as bounds
import etdr.params as params_mod
from etdr.bits import Message
from etdr.etproto import core, keys, session
from etdr.transport import channel, frames, sockets, traffic

import reference

SAMPLE_SHARE = 16  # one op in this many gets the reference recomputation


@dataclass
class Op:
    kind: str  # "a", "b" or the kind of its own timed part
    seconds: float  # the op's latency as reported
    busy: float  # whole op: dealing, key files, server start/stop included
    deal: float | None = None  # dealing part, reported as kind "c"
    check: Callable[[], list[str]] = lambda: []
    counts: dict[str, int] = field(default_factory=dict)
    scale: float = 1.0  # to reference host speed; set by the runner


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


# ------------------------------------------------------------ sessions


class SessionWorkload:
    """Sessions at one (r, epsilon). With `deploy`, as deployed: keys go
    through key files, the referee keeps a SessionStore, and each cycle
    adds one dispute session over TCP (kind d, printed only)."""

    rate_kinds = "ab"  # ops whose busy time makes up ops_per_s
    work_rates = ()  # (label, kind, work per op)
    kernels = {"a": "bytecode", "b": "bytecode", "d": "bytecode"}  # speed kernel (host.py)

    def __init__(self, name: str, data_bits: int, epsilon: Fraction, deploy: bool,
                 tail_quantile: float, seed: int, workdir: Path):
        self.name = name
        self.data_bits = data_bits
        self.epsilon = epsilon
        self.deploy = deploy
        self.tail_quantile = tail_quantile
        self.seed = seed
        self.workdir = workdir
        self.params = None
        self.store = None
        self.labels = {"a": "et_session_ms", "b": "dr_session_ms", "c": "deal_ms",
                       "rate": "sessions_per_s"}
        if deploy:
            self.labels["d"] = "tcp_dr_session_ms"

    def prepare(self) -> list[Op]:
        """Parameters, then one untimed cycle that fills every lazy table."""
        self.params = params_mod.derive_params(self.data_bits, self.epsilon)
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.deploy:
            self.store = session.SessionStore(self.workdir / "store")
        self.rng = random.Random(f"{self.name}/{self.seed}")
        warm = random.Random(f"{self.name}/{self.seed}/warm-up")
        # The warm-up cycle runs its memory sessions first, so the MAC
        # field (the reduction_poly search at 2^-40) is built in this
        # thread. Left to a first TCP session, both client threads run
        # the search at once and the referee's 10 s socket timeout
        # expires before either sends a frame.
        return list(self.cycle(warm, sample=True))

    def cycle(self, rng=None, sample=None):
        """Yields each op as soon as it has run."""
        rng = rng or self.rng
        # deploy runs two pairs per TCP session, so that a 20 s run has
        # about 55 of each memory session for its p75
        for _ in range(2 if self.deploy else 1):
            yield self._session(rng, False, False, sample)
            yield self._session(rng, True, False, sample)
        if self.deploy:
            yield self._session(rng, True, True, sample)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- one session ----------------------------------------------------

    def _inputs(self, rng: random.Random, dispute: bool):
        """(Alice's data, Bob's data, Bob's claim). In a dispute Bob's data
        differs from Alice's and he claims a third value."""
        r = self.data_bits
        data_a = Message(rng.getrandbits(r), r)
        if not dispute:
            return data_a, data_a, None
        data_b = Message(data_a.value ^ (rng.getrandbits(r) | 1), r)
        claim_b = Message(data_b.value ^ (rng.getrandbits(r) | 2), r)
        if claim_b.value == data_a.value:
            claim_b = Message(claim_b.value ^ 4, r)
        return data_a, data_b, claim_b

    def _session(self, rng: random.Random, dispute: bool, tcp: bool, sample) -> Op:
        key_seed = rng.getrandbits(64)
        data_a, data_b, claim_b = self._inputs(rng, dispute)
        if sample is None:
            sample = rng.randrange(SAMPLE_SHARE) == 0
        start = perf_counter()
        secret, loaded = self._deal(key_seed)
        dealt = perf_counter()
        run = self._run_tcp if tcp else self._run_memory
        out = run(loaded or (secret.alice, secret.bob, secret), data_a, data_b, dispute,
                  claim_b)
        end = perf_counter()
        out.update(secret=secret, loaded=loaded, counts={})

        def check() -> list[str]:
            return self._check(out, data_a, data_b, dispute, claim_b, sample)

        kind = "d" if tcp else "b" if dispute else "a"
        return Op(kind, out["latency"], end - start, dealt - start, check, out["counts"])

    def _deal(self, key_seed):
        """Fresh keys; when deployed, also written to key files and read
        back, and the sessions use what was read."""
        secret = keys.generate_keys(self.params, seed=key_seed)
        if not self.deploy:
            return secret, None
        files = [self.workdir / f"{role}.key" for role in ("alice", "bob", "ttp")]
        for path, material in zip(files, (secret.alice, secret.bob, secret)):
            keys.save_keys(path, material)
        return secret, tuple(keys.load_keys(path) for path in files)

    def _run_memory(self, dealt, data_a, data_b, dispute, claim_b) -> dict:
        start = perf_counter()
        result = channel.run_session(dealt[2], data_a, data_b, dispute=dispute,
                                     claim_b=claim_b, store=self.store)
        latency = perf_counter() - start
        submits = {raw[1]: raw for _, _, raw in result.transcript}
        return {
            "latency": latency,
            "outcomes": (result.et_outcome_a, result.et_outcome_b),
            "verdicts": (result.verdict_a, result.verdict_b),
            "freezes": len(result.frozen),
            "meter": result.meter,
            "submits": (submits[frames.MsgType.ET_SUBMIT_A],
                        submits[frames.MsgType.ET_SUBMIT_B]),
        }

    def _run_tcp(self, dealt, data_a, data_b, dispute, claim_b) -> dict:
        alice_keys, bob_keys, ttp_secret = dealt
        server = sockets.SocketTtpServer(ttp_secret, store=self.store)
        results: dict[str, object] = {}

        def client(role, party_keys, message, claim):
            try:
                results[role] = sockets.run_party_session(
                    party_keys, message, server.address, dispute=dispute, claim=claim)
            except Exception as exc:  # re-raised once both clients ended
                results[role] = exc

        with server:
            started = perf_counter()
            threads = [
                threading.Thread(target=client, args=("alice", alice_keys, data_a, None)),
                threading.Thread(target=client, args=("bob", bob_keys, data_b, claim_b)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            finished = perf_counter()
        for role, value in results.items():
            if isinstance(value, Exception):
                raise value
        (alice, log_a), (bob, log_b) = results["alice"], results["bob"]
        freezes = sum(r.frozen is not None for r in (alice, bob, server.runner))
        return {
            "latency": finished - started,
            "outcomes": (alice.et_outcome, bob.et_outcome),
            "verdicts": (alice.verdict, bob.verdict),
            "freezes": freezes,
            "wire": (*log_a.to_ttp, *log_a.from_ttp, *log_b.to_ttp, *log_b.from_ttp),
            "submits": (log_a.to_ttp[0], log_b.to_ttp[0]),
        }

    # -- checks ---------------------------------------------------------

    def _check(self, out, data_a, data_b, dispute, claim_b, sample) -> list[str]:
        p = self.params
        secret = out["secret"]
        bad = []
        want = core.ET_DISTINCT if dispute else core.ET_EQUAL
        if out["outcomes"] != (want, want):
            bad.append(f"comparison outcomes {out['outcomes']}, data equal: {not dispute}")
        verdicts = out["verdicts"]
        if dispute and verdicts != (core.Verdict.ALICE_CORRECT,) * 2:
            bad.append(f"verdicts {verdicts} for Bob's lie")
        if not dispute and verdicts != (None, None):
            bad.append(f"verdicts {verdicts} without a dispute")
        if out["freezes"]:
            bad.append(f"{out['freezes']} runner(s) froze")
        meter = out.get("meter")
        if meter is None:  # the TCP carrier keeps raw frames, not a meter
            meter = traffic.TrafficMeter(p)
            for raw in out["wire"]:
                meter.note(frames.decode_frame(raw))
        if not (0 < meter.et_bits <= p.et_comm_bits):
            bad.append(f"comparison used {meter.et_bits} of {p.et_comm_bits} bits")
        if dispute and not (0 < meter.dr_bits <= p.dr_comm_bits):
            bad.append(f"dispute used {meter.dr_bits} of {p.dr_comm_bits} bits")
        if out["loaded"] is not None and out["loaded"] != (secret.alice, secret.bob, secret):
            bad.append("key files did not round-trip")
        out["counts"]["runners.freezes"] = out["freezes"]
        if dispute and "meter" in out:  # a cycle's traffic: its memory dispute sessions
            out["counts"]["traffic.et_bits"] = meter.et_bits
            out["counts"]["traffic.dr_bits"] = meter.dr_bits
        if sample:
            bad += self._reference_check(secret, out["submits"], data_a, data_b)
        return bad

    def _reference_check(self, secret, submits, data_a, data_b) -> list[str]:
        p = self.params
        bad = []
        for name, party, raw, data in (("alice", secret.alice, submits[0], data_a),
                                       ("bob", secret.bob, submits[1], data_b)):
            payload = raw[reference.FRAME_HEADER_BYTES:][: (p.digest_vector_bits + 7) // 8]
            got = reference.decrypt_submission(payload, party.otp_bits, p.subkey_count,
                                               p.subkey_bits)
            want = reference.digest_vector(party.subkeys, data.value, p.data_bits,
                                           p.subkey_bits)
            if got != want:
                bad.append(f"{name}'s decrypted digest vector differs from the reference")
        mac = secret.alice.mac
        tag = reference.frame_tag(submits[0], keys.ROLE_ALICE, mac.et_hash_key,
                                  mac.et_submit_pad, p.tag_bits)
        if tag != reference.carried_tag(submits[0]):
            bad.append("alice's submission tag differs from the reference")
        return bad

    def final_checks(self) -> tuple[int, list[str]]:
        return 0, []


# ------------------------------------------------------------ analysis

BATTERY = ("random-claim", "single-bit-flip", "best-collide", "exact-best",
           "overlap-guess", "copy-honest-vector")
BATTERY_TRIALS = 1000
EXACT_VIEWS = 50_000

# Known answers, pinned from the program as first benchmarked, so a fast
# path that lowers a computed bound fails a check instead of passing its
# own. verify_security(256, 2^-40) reports its attack bound as an exact
# Fraction of 669 characters; it is pinned by the SHA-256 of its str().
SECURITY_ATTACK_SHA256 = "62699368727e1d7522a976525b552775d1176534c82a41545ff9173f3b6efc55"
SECURITY_ARGMAX_T = 177
CHEAT_BOUND = {(6, 3, 2): Fraction(1, 4), (9, 3, 3): Fraction(37, 320)}
EXHAUSTIVE_MAX = Fraction(37, 320)  # optimum of the (9,3,3) game over all views
WILSON_Z = 2.5758293035489004  # two-sided 99%


def wilson_low(wins: int, trials: int, z: float = WILSON_Z) -> float:
    """Lower limit of the Wilson score interval for wins/trials."""
    phat = wins / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt((phat * (1 - phat) + z * z / (4 * trials)) / trials) / denom
    return max(0.0, center - half)


def check_security(report, epsilon: Fraction) -> list[str]:
    """verify_security(256, 2^-40) against its pinned answer."""
    bad = []
    digest = hashlib.sha256(str(report.attack_bound).encode()).hexdigest()
    if digest != SECURITY_ATTACK_SHA256 or report.attack_argmax_t != SECURITY_ARGMAX_T:
        bad.append(f"verify_security attack bound {float(report.attack_bound):.6g} at "
                   f"t={report.attack_argmax_t} differs from the pinned answer")
    if not report.attack_bound <= epsilon / 16:
        bad.append("verify_security attack bound above epsilon/16")
    if not report.ok:
        bad.append("verify_security(256, 2^-40) not ok")
    return bad


class AnalysisWorkload:
    rate_kinds = "abc"
    tail_quantile = 0.5  # a 20 s run has about 24 of op a, 12 of b and c
    labels = {"a": "verify_security_ms", "b": "attack_battery_ms", "c": "exact_sample_ms",
              "rate": "analysis_ops_per_s"}
    work_rates = (("attack_trials_per_s", "b", len(BATTERY) * BATTERY_TRIALS),
                  ("exact_views_per_s", "c", EXACT_VIEWS))
    kernels = {"a": "bignum", "b": "bytecode", "c": "numpy"}

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed

    def prepare(self) -> list[Op]:
        self.epsilon = Fraction(1, 2**40)
        self.game = params_mod.experimental_params(6, 3, 2)
        self.exact = params_mod.experimental_params(9, 3, 3)
        by_name = {s.name: s for s in adversary.ALL_STRATEGIES}
        missing = [n for n in BATTERY if n not in by_name]
        if missing:
            raise LookupError(f"strategies missing from the harness: {missing}")
        self.strategies = [by_name[n] for n in BATTERY]
        self.rng = random.Random(f"{self.name}/{self.seed}")
        # fill the difference and rank tables the timed ops use
        warm = random.Random(f"{self.name}/{self.seed}/warm-up")
        for strategy in self.strategies:
            adversary.play_game(self.game, strategy, 1, seed=warm.getrandbits(16))
        adversary.exact_game_value(self.exact, sample=1024, seed=warm.getrandbits(16))
        return []

    def cycle(self):
        """Yields each op as soon as it has run."""
        rng = self.rng
        # verify_security runs twice per cycle: its time tracks the speed
        # kernel less closely than the other ops do, so it needs more samples
        for _ in range(2):
            yield self._verify()

        seeds = [rng.getrandbits(16) for _ in self.strategies]
        start = perf_counter()
        games = [adversary.play_game(self.game, s, BATTERY_TRIALS, seed=seed)
                 for s, seed in zip(self.strategies, seeds)]
        t_battery = perf_counter() - start
        bound = CHEAT_BOUND[6, 3, 2]
        yield Op("b", t_battery, t_battery, check=lambda: [
            f"{g.strategy}: {g.wins}/{g.trials} outside the Wilson bound of {bound}"
            for g in games if g.trials != BATTERY_TRIALS or wilson_low(g.wins, g.trials) > bound])

        exact, t_exact = _timed(adversary.exact_game_value, self.exact,
                                sample=EXACT_VIEWS, seed=rng.getrandbits(32))
        bound = CHEAT_BOUND[9, 3, 3]
        ok = exact.views == EXACT_VIEWS and exact.max_value <= bound
        yield Op("c", t_exact, t_exact, check=lambda: [] if ok else [
            f"sampled exact value {exact.max_value} above {bound}"])

    def _verify(self) -> Op:
        report, seconds = _timed(bounds.verify_security, 256, self.epsilon)
        return Op("a", seconds, seconds, check=lambda: check_security(report, self.epsilon))

    def final_checks(self) -> tuple[int, list[str]]:
        """One exhaustive (9,3,3) game value against its known answer."""
        report = adversary.exact_game_value(self.exact)
        if report.exhaustive and report.max_value == EXHAUSTIVE_MAX:
            return 1, []
        return 1, [f"exhaustive (9,3,3) optimum {report.max_value}, want {EXHAUSTIVE_MAX}"]

    def close(self) -> None:
        pass


def make(name: str, seed: int, workdir: Path):
    """The workload. Its tail quantile is pinned: above the median, where
    a 20 s run at the program's first benchmarked speed leaves at least
    10 samples above it; the median where no quantile above it does."""
    if name == "corner-memory":
        return SessionWorkload(name, 256, Fraction(1, 16), False, 0.9, seed, workdir)
    if name == "bulk-memory":
        return SessionWorkload(name, 1 << 12, Fraction(1, 16), False, 0.5, seed, workdir)
    if name == "deploy":
        return SessionWorkload(name, 256, Fraction(1, 2**40), True, 0.75, seed, workdir)
    if name == "analysis":
        return AnalysisWorkload(name, seed, workdir)
    raise KeyError(name)


WORKLOADS = ("corner-memory", "bulk-memory", "deploy", "analysis")
