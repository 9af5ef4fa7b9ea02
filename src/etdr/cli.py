"""Command line interface.

Subcommands
-----------
params    derive and print the protocol parameters for a data size / risk pair
keygen    deal the three key files for one session
ttp       serve the referee for one session over TCP
party     run the comparison phase (in-process with all roles, or over TCP)
dispute   run a session through the dispute phase
bounds    security calculator: exact cheating bound and acceptance verdict
attack    adversarial game: Monte-Carlo strategies and exact per-view optima
selftest  quick end-to-end battery

Exit codes: 0 success, 2 parameters/usage, 3 key material or I/O,
4 authentication failure, 5 protocol state violation, 6 wire format,
7 session store integrity, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bits import Message
from .bounds import verify_security
from .errors import (
    EtdrError,
    FrameError,
    KeyMaterialError,
    ParameterError,
    ProtocolStateError,
    StoreIntegrityError,
)
from .params import Params, derive_params, experimental_params, parse_epsilon

EXIT_OK = 0
EXIT_SOFTWARE = 1
EXIT_PARAMS = 2
EXIT_KEYS = 3
EXIT_MAC = 4
EXIT_STATE = 5
EXIT_FRAME = 6
EXIT_STORE = 7

# freeze reasons carried in error frames -> exit codes
_FREEZE_EXIT = {1: EXIT_MAC, 2: EXIT_STATE, 3: EXIT_FRAME}

_ET_NAMES = {0: "equal", 1: "distinct"}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ParameterError):
        return EXIT_PARAMS
    if isinstance(exc, (KeyMaterialError, OSError)):
        return EXIT_KEYS
    if isinstance(exc, ProtocolStateError):
        return EXIT_STATE
    if isinstance(exc, FrameError):
        return EXIT_FRAME
    if isinstance(exc, StoreIntegrityError):
        return EXIT_STORE
    return EXIT_SOFTWARE


def _emit_pairs(pairs, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "value"])
        for name, value in pairs:
            writer.writerow([name, value])
        return
    width = max(len(name) for name, _ in pairs)
    for name, value in pairs:
        print(f"{name:<{width}}  {value}")


def _emit_table(header, rows, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        return
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(f"{c:<{w}}" for c, w in zip(r, widths)).rstrip())


def _parse_message(text: str, params: Params) -> Message:
    """@path for raw bytes (data size must be byte-aligned), otherwise an
    integer literal (decimal, 0x..., 0b...)."""
    if text.startswith("@"):
        data = Path(text[1:]).read_bytes()
        if params.data_bits % 8:
            raise ParameterError(
                "file input needs a byte-aligned data size; pass an integer"
            )
        if len(data) * 8 != params.data_bits:
            raise ParameterError(
                f"file is {len(data)} bytes, protocol fixed "
                f"{params.data_bits // 8}"
            )
        return Message.from_bytes(data)
    try:
        value = int(text, 0)
    except ValueError:
        raise ParameterError(f"message {text!r} is neither @file nor an integer")
    return Message(value, params.data_bits)


def _params_from_args(args) -> Params:
    experimental = args.shared_count is not None or args.subkey_bits is not None
    if experimental:
        if args.shared_count is None or args.subkey_bits is None:
            raise ParameterError(
                "experimental sizing needs both --shared-count and --subkey-bits"
            )
        eps = parse_epsilon(args.epsilon) if args.epsilon else None
        return experimental_params(
            args.data_bits, args.shared_count, args.subkey_bits, epsilon=eps
        )
    if not args.epsilon:
        raise ParameterError("need --epsilon (or an experimental sizing)")
    return derive_params(args.data_bits, parse_epsilon(args.epsilon))


def _host_port(text: str, default_port: int = 0) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port
    try:
        return host, int(port)
    except ValueError:
        raise ParameterError(f"bad address {text!r}, expected HOST:PORT")


# ------------------------------------------------------------- commands


def _param_pairs(p: Params):
    pairs = [
        ("data_bits", p.data_bits),
        ("epsilon", p.epsilon if p.epsilon is not None else "-"),
        ("shared_count", p.shared_count),
        ("subkey_bits", p.subkey_bits),
        ("subkey_count", p.subkey_count),
        ("tag_bits", p.tag_bits),
        ("digest_vector_bits", p.digest_vector_bits),
        ("per_party_key_bits", p.et_key_bits_per_party + p.sc_key_bits_per_party),
        ("total_key_bits", p.total_key_bits),
        ("comparison_budget_bits", p.et_comm_bits),
        ("dispute_budget_bits", p.dr_comm_bits),
    ]
    return pairs


def cmd_params(args) -> int:
    _emit_pairs(_param_pairs(_params_from_args(args)), args.format)
    return EXIT_OK


def cmd_keygen(args) -> int:
    from .etproto.keys import ROLE_NAMES, generate_keys, save_keys

    params = _params_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.key" for name in ("ttp", "alice", "bob")}
    if not args.force:
        for path in paths.values():
            if path.exists():
                raise KeyMaterialError(
                    f"{path} exists; --force to overwrite (keys are single-use)"
                )
    secret = generate_keys(params, seed=args.seed)
    save_keys(paths["ttp"], secret)
    save_keys(paths["alice"], secret.alice)
    save_keys(paths["bob"], secret.bob)
    print(f"session {secret.session_id.hex()}")
    for name, path in paths.items():
        print(f"{name}: {path}")
    if args.seed is not None:
        print("warning: seeded keys are reproducible; test use only", file=sys.stderr)
    return EXIT_OK


def _freeze_exit(tag: str, info) -> int:
    where = "detected locally" if info.local else "reported by peer"
    print(f"frozen {tag}: {info.reason_name} ({where}): {info.detail}")
    return _FREEZE_EXIT.get(info.reason, EXIT_SOFTWARE)


def cmd_ttp(args) -> int:
    from .etproto.keys import load_ttp_secret
    from .etproto.session import SessionStore
    from .transport.sockets import SocketTtpServer

    secret = load_ttp_secret(args.keys)
    store = SessionStore(args.store) if args.store else None
    host, port = _host_port(args.listen)
    with SocketTtpServer(
        secret, store=store, host=host, port=port, timeout=args.timeout
    ) as server:
        bound_host, bound_port = server.address
        print(f"listening {bound_host} {bound_port}", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{bound_host} {bound_port}\n")
        runner = server.runner
        deadline = time.monotonic() + args.wait
        done = False
        while time.monotonic() < deadline:
            if runner.frozen is not None:
                return _freeze_exit("ttp", runner.frozen)
            done = runner.record.has("et_outcome") and (
                not args.dispute or runner.record.has("dr_verdict")
            )
            if done:
                break
            time.sleep(0.05)
        if not done:
            raise FrameError(f"session did not complete within {args.wait}s")
        time.sleep(0.2)  # let the last announces flush before closing
        outcome = runner.record.get("et_outcome")[0]
        print(f"outcome: {_ET_NAMES[outcome]}")
        if args.dispute:
            from .etproto.core import Verdict

            verdict = Verdict(runner.record.get("dr_verdict")[0])
            print(f"verdict: {verdict.name}")
    return EXIT_OK


def _run_memory(args, dispute: bool) -> int:
    from .etproto.keys import load_ttp_secret
    from .etproto.session import SessionStore
    from .transport.channel import run_session

    secret = load_ttp_secret(args.keys)
    params = secret.params
    if args.message_a is None or args.message_b is None:
        raise ParameterError("memory carrier needs --message-a and --message-b")
    kwargs = {}
    if dispute:
        kwargs["dispute"] = True
        if args.claim_a:
            kwargs["claim_a"] = _parse_message(args.claim_a, params)
        if args.claim_b:
            kwargs["claim_b"] = _parse_message(args.claim_b, params)
    store = SessionStore(args.store) if args.store else None
    result = run_session(
        secret,
        _parse_message(args.message_a, params),
        _parse_message(args.message_b, params),
        store=store,
        **kwargs,
    )
    for tag, info in result.frozen.items():
        return _freeze_exit(tag, info)
    print(f"outcome: {_ET_NAMES[result.et_outcome_a]}")
    if dispute:
        print(f"verdict: {result.verdict_a.name}")
    if args.traffic:
        m = result.meter
        print(
            f"traffic: comparison={m.et_bits}/{params.et_comm_bits} "
            f"dispute={m.dr_bits}/{params.dr_comm_bits}"
        )
    return EXIT_OK


def _run_socket(args, dispute: bool) -> int:
    from .etproto.keys import load_party_keys
    from .transport.sockets import run_party_session

    if args.connect is None:
        raise ParameterError("socket carrier needs --connect HOST:PORT")
    if args.message is None:
        raise ParameterError("socket carrier needs --message")
    host, port = _host_port(args.connect)
    if port <= 0:
        raise ParameterError("--connect needs an explicit port")
    keys = load_party_keys(args.keys)
    params = keys.params
    message = _parse_message(args.message, params)
    claim_text = getattr(args, "claim", None)
    claim = _parse_message(claim_text, params) if claim_text else None
    runner, _ = run_party_session(
        keys,
        message,
        (host, port),
        dispute=dispute,
        claim=claim,
        timeout=args.timeout,
    )
    if runner.frozen is not None:
        return _freeze_exit("party", runner.frozen)
    print(f"outcome: {_ET_NAMES[runner.et_outcome]}")
    if dispute:
        print(f"verdict: {runner.verdict.name}")
    return EXIT_OK


def cmd_party(args, dispute: bool = False) -> int:
    if args.carrier == "memory":
        return _run_memory(args, dispute)
    return _run_socket(args, dispute)


def cmd_dispute(args) -> int:
    return cmd_party(args, dispute=True)


def cmd_bounds(args) -> int:
    report = verify_security(args.data_bits, parse_epsilon(args.epsilon))
    if args.rows:
        header = ["threshold", "cover", "tail", "product"]
        rows = [(t, c, m, prod) for t, c, m, prod in report.rows]
        _emit_table(header, rows, args.format)
        return EXIT_OK
    p = report.params
    pairs = _param_pairs(p) + [
        ("collision_q", report.collision_q),
        ("attack_bound", report.attack_bound),
        ("attack_bound_float", float(report.attack_bound)),
        ("attack_argmax_threshold", report.attack_argmax_t),
        ("round_target", report.round_target),
        ("attack_ok", report.attack_ok),
        ("cover_ok", report.cover_ok),
        ("chain_ok", report.chain_ok),
        ("ok", report.ok),
    ]
    _emit_pairs(pairs, args.format)
    return EXIT_OK


def cmd_attack(args) -> int:
    from . import adversary as adv

    params = experimental_params(args.data_bits, args.shared_count, args.subkey_bits)
    by_name = {s.name: s for s in adv.ALL_STRATEGIES}
    if not args.strategy or "all" in args.strategy:
        chosen = list(adv.ALL_STRATEGIES)
    else:
        unknown = [n for n in args.strategy if n not in by_name]
        if unknown:
            raise ParameterError(
                f"unknown strategies {unknown}; have {sorted(by_name)}"
            )
        chosen = [by_name[n] for n in args.strategy]

    header = [
        "strategy", "cheater", "trials", "wins", "rate",
        "wilson99_low", "wilson99_high", "cheat_bound", "within_bound",
    ]
    rows = []
    for strategy in chosen:
        res = adv.play_game(
            params, strategy, args.trials, seed=args.seed, cheater=args.cheater
        )
        lo, hi = res.wilson99
        rows.append([
            res.strategy, res.cheater, res.trials, res.wins,
            f"{res.rate:.6f}", f"{lo:.6f}", f"{hi:.6f}",
            res.cheat_bound, res.within_bound,
        ])
    _emit_table(header, rows, args.format)

    if args.exact:
        space = (1 << params.subkey_bits) ** params.subkey_count
        sample = None if space <= (1 << 20) else args.exact_sample
        report = adv.exact_game_value(params, sample=sample, seed=args.seed)
        scope = "all views" if report.exhaustive else f"{report.views} sampled views"
        print(f"exact ({scope}): mean={report.mean_value} "
              f"max={report.max_value} cheat_bound={report.cheat_bound} "
              f"within_bound={report.within_bound}")
        if not report.within_bound:
            return EXIT_SOFTWARE
    if all(row[-1] for row in rows):
        return EXIT_OK
    return EXIT_SOFTWARE


def cmd_selftest(args) -> int:
    from . import adversary as adv
    from .etproto.core import Verdict
    from .etproto.keys import generate_keys
    from .transport.channel import FaultPlan, run_session
    from .transport.sockets import SocketTtpServer, run_party_session

    t0 = time.perf_counter()

    def check(name: str, ok: bool) -> None:
        if not ok:
            raise ProtocolStateError(f"selftest failed: {name}")
        print(f"ok: {name}")

    p = derive_params(256, Fraction(1, 16))
    check(
        "parameter corner 256/2^-4",
        (p.shared_count, p.subkey_bits, p.subkey_count, p.total_key_bits,
         p.et_comm_bits, p.dr_comm_bits) == (24, 8, 48, 2048, 1028, 772),
    )
    p2 = derive_params(2**50, Fraction(1, 10**12))
    check(
        "parameter corner 2^50/1e-12",
        (p2.shared_count, p2.subkey_bits, p2.et_comm_bits) == (132, 50, 27860),
    )
    check("security verdict 256/2^-4", verify_security(256, Fraction(1, 16)).ok)

    secret = generate_keys(p, seed=1)
    m1 = Message(11, 256)
    m2 = Message(22, 256)
    equal = run_session(secret, m1, m1)
    check("comparison equal", equal.clean and equal.et_outcome_a == 0)
    secret = generate_keys(p, seed=2)
    liar = run_session(secret, m1, m2, dispute=True, claim_b=Message(33, 256))
    check(
        "dispute blames the liar",
        liar.clean and liar.verdict_a == Verdict.ALICE_CORRECT,
    )
    secret = generate_keys(p, seed=3)
    tampered = run_session(
        secret, m1, m1, fault_plan=FaultPlan(bit_flips={1: 100})
    )
    check(
        "tampering detected",
        bool(tampered.frozen)
        and tampered.et_outcome_a is None
        and tampered.et_outcome_b is None,
    )

    secret = generate_keys(p, seed=4)
    import threading

    runners = {}
    with SocketTtpServer(secret) as server:
        def drive(name, keys):
            runners[name] = run_party_session(keys, m1, server.address)[0]

        threads = [
            threading.Thread(target=drive, args=("alice", secret.alice)),
            threading.Thread(target=drive, args=("bob", secret.bob)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    check(
        "socket carrier",
        runners["alice"].et_outcome == 0 and runners["bob"].et_outcome == 0,
    )

    tiny = experimental_params(4, 2, 2)
    report = adv.exact_game_value(tiny)
    check(
        "exact game optimum 7/32",
        report.max_value == Fraction(7, 32) == report.cheat_bound,
    )
    game = adv.play_game(tiny, adv.BestCollide(), 2000, seed=5)
    check("game within bound", game.within_bound)

    print(f"selftest passed ({time.perf_counter() - t0:.1f}s)")
    return EXIT_OK


# --------------------------------------------------------------- parser


def _add_sizing(sub, epsilon_required: bool) -> None:
    sub.add_argument("--data-bits", type=int, required=True,
                     help="size of each party's data in bits")
    sub.add_argument("--epsilon", default="" if not epsilon_required else None,
                     required=epsilon_required,
                     help="cheating risk bound (1/16, 2^-10, 0.001)")
    if not epsilon_required:
        sub.add_argument("--shared-count", type=int, default=None,
                         help="experimental: size of the secret index overlap")
        sub.add_argument("--subkey-bits", type=int, default=None,
                         help="experimental: digest width per subkey")


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("text", "csv"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etdr",
        description="equality testing with unconditional security and "
                    "dispute resolution",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("params", help="derive protocol parameters")
    _add_sizing(sp, epsilon_required=False)
    _add_format(sp)
    sp.set_defaults(func=cmd_params)

    sp = subs.add_parser("keygen", help="deal key files for one session")
    _add_sizing(sp, epsilon_required=False)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=None,
                    help="deterministic keys; test use only")
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing key files")
    sp.set_defaults(func=cmd_keygen)

    sp = subs.add_parser("ttp", help="serve the referee over TCP")
    sp.add_argument("--keys", required=True, help="dealer key file")
    sp.add_argument("--listen", default="127.0.0.1:0", help="HOST:PORT")
    sp.add_argument("--store", default=None, help="session store directory")
    sp.add_argument("--dispute", action="store_true",
                    help="stay up through the dispute phase")
    sp.add_argument("--timeout", type=float, default=10.0,
                    help="per-connection timeout")
    sp.add_argument("--wait", type=float, default=30.0,
                    help="overall session deadline")
    sp.add_argument("--port-file", default=None,
                    help="write the bound address here once listening")
    sp.set_defaults(func=cmd_ttp)

    for name, func, blurb in (
        ("party", cmd_party, "run the comparison phase"),
        ("dispute", cmd_dispute, "run comparison plus dispute"),
    ):
        sp = subs.add_parser(name, help=blurb)
        sp.add_argument("--carrier", choices=("memory", "socket"),
                        default="memory")
        sp.add_argument("--keys", required=True,
                        help="dealer key file (memory) or party key file (socket)")
        sp.add_argument("--message-a", default=None,
                        help="memory carrier: first party's data (@file or int)")
        sp.add_argument("--message-b", default=None,
                        help="memory carrier: second party's data")
        sp.add_argument("--message", default=None,
                        help="socket carrier: this party's data")
        sp.add_argument("--connect", default=None,
                        help="socket carrier: referee HOST:PORT")
        sp.add_argument("--timeout", type=float, default=10.0)
        sp.add_argument("--store", default=None,
                        help="memory carrier: session store directory")
        sp.add_argument("--traffic", action="store_true",
                        help="memory carrier: print measured traffic")
        if name == "dispute":
            sp.add_argument("--claim-a", default=None,
                            help="memory carrier: first party's revealed claim")
            sp.add_argument("--claim-b", default=None,
                            help="memory carrier: second party's revealed claim")
            sp.add_argument("--claim", default=None,
                            help="socket carrier: this party's revealed claim")
        sp.set_defaults(func=func)

    sp = subs.add_parser("bounds", help="security calculator")
    sp.add_argument("--data-bits", type=int, required=True)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--rows", action="store_true",
                    help="print the per-threshold table instead of the summary")
    _add_format(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = subs.add_parser("attack", help="adversarial game harness")
    sp.add_argument("--data-bits", type=int, required=True)
    sp.add_argument("--shared-count", type=int, required=True)
    sp.add_argument("--subkey-bits", type=int, required=True)
    sp.add_argument("--strategy", action="append", default=[],
                    help="strategy name, repeatable; default all")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cheater", choices=("bob", "alice"), default="bob")
    sp.add_argument("--exact", action="store_true",
                    help="also compute exact per-view optima")
    sp.add_argument("--exact-sample", type=int, default=20000,
                    help="view sample size when the space is too big")
    _add_format(sp)
    sp.set_defaults(func=cmd_attack)

    sp = subs.add_parser("selftest", help="quick end-to-end battery")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EtdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KEYS


if __name__ == "__main__":
    sys.exit(main())
