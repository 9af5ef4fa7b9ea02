"""Command line interface.

Subcommands
-----------
params    derive and print the protocol parameters for a data size / risk pair
keygen    deal the three key files for one session
ttp       serve the referee for one session over TCP, any dispute included
party     one party over TCP: the comparison phase
dispute   one party over TCP: comparison, then the dispute
demo      all three roles in one process from the dealer's key file
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


def _claim(text: str | None, params: Params) -> Message | None:
    """A claim option, parsed; None where it is unset."""
    return None if text is None else _parse_message(text, params)


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


def _host_port(text: str) -> tuple[str, int]:
    """HOST:PORT or [HOST]:PORT, or a bare HOST on port 0 (any free port);
    a bare IPv6 host needs no brackets."""
    host, sep, port = text.rpartition(":")
    if not sep or ":" in host and not host.startswith("["):
        return text, 0
    try:
        return host.strip("[]"), int(port)
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
    from .transport.runners import ERR_FRAME, ERR_MAC, ERR_STATE

    # freeze reasons carried in error frames -> exit codes
    exits = {ERR_MAC: EXIT_MAC, ERR_STATE: EXIT_STATE, ERR_FRAME: EXIT_FRAME}
    where = "detected locally" if info.local else "reported by peer"
    print(f"frozen {tag}: {info.reason_name} ({where}): {info.detail}")
    return exits.get(info.reason, EXIT_SOFTWARE)


def _report(tag: str, frozen, outcome: int | None, verdict) -> int:
    """Print a session's freeze, or its outcome and any verdict."""
    from .etproto.core import ET_EQUAL

    if frozen is not None:
        return _freeze_exit(tag, frozen)
    print(f"outcome: {'equal' if outcome == ET_EQUAL else 'distinct'}")
    if verdict is not None:
        print(f"verdict: {verdict.name}")
    return EXIT_OK


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
        host, port = server.address[:2]
        print(f"listening {host} {port}", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{host} {port}\n")
        server.wait_until(lambda r: server.finished, args.wait)
        runner = server.runner
        dispute_open = runner.disputed and runner.verdict is None
        if runner.frozen is None and (runner.et_outcome is None or dispute_open):
            raise FrameError(f"session did not complete within {args.wait}s")
        return _report("ttp", runner.frozen, runner.et_outcome, runner.verdict)


def cmd_party(args) -> int:
    """One party over TCP: the comparison and, for `etdr dispute`, the
    dispute."""
    from .etproto.keys import load_party_keys
    from .transport.sockets import run_party_session

    host, port = _host_port(args.connect)
    if port <= 0:
        raise ParameterError("--connect needs an explicit port")
    keys = load_party_keys(args.keys)
    params = keys.params
    message = _parse_message(args.message, params)
    claim = _claim(args.claim, params)
    runner, _ = run_party_session(
        keys, message, (host, port), dispute=args.dispute, claim=claim,
        timeout=args.timeout,
    )
    return _report("party", runner.frozen, runner.et_outcome, runner.verdict)


def cmd_demo(args) -> int:
    """All three roles in one process; a claim implies the dispute."""
    from .etproto.keys import load_ttp_secret
    from .transport.channel import run_session

    secret = load_ttp_secret(args.keys)
    params = secret.params
    claim_a, claim_b = (_claim(text, params) for text in (args.claim_a, args.claim_b))
    result = run_session(
        secret,
        _parse_message(args.message_a, params),
        _parse_message(args.message_b, params),
        dispute=args.dispute or claim_a is not None or claim_b is not None,
        claim_a=claim_a,
        claim_b=claim_b,
    )
    tag, frozen = next(iter(result.frozen.items()), ("party", None))
    code = _report(tag, frozen, result.et_outcome_a, result.verdict_a)
    if code == EXIT_OK:
        m = result.meter
        print(
            f"traffic: comparison={m.et_bits}/{params.et_comm_bits} "
            f"dispute={m.dr_bits}/{params.dr_comm_bits}"
        )
    return code


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
    if params.data_bits > adv.MAX_EXACT_DATA_BITS:
        # fail before any game is played, not after the first rows
        blocked = [s.name for s in chosen if s.enumerates_differences]
        blocked += ["--exact"] if args.exact else []
        if blocked:
            playable = [s.name for s in adv.ALL_STRATEGIES if not s.enumerates_differences]
            raise ParameterError(
                f"{', '.join(blocked)} enumerate difference space, capped at "
                f"{adv.MAX_EXACT_DATA_BITS} data bits; at {params.data_bits} "
                f"data bits play only {', '.join(playable)}"
            )

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


def _add_sizing(sub) -> None:
    sub.add_argument("--data-bits", type=int, required=True,
                     help="size of each party's data in bits")
    sub.add_argument("--epsilon", default="",
                     help="cheating risk bound (1/16, 2^-10, 0.001)")
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
    _add_sizing(sp)
    _add_format(sp)
    sp.set_defaults(func=cmd_params)

    sp = subs.add_parser("keygen", help="deal key files for one session")
    _add_sizing(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=None,
                    help="deterministic keys; test use only")
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing key files")
    sp.set_defaults(func=cmd_keygen)

    sp = subs.add_parser("ttp", help="serve the referee over TCP")
    sp.add_argument("--keys", required=True, help="dealer key file")
    sp.add_argument("--listen", default="127.0.0.1:0",
                    help="HOST:PORT or [HOST]:PORT")
    sp.add_argument("--store", default=None, help="session store directory")
    sp.add_argument("--timeout", type=float, default=10.0,
                    help="seconds a connection may stay silent before it is "
                    "dropped; also the limit on one send")
    sp.add_argument("--wait", type=float, default=30.0,
                    help="overall session deadline; the referee stops sooner "
                    "once it has delivered a verdict, a freeze's error reports, "
                    "or an outcome with no party left connected")
    sp.add_argument("--port-file", default=None,
                    help="write the bound address here once listening")
    sp.set_defaults(func=cmd_ttp)

    for name, blurb in (
        ("party", "one party over TCP: the comparison phase"),
        ("dispute", "one party over TCP: comparison plus dispute"),
    ):
        sp = subs.add_parser(name, help=blurb)
        sp.add_argument("--keys", required=True, help="this party's key file")
        sp.add_argument("--connect", required=True,
                        help="referee HOST:PORT or [HOST]:PORT")
        sp.add_argument("--message", required=True,
                        help="this party's data (@file or int)")
        sp.add_argument("--timeout", type=float, default=10.0,
                        help="seconds to wait for the referee")
        if name == "dispute":
            sp.add_argument("--claim", default=None,
                            help="this party's revealed claim; default its data")
        sp.set_defaults(func=cmd_party, dispute=name == "dispute", claim=None)

    sp = subs.add_parser("demo", help="run all three roles in one process")
    sp.add_argument("--keys", required=True, help="dealer key file")
    sp.add_argument("--message-a", required=True,
                    help="first party's data (@file or int)")
    sp.add_argument("--message-b", required=True, help="second party's data")
    sp.add_argument("--dispute", action="store_true",
                    help="run the dispute after the comparison")
    sp.add_argument("--claim-a", default=None,
                    help="first party's revealed claim; implies --dispute")
    sp.add_argument("--claim-b", default=None,
                    help="second party's revealed claim; implies --dispute")
    sp.set_defaults(func=cmd_demo)

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
    except (EtdrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
