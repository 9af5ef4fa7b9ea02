"""CLI surface: argument handling, output formats, exit codes, and the
multi-process socket flow."""

import csv
import hashlib
import io
import os
import re
import socket
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from etdr.bits import Message
from etdr.cli import _freeze_exit, _host_port, main
from etdr.errors import ParameterError
from etdr.etproto.keys import load_party_keys, load_ttp_secret
from etdr.transport.frames import Frame, MsgType, encode_frame
from etdr.transport.runners import ERR_MAC
from etdr.transport.sockets import SocketTtpServer, run_party_session

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """Environment for a child interpreter that imports etdr from this
    checkout's ``src``, whatever its working directory."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, inherited]) if inherited else src
    return env


def project_table():
    """The ``[project]`` table of this checkout's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def console_script(name):
    """The ``module:attr`` of the ``[project.scripts]`` entry ``name`` in
    this checkout's pyproject.toml, as a (module, attr) pair."""
    module, _, attr = project_table()["scripts"][name].partition(":")
    return module, attr


def parse_pairs(text):
    pairs = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        name, _, value = line.partition("  ")
        pairs[name.strip()] = value.strip()
    return pairs


# ------------------------------------------------------------ params


def test_params_corner_values(capsys):
    code, out, _ = run_cli(["params", "--data-bits", "256", "--epsilon", "2^-4"], capsys)
    assert code == 0
    got = parse_pairs(out)
    assert got["shared_count"] == "24"
    assert got["subkey_bits"] == "8"
    assert got["subkey_count"] == "48"
    assert got["total_key_bits"] == "2048"
    assert got["comparison_budget_bits"] == "1028"
    assert got["dispute_budget_bits"] == "772"


def test_params_csv(capsys):
    code, out, _ = run_cli(
        ["params", "--data-bits", "256", "--epsilon", "1/16", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = dict(list(csv.reader(io.StringIO(out)))[1:])
    assert rows["total_key_bits"] == "2048"


def test_params_experimental_sizing(capsys):
    code, out, _ = run_cli(
        ["params", "--data-bits", "6", "--shared-count", "2", "--subkey-bits", "2"],
        capsys,
    )
    assert code == 0
    got = parse_pairs(out)
    assert got["subkey_count"] == "4"
    assert got["epsilon"] == "-"


def test_params_errors(capsys):
    assert run_cli(["params", "--data-bits", "100", "--epsilon", "1/16"], capsys)[0] == 2
    assert run_cli(["params", "--data-bits", "256", "--epsilon", "junk"], capsys)[0] == 2
    assert run_cli(["params", "--data-bits", "256"], capsys)[0] == 2
    assert run_cli(
        ["params", "--data-bits", "6", "--shared-count", "2"], capsys
    )[0] == 2



@pytest.mark.parametrize("epsilon", ["1/0", "inf"])
@pytest.mark.parametrize("command", ["params", "bounds", "keygen"])
def test_unparsable_epsilon_exits_2(command, epsilon, capsys, tmp_path):
    extra = ["--out", str(tmp_path / "keys")] if command == "keygen" else []
    argv = [command, "--data-bits", "256", "--epsilon", epsilon, *extra]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: cannot parse epsilon {epsilon!r}\n"

# ------------------------------------------------------------ keygen


def test_keygen_writes_loadable_files(tmp_path, capsys):
    out_dir = tmp_path / "keys"
    code, out, err = run_cli(
        ["keygen", "--data-bits", "256", "--epsilon", "1/16",
         "--out", str(out_dir), "--seed", "7"],
        capsys,
    )
    assert code == 0
    assert "test use only" in err
    secret = load_ttp_secret(out_dir / "ttp.key")
    alice = load_party_keys(out_dir / "alice.key")
    assert secret.session_id.hex() in out
    assert alice.session_id == secret.session_id
    assert alice.subkeys == secret.alice.subkeys


def test_keygen_seed_reproducible(tmp_path, capsys):
    for name in ("one", "two"):
        assert run_cli(
            ["keygen", "--data-bits", "256", "--epsilon", "1/16",
             "--out", str(tmp_path / name), "--seed", "3"],
            capsys,
        )[0] == 0
    a = (tmp_path / "one" / "ttp.key").read_bytes()
    b = (tmp_path / "two" / "ttp.key").read_bytes()
    assert a == b


def test_keygen_refuses_overwrite(tmp_path, capsys):
    args = ["keygen", "--data-bits", "256", "--epsilon", "1/16",
            "--out", str(tmp_path)]
    assert run_cli(args, capsys)[0] == 0
    assert run_cli(args, capsys)[0] == 3
    assert run_cli(args + ["--force"], capsys)[0] == 0


def test_keygen_writes_files_only_their_owner_reads(tmp_path, capsys):
    # key files hold one-time pads and MAC keys; a forced overwrite
    # replaces a world-readable file with an owner-only one, same bytes
    args = ["keygen", "--data-bits", "256", "--epsilon", "1/16",
            "--out", str(tmp_path), "--seed", "7"]
    assert run_cli(args, capsys)[0] == 0
    paths = sorted(tmp_path.glob("*.key"))
    assert len(paths) == 3
    assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [0o600] * 3
    written = [path.read_bytes() for path in paths]
    for path in paths:
        path.chmod(0o644)
    assert run_cli(args + ["--force"], capsys)[0] == 0
    assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [0o600] * 3
    assert [path.read_bytes() for path in paths] == written


def test_keygen_refuses_a_tag_over_the_wire_limit(tmp_path, capsys):
    # 2^-165 at r = 256 needs 515-bit tags; frames carry at most 64 bytes
    code, _, err = run_cli(
        ["keygen", "--data-bits", "256", "--epsilon", "2^-165",
         "--out", str(tmp_path / "k")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and "tag" in err
    assert not (tmp_path / "k").exists()  # refused before the directory is made


# -------------------------------------------- in-process carrier (demo)


@pytest.fixture()
def keydir(tmp_path):
    code = main(["keygen", "--data-bits", "256", "--epsilon", "1/16",
                 "--out", str(tmp_path / "k"), "--seed", "11"])
    assert code == 0
    return tmp_path / "k"


def test_party_memory_equal(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", "0xabc", "--message-b", "0xabc"],
        capsys,
    )
    assert code == 0
    assert "outcome: equal" in out
    assert "comparison=900/1028" in out


def test_party_memory_distinct(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", "1", "--message-b", "2"],
        capsys,
    )
    assert code == 0
    assert "outcome: distinct" in out


def test_dispute_memory_blames_liar(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", "1", "--message-b", "2", "--claim-b", "3"],
        capsys,
    )
    assert code == 0
    assert "verdict: ALICE_CORRECT" in out
    assert "dispute=644/772" in out


def test_dispute_memory_matching_claims(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", "1", "--message-b", "2", "--claim-b", "1"],
        capsys,
    )
    assert code == 0
    assert "verdict: BOTH_CONSISTENT" in out


def test_demo_dispute_without_claims_reveals_each_partys_data(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--dispute", "--message-a", "1", "--message-b", "1"],
        capsys,
    )
    assert code == 0
    assert "verdict: BOTH_CONSISTENT" in out


def test_party_memory_requires_both_messages(keydir, capsys):
    capsys.readouterr()
    code, _, err = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"), "--message-a", "1"],
        capsys,
    )
    assert code == 2 and "message-b" in err


@pytest.mark.parametrize(
    "command, misplaced",
    [(command, option)
     for command in ("party", "dispute")
     for option in (["--store", "x"], ["--traffic"], ["--message-a", "5"],
                    ["--message-b", "5"], ["--claim-a", "5"], ["--claim-b", "5"])]
    + [("demo", option)
       for option in (["--message", "5"], ["--claim", "5"],
                      ["--connect", "127.0.0.1:1"])],
)
def test_option_of_the_other_carrier_exits_2(keydir, capsys, command, misplaced):
    # each command takes only its own carrier's options, so none is dropped
    valid = {
        "party": ["--keys", str(keydir / "alice.key"),
                  "--connect", "127.0.0.1:1", "--message", "1"],
        "demo": ["--keys", str(keydir / "ttp.key"),
                 "--message-a", "1", "--message-b", "1"],
    }
    valid["dispute"] = valid["party"]
    capsys.readouterr()
    code, out, err = run_cli([command, *valid[command], *misplaced], capsys)
    assert code == 2 and out == ""
    assert misplaced[0] in err


def test_party_rejects_party_keyfile_for_memory(keydir, capsys):
    capsys.readouterr()
    code, _, _ = run_cli(
        ["demo", "--keys", str(keydir / "alice.key"),
         "--message-a", "1", "--message-b", "1"],
        capsys,
    )
    assert code == 3


def test_message_file_input(keydir, tmp_path, capsys):
    capsys.readouterr()
    blob = tmp_path / "m.bin"
    blob.write_bytes(bytes(range(32)))
    code, out, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", f"@{blob}", "--message-b", f"@{blob}"],
        capsys,
    )
    assert code == 0 and "outcome: equal" in out

    short = tmp_path / "short.bin"
    short.write_bytes(b"xy")
    code, _, err = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", f"@{short}", "--message-b", "1"],
        capsys,
    )
    assert code == 2 and "bytes" in err


def test_message_must_be_integer_or_file(keydir, capsys):
    capsys.readouterr()
    code, _, _ = run_cli(
        ["demo", "--keys", str(keydir / "ttp.key"),
         "--message-a", "hello", "--message-b", "1"],
        capsys,
    )
    assert code == 2


def test_missing_key_file(capsys):
    code, _, _ = run_cli(
        ["demo", "--keys", "/does/not/exist.key",
         "--message-a", "1", "--message-b", "1"],
        capsys,
    )
    assert code == 3


# ------------------------------------------------------------ bounds


def test_bounds_summary(capsys):
    code, out, _ = run_cli(
        ["bounds", "--data-bits", "256", "--epsilon", "2^-4"], capsys
    )
    assert code == 0
    got = parse_pairs(out)
    assert got["collision_q"] == "31/256"
    assert got["attack_argmax_threshold"] == "32"
    assert got["ok"] == "True"
    assert got["attack_bound_float"].startswith("1.83651500897219")


def test_bounds_rows_csv(capsys):
    code, out, _ = run_cli(
        ["bounds", "--data-bits", "256", "--epsilon", "2^-4",
         "--rows", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["threshold", "cover", "tail", "product"]
    assert len(rows) - 1 == 25  # thresholds n..N inclusive
    assert rows[1][0] == "24" and rows[-1][0] == "48"


@pytest.mark.parametrize("extra, want", [
    (["--rows", "--format", "csv"],
     "76a86517cc38a937f5124cc2beb5354a1445173cf9c7c80e2c1c8b5863130861"),
    ([], "2459b24405dfc67652996581fc72806c6c00983682f07e41591e2b9f83c90a42"),
])
def test_bounds_output_pinned(extra, want, capsys):
    # SHA-256 of the stdout of `etdr bounds` at 256 / 2^-40, pinned from
    # the calculator that summed one Fraction term per binomial term
    code, out, _ = run_cli(
        ["bounds", "--data-bits", "256", "--epsilon", "2^-40", *extra], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


# ------------------------------------------------------------ attack


def test_attack_csv_all_strategies(capsys):
    code, out, _ = run_cli(
        ["attack", "--data-bits", "4", "--shared-count", "2",
         "--subkey-bits", "2", "--trials", "400", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    names = {r[0] for r in rows[1:]}
    assert "best-collide" in names and "exact-best" in names
    assert all(r[-1] == "True" for r in rows[1:])
    assert all(r[7] == "7/32" for r in rows[1:])


def test_attack_wide_game(capsys):
    # too wide for the game's digest table: every strategy builds its
    # claim from a root set and hashes every digest vector
    import etdr.adversary as adv

    code, out, _ = run_cli(
        ["attack", "--data-bits", "64", "--shared-count", "3",
         "--subkey-bits", "8", "--trials", "100", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == [s.name for s in adv.ALL_STRATEGIES]
    assert all(r[-1] == "True" for r in rows[1:])


def test_attack_exact_walks_every_view_unless_asked_to_sample(capsys, monkeypatch):
    # 256^48 subkey tuples at the paper's corner, but 147,273 profiles:
    # --exact asks for the exhaustive walk, and only --exact-sample samples
    import etdr.adversary as adv

    asked = []

    def game_value(params, *, sample=None, seed=0):
        asked.append(sample)
        return adv.ExactReport(params, Fraction(1), Fraction(0), Fraction(0), 1, sample is None)

    monkeypatch.setattr(adv, "exact_game_value", game_value)
    corner = ["attack", "--data-bits", "256", "--shared-count", "24", "--subkey-bits", "8",
              "--trials", "1", "--strategy", "random-claim"]
    for extra, scope in [(["--exact"], "all views"),
                         (["--exact-sample", "5"], "1 sampled views")]:
        code, out, err = run_cli([*corner, *extra], capsys)
        assert code == 0, err
        assert out.splitlines()[-1].startswith(f"exact ({scope}): ")
    assert asked == [None, 5]


def test_attack_wide_game_plays_the_exact_game(capsys):
    # the exact game scores views by their profiles, not difference space,
    # so it plays at any size; of 256^6 views it samples 2000, and each of
    # them attains the bound
    code, out, err = run_cli(
        ["attack", "--data-bits", "64", "--shared-count", "3",
         "--subkey-bits", "8", "--trials", "100", "--strategy", "random-claim",
         "--exact", "--exact-sample", "2000", "--seed", "3"],
        capsys,
    )
    assert code == 0, err
    assert out.splitlines()[-1] == (
        "exact (2000 sampled views): mean=1/20 max=1/20 cheat_bound=1/20 within_bound=True"
    )


def test_attack_exact_report(capsys):
    code, out, _ = run_cli(
        ["attack", "--data-bits", "4", "--shared-count", "2",
         "--subkey-bits", "2", "--trials", "200",
         "--strategy", "best-collide", "--exact"],
        capsys,
    )
    assert code == 0
    assert "mean=163/1024" in out
    assert "max=7/32" in out


def test_attack_refuses_an_empty_exact_sample(capsys):
    code, out, err = run_cli(
        ["attack", "--data-bits", "12", "--shared-count", "4",
         "--subkey-bits", "3", "--trials", "10", "--strategy", "random-claim",
         "--exact", "--exact-sample", "0"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "sampled view" in err



def test_attack_refuses_a_negative_sampled_seed(capsys):
    code, out, err = run_cli(
        ["attack", "--data-bits", "6", "--shared-count", "4",
         "--subkey-bits", "4", "--trials", "10", "--strategy", "random-claim",
         "--exact", "--exact-sample", "10", "--seed", "-1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "non-negative seed" in err

def test_attack_refuses_a_sampled_game_past_63_subkey_bits(capsys):
    code, out, err = run_cli(
        ["attack", "--data-bits", "8", "--shared-count", "2",
         "--subkey-bits", "64", "--trials", "10", "--strategy", "random-claim",
         "--exact-sample", "10"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "at most 63 bits" in err


def test_attack_plays_a_game_whose_collision_bound_passes_one(capsys):
    # 4 data bits in one-bit blocks: collision_bound is 3/2, clamped to 1
    code, out, err = run_cli(
        ["attack", "--data-bits", "4", "--shared-count", "1",
         "--subkey-bits", "1", "--trials", "10", "--strategy", "random-claim"],
        capsys,
    )
    assert code == 0, err
    row = out.splitlines()[1].split()
    assert row[0] == "random-claim" and row[-2:] == ["1", "True"]


def test_attack_unknown_strategy(capsys):
    code, _, _ = run_cli(
        ["attack", "--data-bits", "4", "--shared-count", "2",
         "--subkey-bits", "2", "--strategy", "nope"],
        capsys,
    )
    assert code == 2


# ------------------------------------------------------------ socket


def test_socket_party_times_out_without_peer(keydir, capsys):
    secret = load_ttp_secret(keydir / "ttp.key")
    with SocketTtpServer(secret, timeout=5.0) as server:
        host, port = server.address
        capsys.readouterr()
        code, _, err = run_cli(
            ["party", "--keys", str(keydir / "alice.key"),
             "--connect", f"{host}:{port}", "--message", "1",
             "--timeout", "0.6"],
            capsys,
        )
    assert code == 6
    assert "timed out" in err


def test_socket_connect_needs_port(keydir, capsys):
    capsys.readouterr()
    code, _, _ = run_cli(
        ["party", "--keys", str(keydir / "alice.key"),
         "--connect", "127.0.0.1", "--message", "1"],
        capsys,
    )
    assert code == 2


def test_socket_flow_three_processes(keydir, tmp_path):
    env_dir = str(keydir)
    port_file = tmp_path / "port.txt"
    store = tmp_path / "store"
    env = child_env()
    ttp = subprocess.Popen(
        [sys.executable, "-m", "etdr.cli", "ttp",
         "--keys", f"{env_dir}/ttp.key",
         "--store", str(store), "--port-file", str(port_file),
         "--wait", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        deadline = time.monotonic() + 10
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        host, port = port_file.read_text().split()

        def party(role, message, claim):
            return subprocess.run(
                [sys.executable, "-m", "etdr.cli", "dispute",
                 "--keys", f"{env_dir}/{role}.key",
                 "--connect", f"{host}:{port}", "--message", message,
                 "--claim", claim],
                capture_output=True, text=True, timeout=20, env=env,
            )

        results = {}

        def run_alice():
            results["alice"] = party("alice", "0x1234", "0x1234")

        thread = threading.Thread(target=run_alice)
        thread.start()
        results["bob"] = party("bob", "0x9999", "0x4444")
        thread.join(timeout=20)
        ttp_out, _ = ttp.communicate(timeout=20)
    finally:
        if ttp.poll() is None:
            ttp.kill()

    assert ttp.returncode == 0
    assert "outcome: distinct" in ttp_out
    assert "verdict: ALICE_CORRECT" in ttp_out
    for name in ("alice", "bob"):
        assert results[name].returncode == 0, results[name].stderr
        assert "verdict: ALICE_CORRECT" in results[name].stdout
    records = [p for p in store.iterdir() if p.suffix == ".rec"]
    assert len(records) == 1


def test_socket_frozen_ttp_serves_its_report_to_a_party_that_connects_later(keydir, tmp_path):
    # an impostor's forged ET_SUBMIT_B freezes `etdr ttp` before Bob has
    # connected; the referee keeps serving, so Bob's authentic submission
    # binds his connection and he sees the freeze, not a closed socket
    secret = load_ttp_secret(keydir / "ttp.key")
    p = secret.params
    port_file = tmp_path / "port.txt"
    env = child_env()
    ttp = subprocess.Popen(
        [sys.executable, "-m", "etdr.cli", "ttp", "--keys", str(keydir / "ttp.key"),
         "--port-file", str(port_file), "--wait", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        deadline = time.monotonic() + 10
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        host, port = port_file.read_text().split()
        tag = bytes((p.tag_bits + 7) // 8)
        forged = Frame(MsgType.ET_SUBMIT_B, secret.session_id,
                       bytes(p.digest_vector_bits // 8), tag)
        with socket.create_connection((host, int(port)), timeout=10) as impostor:
            impostor.sendall(encode_frame(forged))
            # Alice returns only once the referee has frozen and reported to her
            alice, _ = run_party_session(
                load_party_keys(keydir / "alice.key"), Message(1, p.data_bits),
                (host, int(port)), timeout=10)
        assert alice.frozen.reason == ERR_MAC and not alice.frozen.local
        bob = subprocess.run(
            [sys.executable, "-m", "etdr.cli", "party",
             "--keys", str(keydir / "bob.key"), "--connect", f"{host}:{port}",
             "--message", "1", "--timeout", "10"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        ttp_out, _ = ttp.communicate(timeout=20)
    finally:
        if ttp.poll() is None:
            ttp.kill()
    assert bob.returncode == 4, bob.stderr
    assert "frozen party: mac (reported by peer)" in bob.stdout
    assert ttp.returncode == 4
    assert "frozen ttp: mac (detected locally)" in ttp_out


@pytest.fixture()
def spawn():
    """Start ``python -m etdr.cli ARGV...`` from this checkout, output piped;
    a process still running at teardown is killed."""
    procs = []

    def start(*argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "etdr.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        )
        procs.append(proc)
        return proc

    yield start
    for proc in procs:
        if proc.returncode is None:
            proc.kill()
            proc.communicate()


def start_ttp(spawn, keydir, *extra):
    """`etdr ttp` with short deadlines; returns it and its address as
    --connect takes it."""
    ttp = spawn("ttp", "--keys", str(keydir / "ttp.key"),
                "--timeout", "5", "--wait", "30", *extra)
    _, host, port = ttp.stdout.readline().split()
    return ttp, f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def start_party(spawn, keydir, command, role, address, message, *extra):
    return spawn(command, "--keys", str(keydir / f"{role}.key"), "--connect", address,
                 "--message", message, "--timeout", "10", *extra)


def finish(*procs):
    """Wait for each process; (exit code, stdout, stderr) per process."""
    outputs = [p.communicate(timeout=60) for p in procs]
    return [(p.returncode, *out) for p, out in zip(procs, outputs)]


def test_socket_ttp_stops_once_comparing_parties_disconnect(keydir, spawn):
    t0 = time.monotonic()
    ttp, address = start_ttp(spawn, keydir)
    alice = start_party(spawn, keydir, "party", "alice", address, "1")
    bob = start_party(spawn, keydir, "party", "bob", address, "1")
    results = finish(alice, bob, ttp)
    # --wait is 30 s: the referee stopped on its own, not at the deadline
    assert time.monotonic() - t0 < 15
    for code, out, err in results:
        assert code == 0, err
        assert "outcome: equal" in out and "verdict" not in out


def test_socket_ttp_exits_6_when_only_one_party_disputes(keydir, spawn):
    ttp, address = start_ttp(spawn, keydir)
    alice = start_party(spawn, keydir, "dispute", "alice", address, "1")
    bob = start_party(spawn, keydir, "party", "bob", address, "2")
    (_, _, _), (bob_code, bob_out, _), (ttp_code, _, ttp_err) = finish(alice, bob, ttp)
    assert bob_code == 0 and "outcome: distinct" in bob_out
    assert ttp_code == 6
    assert "session did not complete" in ttp_err


def test_socket_ttp_restarted_over_a_recorded_comparison_serves_the_dispute(
    keydir, tmp_path, spawn
):
    store = str(tmp_path / "store")
    ttp, address = start_ttp(spawn, keydir, "--store", store)
    compared = finish(
        start_party(spawn, keydir, "party", "alice", address, "1"),
        start_party(spawn, keydir, "party", "bob", address, "2"),
        ttp,
    )
    assert [code for code, _, _ in compared] == [0, 0, 0]
    ttp, address = start_ttp(spawn, keydir, "--store", store)
    alice = start_party(spawn, keydir, "dispute", "alice", address, "1")
    bob = start_party(spawn, keydir, "dispute", "bob", address, "2", "--claim", "3")
    for code, out, err in finish(alice, bob, ttp):
        assert code == 0, err
        assert "outcome: distinct" in out and "verdict: ALICE_CORRECT" in out


def test_socket_flow_over_ipv6(keydir, spawn):
    if not socket.has_ipv6:
        pytest.skip("no IPv6 support")
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError as exc:
        pytest.skip(f"cannot bind ::1: {exc}")
    ttp, address = start_ttp(spawn, keydir, "--listen", "[::1]:0")
    assert address.startswith("[::1]:")
    alice = start_party(spawn, keydir, "party", "alice", address, "7")
    bob = start_party(spawn, keydir, "party", "bob", address, "7")
    for code, out, err in finish(alice, bob, ttp):
        assert code == 0, err
        assert "outcome: equal" in out


def test_socket_address_parsing():
    assert _host_port("127.0.0.1:80") == ("127.0.0.1", 80)
    assert _host_port("localhost") == ("localhost", 0)
    assert _host_port("[::1]:80") == ("::1", 80)
    assert _host_port("::1") == ("::1", 0)
    with pytest.raises(ParameterError):
        _host_port("[::1]:http")


def test_console_script_installed():
    """The ``etdr`` console script declared in pyproject.toml starts in its
    own process, dispatches to its entry point and exits with that entry
    point's return code.

    "Installed" means the script as pip installs it: the child runs the
    wrapper pip generates for a console script, with the entry point read
    from ``[project.scripts]``. So the test holds with or without
    ``pip install``, and with no ``etdr`` on PATH.
    """
    module, attr = console_script("etdr")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'etdr'\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "params", "--data-bits", "256", "--epsilon", "2^-4"],
        capture_output=True, text=True, timeout=30, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "2048" in proc.stdout, proc.stderr


def test_runtime_needs_numpy_only():
    """Every etdr module imports, and the security calculator runs, in an
    interpreter where mpmath cannot be imported."""
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import etdr\n"
        "for info in pkgutil.walk_packages(etdr.__path__, 'etdr.'):\n"
        "    importlib.import_module(info.name)\n"
        "    print(info.name)\n"
        "from fractions import Fraction\n"
        "from etdr.bounds import verify_security\n"
        "print('ok', verify_security(256, Fraction(1, 16)).ok)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert {"etdr.bounds", "etdr.adversary", "etdr.cli",
            "etdr.transport.sockets"} <= set(lines)
    assert lines[-1] == "ok True"
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
             for dep in project_table()["dependencies"]]
    assert names == ["numpy"]


def test_mac_freeze_exits_4(capsys):
    from etdr.transport.runners import FreezeInfo

    info = FreezeInfo(ERR_MAC, "bad tag", local=True)
    assert _freeze_exit("party", info) == 4
    assert "frozen party: mac (detected locally): bad tag" in capsys.readouterr().out


# ---------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "selftest passed" in out
    assert out.count("ok: ") == 9


def test_selftest_and_small_games_import_no_numpy():
    # numpy serves only sampled exact games and digest vectors too large
    # for the list path; the self-test and a tabulated game use neither
    script = (
        "import sys\n"
        "from etdr.cli import main\n"
        "from etdr.adversary import BestCollide, exact_game_value, play_game\n"
        "from etdr.params import experimental_params\n"
        "assert main(['selftest']) == 0\n"
        "params = experimental_params(6, 3, 2)\n"
        "play_game(params, BestCollide(), 200)\n"
        "print('numpy' in sys.modules)\n"
        "exact_game_value(params, sample=100, seed=1)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]


def loaded_etdr_modules(module):
    """The etdr modules a fresh interpreter holds after importing module."""
    script = (
        "import importlib, sys\n"
        f"importlib.import_module({module!r})\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'etdr')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_imports_load_only_the_modules_they_name():
    # the packages re-export nothing, so a one-shot command pays only for
    # the modules it runs
    for package in ("etdr", "etdr.etproto", "etdr.transport"):
        assert loaded_etdr_modules(package) == {"etdr", package}
    assert loaded_etdr_modules("etdr.cli") == {
        "etdr", "etdr.bits", "etdr.cli", "etdr.errors", "etdr.params",
    }
    keys = loaded_etdr_modules("etdr.etproto.keys")
    assert "etdr.etproto.keys" in keys
    assert not keys & {
        "etdr.etproto.core", "etdr.etproto.session", "etdr.au2hash", "etdr.gf2field",
    }
    frames = loaded_etdr_modules("etdr.transport.frames")
    assert "etdr.transport.frames" in frames
    assert not frames & {
        "etdr.transport.runners", "etdr.transport.channel", "etdr.transport.sockets",
        "etdr.transport.traffic", "etdr.itsmac", "etdr.au2hash",
    }
