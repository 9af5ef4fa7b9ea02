"""CLI surface: argument handling, output formats, exit codes, and the
multi-process socket flow."""

import csv
import io
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from etdr.cli import _freeze_exit, main
from etdr.etproto.keys import load_party_keys, load_ttp_secret
from etdr.transport.sockets import SocketTtpServer

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    code = main(argv)
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


# ---------------------------------------------------- memory carrier


@pytest.fixture()
def keydir(tmp_path):
    code = main(["keygen", "--data-bits", "256", "--epsilon", "1/16",
                 "--out", str(tmp_path / "k"), "--seed", "11"])
    assert code == 0
    return tmp_path / "k"


def test_party_memory_equal(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["party", "--keys", str(keydir / "ttp.key"),
         "--message-a", "0xabc", "--message-b", "0xabc", "--traffic"],
        capsys,
    )
    assert code == 0
    assert "outcome: equal" in out
    assert "comparison=900/1028" in out


def test_party_memory_distinct(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["party", "--keys", str(keydir / "ttp.key"),
         "--message-a", "1", "--message-b", "2"],
        capsys,
    )
    assert code == 0
    assert "outcome: distinct" in out


def test_dispute_memory_blames_liar(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["dispute", "--keys", str(keydir / "ttp.key"),
         "--message-a", "1", "--message-b", "2", "--claim-b", "3",
         "--traffic"],
        capsys,
    )
    assert code == 0
    assert "verdict: ALICE_CORRECT" in out
    assert "dispute=644/772" in out


def test_dispute_memory_matching_claims(keydir, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(
        ["dispute", "--keys", str(keydir / "ttp.key"),
         "--message-a", "1", "--message-b", "2", "--claim-b", "1"],
        capsys,
    )
    assert code == 0
    assert "verdict: BOTH_CONSISTENT" in out


def test_party_memory_requires_both_messages(keydir, capsys):
    capsys.readouterr()
    code, _, err = run_cli(
        ["party", "--keys", str(keydir / "ttp.key"), "--message-a", "1"],
        capsys,
    )
    assert code == 2 and "message-b" in err


def test_party_rejects_party_keyfile_for_memory(keydir, capsys):
    capsys.readouterr()
    code, _, _ = run_cli(
        ["party", "--keys", str(keydir / "alice.key"),
         "--message-a", "1", "--message-b", "1"],
        capsys,
    )
    assert code == 3


def test_message_file_input(keydir, tmp_path, capsys):
    capsys.readouterr()
    blob = tmp_path / "m.bin"
    blob.write_bytes(bytes(range(32)))
    code, out, _ = run_cli(
        ["party", "--keys", str(keydir / "ttp.key"),
         "--message-a", f"@{blob}", "--message-b", f"@{blob}"],
        capsys,
    )
    assert code == 0 and "outcome: equal" in out

    short = tmp_path / "short.bin"
    short.write_bytes(b"xy")
    code, _, err = run_cli(
        ["party", "--keys", str(keydir / "ttp.key"),
         "--message-a", f"@{short}", "--message-b", "1"],
        capsys,
    )
    assert code == 2 and "bytes" in err


def test_message_must_be_integer_or_file(keydir, capsys):
    capsys.readouterr()
    code, _, _ = run_cli(
        ["party", "--keys", str(keydir / "ttp.key"),
         "--message-a", "hello", "--message-b", "1"],
        capsys,
    )
    assert code == 2


def test_missing_key_file(capsys):
    code, _, _ = run_cli(
        ["party", "--keys", "/does/not/exist.key",
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
    # too wide for the difference tables: only the strategies that need
    # none can play, and they hash every digest vector
    strategies = ["random-claim", "single-bit-flip", "copy-honest-vector"]
    code, out, _ = run_cli(
        ["attack", "--data-bits", "64", "--shared-count", "3",
         "--subkey-bits", "8", "--trials", "100", "--format", "csv",
         *[arg for name in strategies for arg in ("--strategy", name)]],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == strategies
    assert all(r[-1] == "True" for r in rows[1:])


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
            ["party", "--carrier", "socket", "--keys", str(keydir / "alice.key"),
             "--connect", f"{host}:{port}", "--message", "1",
             "--timeout", "0.6"],
            capsys,
        )
    assert code == 6
    assert "timed out" in err


def test_socket_connect_needs_port(keydir, capsys):
    capsys.readouterr()
    code, _, _ = run_cli(
        ["party", "--carrier", "socket", "--keys", str(keydir / "alice.key"),
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
         "--keys", f"{env_dir}/ttp.key", "--dispute",
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
                 "--carrier", "socket", "--keys", f"{env_dir}/{role}.key",
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
    from etdr.transport.runners import ERR_MAC, FreezeInfo

    info = FreezeInfo(ERR_MAC, "bad tag", local=True)
    assert _freeze_exit("party", info) == 4
    assert "frozen party: mac (detected locally): bad tag" in capsys.readouterr().out


# ---------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "selftest passed" in out
    assert out.count("ok: ") == 9
