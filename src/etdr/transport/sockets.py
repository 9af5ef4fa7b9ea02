"""TCP carrier: the same runners over real connections.

The referee serves both parties concurrently. A connection is bound to a
party's role once the runner has recorded a payload it delivered as that
party's (submission and claim types name their sender, and the runner
records only authentic payloads); until then the referee's frames for
that role wait unsent. A connection that ends, or that a send fails on,
loses its role; the referee's frames for that role then wait again until
the party reconnects and resends its payload. All runner calls are
serialized under one lock, so the protocol logic stays single-threaded
and the per-channel byte streams match the in-process carrier exactly.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from typing import Callable

from ..bits import Message
from ..errors import FrameError
from ..etproto.keys import ROLE_ALICE, ROLE_BOB, PartyKeys, TtpSecret
from ..etproto.session import SessionStore
from .frames import PHASE_OF, SENDER_OF, Frame, FrameReader, encode_frame
from .runners import PartyRunner, TtpRunner


@dataclass
class ChannelLog:
    """Raw frames seen on one party-referee channel, per direction."""

    to_ttp: list[bytes] = field(default_factory=list)
    from_ttp: list[bytes] = field(default_factory=list)


class SocketTtpServer:
    """Context-managed referee endpoint on an ephemeral port."""

    def __init__(
        self,
        secret: TtpSecret,
        store: SessionStore | None = None,
        host: str = "127.0.0.1",
        timeout: float = 10.0,
        port: int = 0,
    ):
        self.runner = TtpRunner(secret, store=store)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sent = threading.Condition(self._lock)  # notified after each batch
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.1)
        self.address = self._listener.getsockname()
        self.logs = {ROLE_ALICE: ChannelLog(), ROLE_BOB: ChannelLog()}
        self._conns: dict[int, socket.socket] = {}  # role -> bound connection
        self._open: set[socket.socket] = set()  # every accepted connection not yet ended
        self._pending: dict[int, list[bytes]] = {ROLE_ALICE: [], ROLE_BOB: []}
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    def __enter__(self) -> "SocketTtpServer":
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wait_until(self, pred: Callable[[TtpRunner], bool], timeout: float) -> bool:
        """Wait until pred(runner) holds with every frame the runner has
        answered so far sent or queued; False if `timeout` seconds pass."""
        with self._sent:
            return self._sent.wait_for(lambda: pred(self.runner), timeout)

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        with self._lock:
            conns = list(self._open)
        for conn in conns:  # wake each serve thread's recv, bound or idle
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for t in self._threads:
            t.join(timeout=self.timeout)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                self._open.add(conn)
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(self.timeout)
        reader = FrameReader()
        try:
            while not self._stop.is_set():
                try:
                    data = conn.recv(65536)
                except (socket.timeout, OSError):
                    return
                if not data:
                    return
                try:
                    frames = reader.feed(data)
                except FrameError:
                    return  # unparseable stream; drop the connection
                for frame in frames:
                    self._handle(conn, frame)
        finally:
            with self._lock:
                self._open.discard(conn)
                for role in [r for r, c in self._conns.items() if c is conn]:
                    del self._conns[role]
            conn.close()

    def _handle(self, conn: socket.socket, frame: Frame) -> None:
        raw = encode_frame(frame)
        with self._lock:
            role = SENDER_OF.get(frame.msg_type)
            if role is not None:
                self.logs[role].to_ttp.append(raw)
            replies = self.runner.on_frame(raw)
            # bind only a connection whose payload the runner recorded as
            # the sender's, so an impostor never receives a party's frames
            if role is not None and role not in self._conns:
                field_name = PHASE_OF[frame.msg_type].payload_fields[role]
                if self.runner.record.get(field_name) == frame.payload:
                    self._conns[role] = conn
                    queued, self._pending[role] = self._pending[role], []
                    for out_raw in queued:
                        self._send(role, out_raw)
            for dst, out in replies:
                out_raw = encode_frame(out)
                self.logs[dst].from_ttp.append(out_raw)
                self._send(dst, out_raw)
            self._sent.notify_all()

    def _send(self, role: int, raw: bytes) -> None:
        """Send to the role's bound connection, or queue the frame until one
        binds; a failed send unbinds the role. Called under the lock."""
        conn = self._conns.get(role)
        if conn is not None:
            try:
                conn.sendall(raw)
                return
            except OSError:
                del self._conns[role]
        self._pending[role].append(raw)


def run_party_session(
    keys: PartyKeys,
    message: Message,
    address: tuple[str, int],
    *,
    dispute: bool = False,
    claim: Message | None = None,
    timeout: float = 10.0,
) -> tuple[PartyRunner, ChannelLog]:
    """Drive one party over TCP through the comparison phase and, if asked,
    the dispute. Returns the finished runner plus the raw channel log."""
    runner = PartyRunner(keys, message)
    log = ChannelLog()
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        reader = FrameReader()

        def send(frame: Frame) -> None:
            raw = encode_frame(frame)
            log.to_ttp.append(raw)
            sock.sendall(raw)

        def pump_until(state: str) -> None:
            while runner.state != state and runner.frozen is None:
                try:
                    data = sock.recv(65536)
                except socket.timeout as exc:
                    raise FrameError("timed out waiting for the referee") from exc
                if not data:
                    raise FrameError("referee closed the connection mid-session")
                for frame in reader.feed(data):
                    raw = encode_frame(frame)
                    log.from_ttp.append(raw)
                    for out in runner.on_frame(raw):
                        send(out)

        send(runner.et_submit_frame())
        pump_until("et_done")
        if dispute and runner.frozen is None:
            send(runner.dr_claim_frame(claim))
            pump_until("done")
    return runner, log
