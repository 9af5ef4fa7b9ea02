"""TCP carrier: the same runners over real connections.

One thread serves every connection: a `selectors` loop accepts, cuts
whole frames from each byte stream, hands them as received to the runner,
which parses them, and sends its replies, so runner calls never overlap
and each channel's byte stream matches the in-process carrier.
A connection is bound to a party's role once a frame it sent verifies
under that party's MAC key, as the runner's `signer` names it; until
then the referee's frames for that role wait unsent. A frozen referee
still names the signer of the first submission or claim per pad, so its
error report reaches each party that sends an authentic frame; serve
until `finished`, which waits for `delivered`, to let it. A connection
that ends, stays silent for `timeout` seconds or fails a send loses its
role, and its frames wait again until the party reconnects and resends.
`close()` or a runner exception ends the loop and every connection.
"""

from __future__ import annotations

import functools
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..bits import Message
from ..errors import FrameError
from ..etproto.keys import ROLE_ALICE, ROLE_BOB, PartyKeys, TtpSecret
from ..etproto.session import SessionStore
from .frames import Frame, FrameReader, encode_frame
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
        self.timeout = timeout  # the longest silence, and the longest send
        self._sent = threading.Condition()  # held by the loop over each batch
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self._wake, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._loop = threading.Thread(target=self._run, daemon=True)
        self._conns: dict[int, socket.socket] = {}  # role -> bound connection
        self._bound = False  # whether any connection was ever bound to a role
        self._deadlines: dict[socket.socket, float] = {}  # open connection -> drop time
        self._pending: dict[int, list[bytes]] = {ROLE_ALICE: [], ROLE_BOB: []}

    def __enter__(self) -> "SocketTtpServer":
        self._loop.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wait_until(self, pred: Callable[[TtpRunner], bool], timeout: float) -> bool:
        """Wait until pred(runner) holds with every frame the runner has
        answered so far sent or queued; False if `timeout` seconds pass."""
        with self._sent:
            return self._sent.wait_for(lambda: pred(self.runner), timeout)

    @property
    def delivered(self) -> bool:
        """Whether every frame the runner has answered so far was sent to a
        bound connection, with none waiting for a role to bind."""
        return not any(self._pending.values())

    @property
    def finished(self) -> bool:
        """Whether the session is over here: everything answered is delivered,
        and the runner froze, recorded the verdict, or recorded the outcome
        after a party bound here, with no connection open (a disputing party
        keeps its one; a referee restarted after the comparison waits)."""
        r = self.runner
        compared = r.et_outcome is not None and self._bound and not self._deadlines
        return self.delivered and (r.frozen is not None or r.verdict is not None or compared)

    def close(self) -> None:
        self._waker.close()  # the loop reads EOF on its end of the pair
        if self._loop.is_alive():
            self._loop.join()
        for sock in (self._listener, self._wake, self._selector):
            sock.close()

    def _run(self) -> None:
        try:
            while True:
                waits = [t - time.monotonic() for t in self._deadlines.values()]
                ready = self._selector.select(min(waits, default=None))
                with self._sent:
                    for key, _ in ready:
                        if key.fileobj is self._wake:
                            return
                        key.data(key.fileobj)  # _accept or _serve
                    now = time.monotonic()  # end connections silent for `timeout`
                    self._drop(*[c for c, t in self._deadlines.items() if t <= now])
                    self._sent.notify_all()
        finally:
            self._drop(*self._deadlines)

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, _ = listener.accept()
        except OSError:  # reset before accept, or a pending network error
            return
        conn.settimeout(self.timeout)  # bounds each blocking send
        serve = functools.partial(self._serve, reader=FrameReader())
        self._selector.register(conn, selectors.EVENT_READ, serve)
        self._deadlines[conn] = time.monotonic() + self.timeout

    def _serve(self, conn: socket.socket, reader: FrameReader) -> None:
        try:
            data = conn.recv(65536)
            raws = reader.feed(data)
        except (OSError, FrameError):  # a reset, or an unparseable stream
            data = b""
        if not data:
            self._drop(conn)
            return
        self._deadlines[conn] = time.monotonic() + self.timeout
        for raw in raws:
            replies = self.runner.on_frame(raw)
            # bind only a connection that sent a frame verified under the
            # party's key, so an impostor never receives a party's frames
            signer = self.runner.signer
            if signer is not None and signer not in self._conns:
                self._conns[signer] = conn
                self._bound = True
                queued, self._pending[signer] = self._pending[signer], []
                for out_raw in queued:
                    self._send(signer, out_raw)
            for dst, out in replies:
                self._send(dst, encode_frame(out))

    def _drop(self, *conns: socket.socket) -> None:
        for conn in conns:
            self._selector.unregister(conn)
            del self._deadlines[conn]
            self._conns = {r: c for r, c in self._conns.items() if c is not conn}
            conn.close()

    def _send(self, role: int, raw: bytes) -> None:
        """Send to the role's bound connection, or queue the frame until one
        binds; a failed send unbinds the role."""
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
                for raw in reader.feed(data):
                    log.from_ttp.append(raw)
                    for out in runner.on_frame(raw):
                        send(out)

        send(runner.et_submit_frame())
        pump_until("et_done")
        if dispute and runner.frozen is None:
            send(runner.dr_claim_frame(claim))
            pump_until("done")
    return runner, log
