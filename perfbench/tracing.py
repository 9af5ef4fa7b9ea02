"""Spans around the public functions of each etdr layer, from outside.

Tracer.install() replaces each target with a wrapper on every name a
caller looks it up by: functions are swapped in every loaded etdr module
that holds them (runners imports mac_tag by name, core imports
hash_vector by name), methods on their class. uninstall() puts the
originals back. A target that no longer exists is recorded as absent and
its metrics read 0.

A span is (id, parent id, name, start ns, end ns, op id). Parents are
tracked per thread, so the referee's threads on the TCP carrier start
their own roots. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter_ns

import stats

SPAN_KEEP = 100_000  # spans kept for the dump; aggregates cover every op


def _fixed_mul_table_build(tracer, args):
    # fixed_mul above the dense-table degree builds byte tables for its
    # key, and a MAC tag uses that key once.
    field = args[0]
    limit = getattr(sys.modules["etdr.gf2field"], "_MUL_TABLE_MAX_DEGREE", 0)
    if field.degree > limit:
        tracer.count("gf2field.GF2.fixed_mul.table_builds")


def _wire_bytes(tracer, args):
    tracer.count("frames.wire_bytes", len(args[1]))


def _mac_failed(tracer, args, result):
    if result is False:
        tracer.count("itsmac.mac_verify.failed")


def _strategy_name(args):
    return "adversary.Strategy.play." + args[0].name


# (module, attribute path, span name, before hook, after hook).
# A span name of None means "count calls only": the target is too hot
# for a span per call.
SPAN_TARGETS = (
    ("etdr.itsmac", "mac_tag", "itsmac.mac_tag", None, None),
    ("etdr.itsmac", "mac_verify", "itsmac.mac_verify", None, _mac_failed),
    ("etdr.gf2field", "GF2.fixed_mul", "gf2field.GF2.fixed_mul", _fixed_mul_table_build, None),
    ("etdr.gf2field", "GF2.mul", None, None, None),
    ("etdr.gf2field", "reduction_poly", "gf2field.reduction_poly", None, None),
    ("etdr.au2hash", "hash_vector", "au2hash.hash_vector", None, None),
    ("etdr.au2hash", "chunk_blocks", "au2hash.chunk_blocks", None, None),
    ("etdr.au2hash", "poly_hash", "au2hash.poly_hash", None, None),
    ("etdr.au2hash", "VectorHasher.update", None, None, None),
    ("etdr.etproto.core", "hash_vector_for", "core.hash_vector_for", None, None),
    ("etdr.etproto.core", "match_count", "core.match_count", None, None),
    ("etdr.etproto.core", "et_compare", "core.et_compare", None, None),
    ("etdr.etproto.core", "dr_verdict", "core.dr_verdict", None, None),
    ("etdr.etproto.keys", "generate_keys", "keys.generate_keys", None, None),
    ("etdr.etproto.keys", "save_keys", "keys.save_keys", None, None),
    ("etdr.etproto.keys", "load_keys", "keys.load_keys", None, None),
    ("etdr.etproto.session", "SessionStore.save", "session.SessionStore.save", None, None),
    ("etdr.transport.frames", "encode_frame", "frames.encode_frame", None, None),
    ("etdr.transport.frames", "decode_frame", "frames.decode_frame", None, None),
    ("etdr.transport.frames", "FrameReader.feed", "frames.FrameReader.feed", None, None),
    ("etdr.transport.runners", "PartyRunner.et_submit_frame", "runners.PartyRunner.et_submit_frame", None, None),
    ("etdr.transport.runners", "PartyRunner.dr_claim_frame", "runners.PartyRunner.dr_claim_frame", None, None),
    ("etdr.transport.runners", "PartyRunner.on_frame", "runners.PartyRunner.on_frame", _wire_bytes, None),
    ("etdr.transport.runners", "TtpRunner.on_frame", "runners.TtpRunner.on_frame", _wire_bytes, None),
    ("etdr.transport.channel", "MemoryNetwork.deliver_all", "channel.MemoryNetwork.deliver_all", None, None),
    ("etdr.transport.sockets", "SocketTtpServer.__init__", "sockets.SocketTtpServer.start", None, None),
    ("etdr.transport.sockets", "SocketTtpServer.__enter__", "sockets.SocketTtpServer.start", None, None),
    ("etdr.transport.sockets", "SocketTtpServer.close", "sockets.SocketTtpServer.close", None, None),
    ("etdr.transport.sockets", "run_party_session", "sockets.run_party_session", None, None),
    ("etdr.bounds", "verify_security", "bounds.verify_security", None, None),
    ("etdr.bounds", "attack_rows", "bounds.attack_rows", None, None),
    ("etdr.bounds", "match_tail", "bounds.match_tail", None, None),
    ("etdr.adversary", "play_game", "adversary.play_game", None, None),
    ("etdr.adversary", "play_round", "adversary.play_round", None, None),
    ("etdr.adversary", "draw_world", "adversary.draw_world", None, None),
    ("etdr.adversary", "exact_game_value", "adversary.exact_game_value", None, None),
)


def _count_name(module: str, path: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + path + ".calls"


class Tracer:
    def __init__(self) -> None:
        self.op = None  # spans are recorded only while an op id is set
        self.absent: list[str] = []
        self.kept: list[tuple] = []
        self._spans: list[tuple] = []
        self._counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._ticks: dict[str, itertools.count] = {}
        self._tick_base: dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, before, after):
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                label = name(args) if callable(name) else name
                self._spans.append((sid, parent, label, start, end, op))
            if after is not None:
                after(self, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counter(self, name, fn):
        # next() on an itertools.count is atomic and takes no lock, which
        # matters at hundreds of thousands of calls per cycle
        tick = self._ticks[name] = itertools.count()
        self._tick_base[name] = 0

        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- patching -------------------------------------------------------

    def _resolve(self, module: str, path: str):
        """(owner, attribute, original) or None when the target is gone."""
        owner = sys.modules.get(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1], getattr(owner, parts[-1])

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "etdr" and not mod_name.startswith("etdr."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        absent = []
        for module, path, name, before, after in SPAN_TARGETS:
            found = self._resolve(module, path)
            if found is None or not callable(found[2]):
                absent.append(name or _count_name(module, path))
                continue
            owner, attr, original = found
            if isinstance(owner, type) and attr not in owner.__dict__:
                absent.append(name or _count_name(module, path))
                continue
            if name is None:
                wrapper = self._counter(_count_name(module, path), original)
            else:
                wrapper = self._span(name, original, before, after)
            self._patch(owner, attr, original, wrapper)
        strategy = self._resolve("etdr.adversary", "Strategy")
        if strategy is None:
            absent.append("adversary.Strategy.play")
        else:
            base = strategy[2]
            for cls in (base, *base.__subclasses__()):
                if "play" in cls.__dict__:
                    self._patch(cls, "play", cls.play, self._span(_strategy_name, cls.play, None, None))
        self.absent = absent

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-op results -------------------------------------------------

    def take(self) -> tuple[list[tuple], dict[str, int]]:
        """The spans and counts recorded since the last take, then reset."""
        spans, counts = self._spans, self._counts
        self._spans, self._counts = [], {}
        for name, tick in self._ticks.items():
            reading = next(tick)  # this read advances the count by one
            counts[name] = reading - self._tick_base[name]
            self._tick_base[name] = reading + 1
        room = SPAN_KEEP - len(self.kept)
        if room > 0:
            self.kept.extend(spans[:room])
        return spans, counts

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, start, end, op in self.kept:
                out.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "op": op}) + "\n")


def aggregate(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, busy ns (summed) and self ns (busy minus the
    time covered by child spans)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, name, start, end, op in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, int]] = {}
    for sid, parent, name, start, end, op in spans:
        row = out.setdefault(name, {"calls": 0, "busy": 0, "self": 0})
        row["calls"] += 1
        row["busy"] += end - start
        row["self"] += stats.self_time(start, end, children.get(sid, ()))
    return out
