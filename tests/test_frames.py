"""Wire-frame encoding, strict parsing, and the stream reassembler."""

import pytest

from etdr.errors import FrameError
from etdr.transport.frames import (
    Frame,
    FrameReader,
    MsgType,
    decode_frame,
    encode_frame,
)

SID = bytes(range(16))


def test_encode_layout_worked_example():
    frame = Frame(MsgType.ET_ANNOUNCE, SID, b"\x01", b"\xaa\xbb")
    raw = encode_frame(frame)
    assert raw[0] == 1  # version
    assert raw[1] == 3  # type
    assert raw[2:18] == SID
    assert raw[18:22] == b"\x00\x00\x00\x01"  # payload length, big-endian
    assert raw[22] == 2  # tag length
    assert raw[23:24] == b"\x01"
    assert raw[24:] == b"\xaa\xbb"
    assert len(raw) == 26


def test_round_trip():
    for msg_type in MsgType:
        frame = Frame(msg_type, SID, bytes(range(7)), b"\x10\x20\x30\x40")
        assert decode_frame(encode_frame(frame)) == frame


def test_empty_tag_round_trip():
    frame = Frame(MsgType.ERROR, SID, b"\x01", b"")
    assert decode_frame(encode_frame(frame)) == frame


def test_decode_rejects_bad_version():
    raw = bytearray(encode_frame(Frame(MsgType.ERROR, SID, b"", b"")))
    raw[0] = 2
    with pytest.raises(FrameError):
        decode_frame(bytes(raw))


def test_decode_rejects_unknown_type():
    raw = bytearray(encode_frame(Frame(MsgType.ERROR, SID, b"", b"")))
    raw[1] = 99
    with pytest.raises(FrameError):
        decode_frame(bytes(raw))


def test_decode_rejects_truncation_and_trailing():
    raw = encode_frame(Frame(MsgType.ET_SUBMIT_A, SID, b"abc", b"\x01"))
    with pytest.raises(FrameError):
        decode_frame(raw[:-1])
    with pytest.raises(FrameError):
        decode_frame(raw + b"\x00")
    with pytest.raises(FrameError):
        decode_frame(raw[:10])


def test_decode_rejects_huge_declared_payload():
    raw = bytearray(encode_frame(Frame(MsgType.ET_SUBMIT_A, SID, b"abc", b"")))
    raw[18:22] = (1 << 25).to_bytes(4, "big")
    with pytest.raises(FrameError):
        decode_frame(bytes(raw))


def test_frame_constructor_guards():
    with pytest.raises(FrameError):
        Frame(MsgType.ERROR, b"\x00" * 15, b"", b"")
    with pytest.raises(FrameError):
        Frame(MsgType.ERROR, SID, b"", b"\x00" * 65)


def test_reader_reassembles_byte_dribble():
    frames = [
        Frame(MsgType.ET_SUBMIT_A, SID, b"payload-one", b"\x01\x02"),
        Frame(MsgType.ET_ANNOUNCE, SID, b"\x00", b"\x03\x04"),
        Frame(MsgType.ERROR, SID, b"\x01", b""),
    ]
    stream = b"".join(encode_frame(f) for f in frames)
    reader = FrameReader()
    got = []
    for k in range(len(stream)):
        got.extend(reader.feed(stream[k : k + 1]))
    assert got == frames
    assert reader.feed(stream) == frames  # nothing left over from the first pass


def test_reader_raises_on_poisoned_stream():
    reader = FrameReader()
    with pytest.raises(FrameError):
        reader.feed(b"\x09" + bytes(30))


def test_reader_reassembles_a_large_frame_from_chunks():
    # a 1 MiB payload in 64 KiB reads: nothing until the last chunk, then
    # exactly that frame, its fields plain bytes
    frame = Frame(MsgType.DR_CLAIM_A, SID, bytes(range(256)) * 4096, b"\x05\x06")
    stream = encode_frame(frame)
    chunk = 64 * 1024
    reader = FrameReader()
    got = [reader.feed(stream[k : k + chunk]) for k in range(0, len(stream), chunk)]
    assert all(batch == [] for batch in got[:-1])
    assert got[-1] == [frame]
    out = got[-1][0]
    assert all(type(v) is bytes for v in (out.session_id, out.payload, out.tag))
    assert reader.feed(b"") == []
