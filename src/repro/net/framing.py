"""Length-prefixed binary framing for the replica protocol.

Every message on a coordinator<->replica connection — TCP to a worker
host, or a socketpair to a forked pool replica — is one *frame*:

.. code-block:: text

    offset  size  field
    0       2     magic        b"FH"
    2       1     version      FRAME_VERSION
    3       1     msg_type     MsgType value
    4       4     payload_len  big-endian u32, <= max_frame
    8       4     payload_crc  crc32 of the payload bytes
    12      4     header_crc   crc32 of bytes [0, 12)

followed by ``payload_len`` payload bytes.  Payloads are pickles of
plain-data messages riding the FHE layer's ``to_state()`` serialization
(PR 5): parameters, secret coefficients, limb arrays — derived caches
are rebuilt on the receiving side, never shipped.

The header exists so a receiver can reject junk *before* unpickling
anything: pickle is an arbitrary-code-execution format, so the transport
refuses to hand attacker-controlled bytes to it blindly.  A frame is
rejected (with a typed :class:`FrameError`, which servers answer with a
clean ``ERROR`` reply) when the magic or version is wrong, the declared
length exceeds the cap, either checksum fails, or the stream ends
mid-frame.  This is integrity/robustness, not authentication — the wire
protocol is for trusted cluster networks.

The codec is exposed both as pure byte functions (:func:`encode_frame` /
:func:`decode_frame` — what ``check_perf.py`` times as
``net_frame_roundtrip``) and as socket send/recv helpers.
"""

from __future__ import annotations

import enum
import pickle
import struct
import zlib
from contextlib import contextmanager

#: bump when the header layout or message vocabulary changes; HELLO
#: carries it so mismatched peers part cleanly instead of mis-parsing.
#: v2: EXECUTE request tuples gained a trace-id element and RESULT /
#: HEARTBEAT replies gained span and metrics payloads (repro.obs).
#: v3: REPLICATE ``program`` is keyed by (signature, width, plain_width,
#: capacity) and EXECUTE dropped ``batched`` (the key says it).
FRAME_VERSION = 3

MAGIC = b"FH"

#: default cap on one frame's payload.  Generous for this codebase —
#: context states are kilobytes, packed batches are megabytes at most —
#: while still bounding what a malicious or confused peer can make the
#: receiver buffer (and then unpickle).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">2sBBII")       # magic, version, type, len, payload_crc
_HEADER_CRC = struct.Struct(">I")
HEADER_BYTES = _HEADER.size + _HEADER_CRC.size


class MsgType(enum.IntEnum):
    """The wire vocabulary."""

    HELLO = 1        # version/identity handshake, first frame each way
    REPLICATE = 2    # ship/drop registry state: context, program, backend
    EXECUTE = 3      # run one BatchJob's worth of requests
    RESULT = 4       # successful REPLICATE/EXECUTE reply
    HEARTBEAT = 5    # liveness probe; reply carries load stats
    ERROR = 6        # failure reply (remote traceback or frame rejection)


class FrameError(ValueError):
    """A frame violated the wire format; reject before unpickling."""


class BadMagic(FrameError):
    """First bytes are not a frame header (garbage or wrong protocol)."""


class BadChecksum(FrameError):
    """Header or payload bytes corrupted in flight."""


class FrameTooLarge(FrameError):
    """Declared payload length exceeds the receiver's cap."""


class Truncated(FrameError):
    """The stream ended mid-frame."""


class PeerClosed(ConnectionError):
    """Clean EOF at a frame boundary (the peer hung up)."""


def encode_frame(msg_type: MsgType, payload: bytes, *,
                 max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame for ``payload``; refuses oversized payloads locally
    (better to fail the send than have every worker reject the frame)."""
    if len(payload) > max_frame:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame cap"
        )
    header = _HEADER.pack(MAGIC, FRAME_VERSION, int(msg_type), len(payload),
                          zlib.crc32(payload))
    return header + _HEADER_CRC.pack(zlib.crc32(header)) + payload


def decode_header(header: bytes, *,
                  max_frame: int = MAX_FRAME_BYTES) -> tuple[MsgType, int, int]:
    """Validate one header; returns ``(msg_type, payload_len, payload_crc)``."""
    if len(header) != HEADER_BYTES:
        raise Truncated(f"header is {len(header)} bytes, need {HEADER_BYTES}")
    magic, version, msg_type, length, payload_crc = _HEADER.unpack(
        header[: _HEADER.size]
    )
    if magic != MAGIC:
        raise BadMagic(f"bad frame magic {magic!r}")
    (header_crc,) = _HEADER_CRC.unpack(header[_HEADER.size:])
    if zlib.crc32(header[: _HEADER.size]) != header_crc:
        raise BadChecksum("frame header checksum mismatch")
    if version != FRAME_VERSION:
        raise FrameError(f"frame version {version} != {FRAME_VERSION}")
    try:
        msg_type = MsgType(msg_type)
    except ValueError:
        raise FrameError(f"unknown message type {msg_type}") from None
    if length > max_frame:
        raise FrameTooLarge(
            f"declared payload of {length} bytes exceeds the "
            f"{max_frame}-byte frame cap"
        )
    return msg_type, length, payload_crc


def decode_frame(buffer: bytes, *,
                 max_frame: int = MAX_FRAME_BYTES) -> tuple[MsgType, bytes]:
    """Decode one complete frame from ``buffer`` (pure-bytes counterpart
    of :func:`recv_frame`; raises the same :class:`FrameError` family)."""
    msg_type, length, payload_crc = decode_header(
        buffer[:HEADER_BYTES], max_frame=max_frame
    )
    payload = buffer[HEADER_BYTES: HEADER_BYTES + length]
    if len(payload) != length:
        raise Truncated(
            f"payload truncated: got {len(payload)} of {length} bytes"
        )
    if zlib.crc32(payload) != payload_crc:
        raise BadChecksum("frame payload checksum mismatch")
    return msg_type, payload


# ------------------------------------------------------------------- sockets
@contextmanager
def socket_timeout(sock, timeout: float | None):
    """Temporarily bound a socket's blocking operations.

    The execute-watchdog seam: :class:`~repro.net.remote.RemoteExecutor`
    wraps each EXECUTE exchange in a timeout derived from the batch's
    earliest request deadline, so a hung worker raises ``socket.timeout``
    (an ``OSError`` the transport already treats as host death) instead
    of stranding a future.  ``None`` leaves the socket untouched; the
    previous timeout is always restored.
    """
    if timeout is None:
        yield
        return
    prev = sock.gettimeout()
    sock.settimeout(timeout)
    try:
        yield
    finally:
        try:
            sock.settimeout(prev)
        except OSError:
            pass   # the socket died inside the block; nothing to restore


def _recv_exact(sock, count: int, *, at_boundary: bool) -> bytes:
    """Read exactly ``count`` bytes.  EOF at a frame boundary is a clean
    :class:`PeerClosed`; EOF mid-frame is a :class:`Truncated` frame."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(min(count - got, 1 << 20))
        if not chunk:
            if at_boundary and got == 0:
                raise PeerClosed("connection closed")
            raise Truncated(f"stream ended after {got} of {count} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock, msg_type: MsgType, payload: bytes, *,
               max_frame: int = MAX_FRAME_BYTES) -> None:
    sock.sendall(encode_frame(msg_type, payload, max_frame=max_frame))


def recv_frame(sock, *, max_frame: int = MAX_FRAME_BYTES) -> tuple[MsgType, bytes]:
    """Read and validate one frame; payload bytes are returned unparsed."""
    header = _recv_exact(sock, HEADER_BYTES, at_boundary=True)
    msg_type, length, payload_crc = decode_header(header, max_frame=max_frame)
    payload = _recv_exact(sock, length, at_boundary=False)
    if zlib.crc32(payload) != payload_crc:
        raise BadChecksum("frame payload checksum mismatch")
    return msg_type, payload


def send_msg(sock, msg_type: MsgType, message, *,
             max_frame: int = MAX_FRAME_BYTES) -> None:
    """Pickle ``message`` and send it as one frame."""
    send_frame(sock, msg_type, pickle.dumps(message), max_frame=max_frame)


def recv_msg(sock, *, max_frame: int = MAX_FRAME_BYTES) -> tuple[MsgType, object]:
    """Receive one frame and unpickle its payload.

    The frame's magic/version/length/checksums are all validated *before*
    this touches pickle — garbage never reaches the unpickler.
    """
    msg_type, payload = recv_frame(sock, max_frame=max_frame)
    return msg_type, pickle.loads(payload)
