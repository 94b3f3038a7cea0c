"""Length-prefixed binary wire protocol for the route-query service.

Every frame on the wire is::

    +----------------+------+-------------+------------------+
    | length (4, BE) | type | request id  | body             |
    +----------------+------+-------------+------------------+
                       1 B     4 B (BE)     length - 5 bytes

``length`` counts everything after itself, so a reader needs exactly one
fixed-size read to know how much to buffer — the classic micro-batching-
friendly framing.  Frame types:

``QUERY``
    ``flags(1) d(1) k(1) source(k) destination(k)`` — flags bit 0 selects
    the directed network, bit 1 asks for the routing path (not just the
    distance).  Words use the one-byte-per-digit encoding of
    :func:`repro.network.message.encode_word`.
``REPLY``
    ``distance(1) n_steps(1) path(2*n_steps)`` — the path field is the
    paper's ``(a_i, b_i)`` pair encoding from
    :func:`repro.network.message.encode_path`, wildcards as
    :data:`~repro.network.message.WILDCARD_BYTE`.
``ERROR``
    ``code(1) message(utf-8)`` — see :class:`ErrorCode`; ``OVERLOADED``
    is the server's explicit backpressure signal.
``STATS`` / ``STATS_REPLY``
    empty request; the reply body is the UTF-8 JSON metrics snapshot of
    :meth:`repro.service.metrics.MetricsRegistry.snapshot`.

The codec is pure and synchronous; :class:`FrameDecoder` is the
incremental parser both the asyncio server and client feed socket chunks
through.

The server's query path never builds word tuples: :func:`unpack_query`
turns each word's digit bytes straight into its packed integer (the
digit-range check and the packing are one ``int()`` call), and
:func:`encode_step_reply` frames step bytes the engine produced ready
for the wire.  :func:`decode_query` and :func:`encode_reply` are the
tuple/:class:`~repro.core.routing.RoutingStep` views of the same code.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.routing import Path
from repro.core.word import WordTuple
from repro.exceptions import ProtocolError, WirePathError
from repro.network.message import (
    decode_path,
    encode_path,
    encode_word,
)

#: Frame length prefix (big-endian, counts type + request id + body).
_LENGTH = struct.Struct("!I")

#: Frame type byte plus request-id word.
_HEAD = struct.Struct("!BI")

#: A ``REPLY`` frame's fixed part: length, type, request id, distance,
#: step count.
_REPLY_HEAD = struct.Struct("!IBIBB")

#: Hard ceiling on one frame's payload; anything larger is a protocol
#: violation, not a big request (a DG(255, 255) query is still < 1 KiB).
MAX_FRAME_BYTES = 1 << 20


class FrameType(enum.IntEnum):
    """The one-byte frame discriminator."""

    QUERY = 0  #: route/distance request
    REPLY = 1  #: successful answer
    ERROR = 2  #: per-request failure (see :class:`ErrorCode`)
    STATS = 3  #: metrics-snapshot request
    STATS_REPLY = 4  #: metrics snapshot as UTF-8 JSON


#: Frame type byte → :class:`FrameType` (an enum call per frame is slow).
_FRAME_TYPES = {int(frame_type): frame_type for frame_type in FrameType}


class ErrorCode(enum.IntEnum):
    """Why a query got an ``ERROR`` frame instead of a ``REPLY``."""

    MALFORMED = 0  #: the query body failed to decode
    OVERLOADED = 1  #: admission queue full — explicit backpressure
    TIMEOUT = 2  #: the request aged out before the engine reached it
    UNSUPPORTED = 3  #: wrong (d, k) for this server, or unknown frame
    INTERNAL = 4  #: the engine raised; message carries the repr
    SHUTTING_DOWN = 5  #: server is draining and no longer answers


#: ``flags`` bit 0: route on the uni-directional network.
FLAG_DIRECTED = 0x01
#: ``flags`` bit 1: include the routing path in the reply.
FLAG_WANT_PATH = 0x02


@dataclass(frozen=True)
class RouteQuery:
    """One decoded ``QUERY`` frame."""

    request_id: int
    d: int
    source: WordTuple
    destination: WordTuple
    directed: bool = False
    want_path: bool = True

    @property
    def k(self) -> int:
        return len(self.source)


class Frame(NamedTuple):
    """One decoded frame: type, correlation id, raw body."""

    frame_type: FrameType
    request_id: int
    body: bytes


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_frame(frame_type: FrameType, request_id: int, body: bytes = b"") -> bytes:
    """Wrap ``body`` in the length-prefixed frame envelope."""
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise ProtocolError(f"request id {request_id} does not fit 32 bits")
    if len(body) + _HEAD.size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds the cap")
    return (
        _LENGTH.pack(_HEAD.size + len(body))
        + _HEAD.pack(int(frame_type), request_id)
        + body
    )


def encode_query(
    request_id: int,
    d: int,
    source: WordTuple,
    destination: WordTuple,
    directed: bool = False,
    want_path: bool = True,
) -> bytes:
    """A complete ``QUERY`` frame for one (source, destination) pair."""
    k = len(source)
    if len(destination) != k:
        raise ProtocolError(
            f"source has {k} digits but destination has {len(destination)}"
        )
    if not 0 < k <= 0xFF or not 1 < d <= 0xFF:
        raise ProtocolError(f"(d, k) = ({d}, {k}) does not fit the wire format")
    flags = (FLAG_DIRECTED if directed else 0) | (FLAG_WANT_PATH if want_path else 0)
    body = bytes([flags, d, k]) + encode_word(source) + encode_word(destination)
    return encode_frame(FrameType.QUERY, request_id, body)


#: Per base d <= 36: the ``bytes.translate`` table sending digit byte
#: b < d to its ``int(..., d)`` character and every other byte to "!",
#: which ``int`` rejects.  Mapping only the digits below d also keeps
#: ``int``'s "0b"/"0o"/"0x" prefixes out of reach.
_DIGIT_CHARS = {
    d: bytes(
        b"0123456789abcdefghijklmnopqrstuvwxyz"[b] if b < d else ord("!")
        for b in range(256)
    )
    for d in range(2, 37)
}


def _pack_word(digits: bytes, d: int) -> int:
    """Validate one word's digit bytes against ``d`` and pack them.

    Head digit most significant, as :meth:`repro.core.packed.
    PackedSpace.pack`.
    """
    table = _DIGIT_CHARS.get(d)
    if table is not None:
        try:
            return int(digits.translate(table), d)
        except ValueError:
            pass
    else:
        value = 0
        for digit in digits:
            if digit >= d:
                break
            value = value * d + digit
        else:
            return value
    raise ProtocolError(f"word {tuple(digits)!r} has digits outside 0..{d - 1}")


def unpack_query(body: bytes) -> Tuple[int, int, int, int, int, bytes, bytes]:
    """Parse a ``QUERY`` body into packed words (raises :class:`ProtocolError`).

    Returns ``(flags, d, k, source, destination, source_digits,
    destination_digits)``: both words as packed integers, plus their
    raw one-byte-per-digit encodings for tiers that need digits.
    """
    if len(body) < 3:
        raise ProtocolError("query body too short for its header")
    flags, d, k = body[0], body[1], body[2]
    if d < 2 or k < 1:
        raise ProtocolError(f"query carries invalid parameters (d={d}, k={k})")
    if len(body) != 3 + 2 * k:
        raise ProtocolError(
            f"query body is {len(body)} bytes, expected {3 + 2 * k} for k={k}"
        )
    source = body[3 : 3 + k]
    destination = body[3 + k :]
    return (flags, d, k, _pack_word(source, d), _pack_word(destination, d),
            source, destination)


def decode_query(frame: Frame) -> RouteQuery:
    """Parse a ``QUERY`` frame's body (raises :class:`ProtocolError`)."""
    flags, d, _, _, _, source, destination = unpack_query(frame.body)
    return RouteQuery(
        request_id=frame.request_id,
        d=d,
        source=tuple(source),
        destination=tuple(destination),
        directed=bool(flags & FLAG_DIRECTED),
        want_path=bool(flags & FLAG_WANT_PATH),
    )


def encode_step_reply(request_id: int, distance: int, steps: bytes) -> bytes:
    """A ``REPLY`` frame around wire-ready ``steps`` (two bytes per step).

    ``steps=b""`` answers a distance-only query.
    """
    if not 0 <= distance <= 0xFF:
        raise ProtocolError(f"distance {distance} does not fit one byte")
    n_steps = len(steps) >> 1
    if n_steps > 0xFF:
        raise ProtocolError(f"path of {n_steps} steps does not fit")
    try:
        head = _REPLY_HEAD.pack(7 + len(steps), FrameType.REPLY, request_id,
                                distance, n_steps)
    except struct.error:
        raise ProtocolError(
            f"request id {request_id} does not fit 32 bits") from None
    return head + steps


def encode_reply(request_id: int, distance: int, path: Optional[Path]) -> bytes:
    """A ``REPLY`` frame; ``path=None`` answers a distance-only query."""
    return encode_step_reply(
        request_id, distance, encode_path(path) if path else b"")


def decode_reply(frame: Frame) -> Tuple[int, Path]:
    """Parse a ``REPLY`` body into ``(distance, path)``."""
    body = frame.body
    if len(body) < 2:
        raise ProtocolError("reply body too short for its header")
    distance, n_steps = body[0], body[1]
    if len(body) != 2 + 2 * n_steps:
        raise ProtocolError(
            f"reply body is {len(body)} bytes, expected {2 + 2 * n_steps}"
        )
    try:
        return distance, decode_path(body[2:])
    except WirePathError as exc:
        # Corrupt step bytes are a wire-protocol violation, not a
        # routing error: keep the decode contract to one exception type.
        raise ProtocolError(f"reply carries a malformed path: {exc}") from exc


def encode_error(request_id: int, code: ErrorCode, message: str = "") -> bytes:
    """An ``ERROR`` frame carrying ``code`` and a short UTF-8 message."""
    return encode_frame(
        FrameType.ERROR, request_id, bytes([int(code)]) + message.encode("utf-8")
    )


def decode_error(frame: Frame) -> Tuple[ErrorCode, str]:
    """Parse an ``ERROR`` body into ``(code, message)``."""
    if not frame.body:
        raise ProtocolError("error body is empty")
    try:
        code = ErrorCode(frame.body[0])
    except ValueError as exc:
        raise ProtocolError(f"unknown error code {frame.body[0]}") from exc
    return code, frame.body[1:].decode("utf-8", errors="replace")


def encode_stats_request(request_id: int) -> bytes:
    """An empty ``STATS`` request frame."""
    return encode_frame(FrameType.STATS, request_id)


def encode_stats_reply(request_id: int, snapshot: Dict[str, object]) -> bytes:
    """A ``STATS_REPLY`` frame carrying the snapshot as UTF-8 JSON."""
    return encode_frame(
        FrameType.STATS_REPLY,
        request_id,
        json.dumps(snapshot, sort_keys=True).encode("utf-8"),
    )


def decode_stats_reply(frame: Frame) -> Dict[str, object]:
    """Parse a ``STATS_REPLY`` body back into the snapshot dict."""
    try:
        snapshot = json.loads(frame.body.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError("stats reply is not valid JSON") from exc
    if not isinstance(snapshot, dict):
        raise ProtocolError("stats reply is not a JSON object")
    return snapshot


# ----------------------------------------------------------------------
# Incremental decoding
# ----------------------------------------------------------------------


class FrameDecoder:
    """Incremental frame parser: feed socket chunks, iterate frames.

    Keeps at most one partial frame of state, so a pipelined burst that
    arrives as arbitrary TCP segment boundaries decodes identically to
    one frame per segment (property-tested).

    >>> decoder = FrameDecoder()
    >>> blob = encode_stats_request(7)
    >>> [f.request_id for f in decoder.feed(blob[:3])]
    []
    >>> [f.request_id for f in decoder.feed(blob[3:])]
    [7]
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        """Append ``data`` and return every frame it completed."""
        buffer = self._buffer
        if buffer:
            buffer.extend(data)
            data = buffer
        frames: List[Frame] = []
        end = len(data)
        offset = 0
        try:
            while end - offset >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(data, offset)
                if length < _HEAD.size or length > MAX_FRAME_BYTES:
                    raise ProtocolError(f"frame length {length} out of range")
                head_at = offset + _LENGTH.size
                stop = head_at + length
                if stop > end:
                    break
                type_byte, request_id = _HEAD.unpack_from(data, head_at)
                frame_type = _FRAME_TYPES.get(type_byte)
                if frame_type is None:
                    raise ProtocolError(f"unknown frame type {type_byte}")
                body = bytes(data[head_at + _HEAD.size : stop])
                frames.append(Frame(frame_type, request_id, body))
                offset = stop
        finally:
            if data is buffer:
                del buffer[:offset]
            elif offset < end:
                buffer.extend(data[offset:])
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)
