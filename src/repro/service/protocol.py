"""Wire protocol of the scenario service: framing, codecs, messages.

One frame per message, in both directions::

    +----------------+-------+----------------------+
    | length (u32 BE)| codec | payload (length bytes)|
    +----------------+-------+----------------------+

``codec`` is one byte: ``J`` for a UTF-8 JSON object (control
messages — handshake, errors, acks) or ``P`` for a pickle (anything
carrying typed query/answer/stats objects).  Every payload decodes to
a ``dict`` with a ``"type"`` key; anything else is a protocol
violation and raises :class:`~repro.exceptions.ServiceError` with
``code="frame"``.
Frames above ``max_frame`` are refused *before* the payload is read,
so a garbled length header cannot make either side allocate
gigabytes.

Versioning is explicit: the first client message must be
``{"type": "hello", "version": PROTOCOL_VERSION, ...}`` and the
server answers ``welcome`` (echoing its version, its name and its
admission limits) or a ``version``-coded ``error`` — nothing else
crosses the socket until the handshake agrees.  Bump
:data:`PROTOCOL_VERSION` whenever a message's meaning changes; the
mismatch then fails loudly at connect time instead of mid-stream.

Trust model: the pickle codec executes arbitrary constructors on
decode, exactly like the fleet's pipe protocol one layer down.  The
server reads the hello with :func:`read_frame` and refuses any codec
but ``J`` before decoding it, so a peer reaches ``pickle.loads`` only
after a handshake — which is not authentication.  The service is a
*backend* front for clients you already run — bind it to loopback or
a trusted network, never the open internet.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from typing import Any, Dict, Optional, Tuple

import asyncio

from repro.exceptions import ServiceError

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "CODEC_JSON",
    "encode_message",
    "decode_payload",
    "read_frame",
    "send_message",
    "recv_message",
    "raise_error_reply",
]

#: Bump on any change to message meaning; the handshake enforces it.
PROTOCOL_VERSION = 5

#: Default refusal threshold for a single frame, either direction.
DEFAULT_MAX_FRAME = 32 * 1024 * 1024

_HEADER = struct.Struct(">IB")
#: The codec byte of a JSON frame, the only one a hello may carry.
CODEC_JSON = ord("J")
_CODEC_PICKLE = ord("P")

Message = Dict[str, Any]


def encode_message(message: Message,
                   max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize one message to a full frame (header + payload).

    JSON when the message is JSON-native (all control messages are,
    by construction), pickle otherwise — the codec byte records the
    choice so the receiver never guesses.
    """
    try:
        payload = json.dumps(message, separators=(",", ":")).encode()
        codec = CODEC_JSON
    except (TypeError, ValueError):
        payload = pickle.dumps(message,
                               protocol=pickle.HIGHEST_PROTOCOL)
        codec = _CODEC_PICKLE
    if len(payload) > max_frame:
        raise ServiceError(
            f"message of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame limit", code="frame",
        )
    return _HEADER.pack(len(payload), codec) + payload


def decode_payload(codec: int, payload: bytes) -> Message:
    """Decode one frame's payload; enforce the dict-with-type shape."""
    if codec == CODEC_JSON:
        try:
            message = json.loads(payload.decode())
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"undecodable JSON frame: {exc}", code="frame"
            ) from exc
    elif codec == _CODEC_PICKLE:
        try:
            message = pickle.loads(payload)
        except Exception as exc:  # pickle raises a zoo of types
            raise ServiceError(
                f"undecodable pickle frame: {exc}", code="frame"
            ) from exc
    else:
        raise ServiceError(
            f"unknown codec byte {codec!r}", code="frame"
        )
    if not isinstance(message, dict) or "type" not in message:
        raise ServiceError(
            f"frame decodes to {type(message).__name__}, not a "
            f"typed message dict", code="frame",
        )
    return message


async def read_frame(reader: asyncio.StreamReader,
                     max_frame: int = DEFAULT_MAX_FRAME
                     ) -> Tuple[int, bytes]:
    """Read one frame's codec byte and payload from an asyncio stream
    (server side); :func:`decode_payload` decodes them.

    Raises :class:`asyncio.IncompleteReadError` on EOF — the caller's
    disconnect signal — and :class:`ServiceError` on an oversized
    frame.
    """
    length, codec = _HEADER.unpack(await reader.readexactly(_HEADER.size))
    if length > max_frame:
        raise ServiceError(
            f"incoming frame of {length} bytes exceeds the "
            f"{max_frame}-byte limit", code="frame",
        )
    return codec, await reader.readexactly(length)


def send_message(sock: socket.socket, message: Message,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
    """Write one frame to a blocking socket (sync client side)."""
    sock.sendall(encode_message(message, max_frame))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ServiceError(
                "connection closed mid-frame", code="closed"
            )
        chunks.extend(chunk)
    return bytes(chunks)


def recv_message(sock: socket.socket,
                 max_frame: int = DEFAULT_MAX_FRAME) -> Message:
    """Read one frame from a blocking socket (sync client side)."""
    length, codec = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if length > max_frame:
        raise ServiceError(
            f"incoming frame of {length} bytes exceeds the "
            f"{max_frame}-byte limit", code="frame",
        )
    return decode_payload(codec, _recv_exactly(sock, length))


def raise_error_reply(reply: Message) -> None:
    """Raise the client-side exception for an ``error`` reply.

    Mirrors the fleet's ``raise_reply`` contract: a server-side
    :class:`~repro.exceptions.ReproError` subclass named in
    ``exc_type`` re-raises as that type (so a malformed query stream
    surfaces as the :class:`~repro.exceptions.QueryError` callers
    already handle); anything else — admission backpressure, drain,
    version or frame violations — raises :class:`ServiceError`
    carrying the server's ``code``.
    """
    import repro.exceptions as _exc

    message = str(reply.get("message", "service error"))
    exc_name: Optional[str] = reply.get("exc_type")
    if exc_name and exc_name != "ServiceError":
        exc_class = getattr(_exc, exc_name, None)
        if isinstance(exc_class, type) and issubclass(exc_class,
                                                      _exc.ReproError):
            raise exc_class(message)
    raise ServiceError(message, code=str(reply.get("code", "service")))
