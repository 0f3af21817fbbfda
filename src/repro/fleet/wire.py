"""Wire protocol v2: length-prefixed JSON frames, with negotiation.

A **frame** is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (one object per frame).  Compared with the v1
JSON-lines protocol this adds three things the fleet needs:

* an explicit, checkable size bound *before* the body is read — an
  oversized request is rejected with a structured error instead of an
  unbounded ``readline``;
* binary-safe framing: a frame can carry embedded newlines (serialized
  plans, merged trace documents) without escaping games;
* **negotiation**: the first frame a client sends is a hello
  (:func:`hello_doc`); the server answers with its own protocol version
  and role, so a future v3 can be introduced without flag-day upgrades.

**v1 compat shim** — v1 clients send raw JSON text, so their first byte is
``{`` (0x7B).  No v2 frame starts with that byte: 0x7B as the leading
length-prefix byte would declare a >2 GB frame, far beyond any cap this
module accepts.  Servers therefore sniff the first byte
(:func:`looks_like_v1`) and fall back to newline-delimited JSON on such
connections — the existing stdin/stdout loop keeps working over TCP,
unchanged.

Both blocking-socket (``send_frame``/``recv_frame``) and asyncio
(``write_frame``/``read_frame``) helpers live here so the shard servers,
the frontend and the clients all speak from one implementation.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time
from typing import Any, Dict, Optional

#: the protocol this module implements; carried in every hello
PROTOCOL_VERSION = 2

#: response frames can carry merged traces and serialized plans; clients
#: accept up to this much before declaring the peer broken
MAX_RESPONSE_FRAME_BYTES = 64 << 20

_LENGTH = struct.Struct(">I")


class FrameError(ValueError):
    """The byte stream does not parse as a protocol-v2 frame."""


class FrameTooLarge(FrameError):
    """A frame declared a length beyond the caller's cap."""

    def __init__(self, declared: int, limit: int):
        super().__init__(f"frame of {declared} bytes exceeds limit {limit}")
        self.declared = declared
        self.limit = limit


def hello_doc(role: str = "client") -> Dict[str, Any]:
    """The negotiation frame a connecting peer sends first."""
    return {"op": "hello", "proto": PROTOCOL_VERSION, "role": role}


def hello_reply(role: str, server: str) -> Dict[str, Any]:
    """A server's answer to a hello: its protocol version and identity."""
    return {"ok": True, "proto": PROTOCOL_VERSION, "role": role,
            "server": server}


def negotiate(client_hello: Dict[str, Any], role: str,
              server: str) -> Dict[str, Any]:
    """Validate a client hello; an unsupported version gets a clear error.

    A client speaking an *older* protocol would never reach this function
    (v1 is sniffed off the first byte), so anything other than exactly
    :data:`PROTOCOL_VERSION` is from the future and refused by version
    number — the client can then downgrade.
    """
    proto = client_hello.get("proto")
    if proto != PROTOCOL_VERSION:
        return {"ok": False, "error": "unsupported protocol",
                "requested": proto, "proto": PROTOCOL_VERSION}
    return hello_reply(role, server)


def encode_frame(doc: Dict[str, Any]) -> bytes:
    """One JSON object as a length-prefixed frame."""
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; the payload must be a JSON object."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"bad frame payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError("frame payload must be a JSON object")
    return doc


def looks_like_v1(first_byte: bytes) -> bool:
    """True when a connection's first byte marks the v1 JSON-lines protocol."""
    return first_byte in (b"{", b" ", b"\t", b"\n", b"\r")


# ----------------------------------------------------------------------
# blocking sockets (shard servers, the sync client)
# ----------------------------------------------------------------------

def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _perturbed(
    data: bytes, chaos
) -> "tuple[Optional[bytes], float, tuple[str, ...]]":
    """Run one outbound frame through the active chaos controller, if any.

    ``chaos`` scopes the faults: an explicit controller (one shard's),
    ``None`` for the process-wide one (``REPRO_CHAOS`` / ``serve
    --chaos``), or ``False`` to bypass chaos entirely.  The returned
    ``tags`` name the injected faults so callers can attribute the
    latency they are about to cause.
    """
    if chaos is False:
        return data, 0.0, ()
    if chaos is None:
        from .chaos import active

        chaos = active()
    if chaos is None:
        return data, 0.0, ()
    return chaos.perturb_tagged(data)


def _record_chaos(doc: Dict[str, Any], tags: "tuple[str, ...]",
                  telemetry=None) -> None:
    """Durably note an injected fault so SLO burn can be attributed.

    The event carries the outbound doc's trace id (requests and replies
    both echo it), which is how :func:`repro.obs.telemetry.summarize`
    separates chaos-injected latency from organic latency.  ``telemetry``
    is an explicit writer (a thread-mode shard's own store); ``None``
    falls back to the process-wide install.
    """
    if not tags:
        return
    t = telemetry
    if t is None:
        from ..obs import telemetry as telemetry_store

        t = telemetry_store.active()
    if t is None or not t.enabled:
        return
    t.record({
        "type": "chaos",
        "faults": list(tags),
        "trace_id": doc.get("trace_id"),
        "op": doc.get("op"),
    })


def send_frame(sock: socket.socket, doc: Dict[str, Any],
               chaos=None, telemetry=None) -> None:
    data, delay_s, tags = _perturbed(encode_frame(doc), chaos)
    _record_chaos(doc, tags, telemetry)
    if delay_s:
        time.sleep(delay_s)
    if data is None:  # chaos dropped the frame; the peer sees a stall
        return
    sock.sendall(data)


def recv_frame(
    sock: socket.socket,
    max_bytes: int = MAX_RESPONSE_FRAME_BYTES,
    prefix: bytes = b"",
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``prefix`` holds bytes already sniffed off the stream.

    Returns ``None`` on a clean EOF before any frame bytes.  Raises
    :class:`FrameTooLarge` *before* reading the body when the declared
    length exceeds ``max_bytes``.
    """
    header = prefix
    while len(header) < _LENGTH.size:
        chunk = sock.recv(_LENGTH.size - len(header))
        if not chunk:
            if not header:
                return None
            raise FrameError("connection closed mid-frame")
        header += chunk
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise FrameTooLarge(length, max_bytes)
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise FrameError("connection closed mid-frame")
    return decode_body(body)


# ----------------------------------------------------------------------
# asyncio streams (the frontend and its shard links)
# ----------------------------------------------------------------------

async def write_frame(writer: asyncio.StreamWriter, doc: Dict[str, Any],
                      chaos=None, telemetry=None) -> None:
    data, delay_s, tags = _perturbed(encode_frame(doc), chaos)
    _record_chaos(doc, tags, telemetry)
    if delay_s:
        await asyncio.sleep(delay_s)
    if data is None:  # chaos dropped the frame; the peer sees a stall
        return
    writer.write(data)
    await writer.drain()


async def read_frame(
    reader: asyncio.StreamReader,
    max_bytes: int = MAX_RESPONSE_FRAME_BYTES,
    prefix: bytes = b"",
) -> Optional[Dict[str, Any]]:
    """Async twin of :func:`recv_frame`; None on clean EOF."""
    need = _LENGTH.size - len(prefix)
    try:
        header = prefix + (await reader.readexactly(need) if need > 0 else b"")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and not prefix:
            return None
        raise FrameError("connection closed mid-frame") from exc
    (length,) = _LENGTH.unpack(header[:_LENGTH.size])
    if length > max_bytes:
        raise FrameTooLarge(length, max_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return decode_body(body)
