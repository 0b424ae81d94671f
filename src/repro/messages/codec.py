"""Message <-> bytes codec and the type registry.

``encode_message`` prefixes the type id so ``decode_message`` can
round-trip any registered type.  Sizes from :func:`wire_size` back the
"overhead in bytes" numbers of the benchmarks; they include every field
that would travel on the air (signatures, public keys, route records)
but no link-layer framing.
"""

from __future__ import annotations

from typing import Type

from repro.messages.base import CodecError, Message, Reader, Writer
from repro.messages.bootstrap import AREQ, AREP, DREP
from repro.messages.data import AckPacket, DataPacket
from repro.messages.dns import (
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateReply,
    DNSUpdateRequest,
)
from repro.messages.ndp import NeighborAdvertisement, NeighborSolicitation
from repro.messages.routing import CREP, RERR, RREP, RREQ

#: All wire-registered message classes, keyed by type id.
MESSAGE_TYPES: dict[int, Type[Message]] = {}


def register_message_type(cls: Type[Message]) -> Type[Message]:
    """Add a message class to the wire registry (id collisions rejected)."""
    type_id = cls.META.type_id
    existing = MESSAGE_TYPES.get(type_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"type id {type_id} already used by {existing.__name__}"
        )
    MESSAGE_TYPES[type_id] = cls
    return cls


for _cls in (
    NeighborSolicitation,
    NeighborAdvertisement,
    AREQ,
    AREP,
    DREP,
    RREQ,
    RREP,
    CREP,
    RERR,
    DataPacket,
    AckPacket,
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateRequest,
    DNSUpdateReply,
):
    register_message_type(_cls)


#: Process-wide count of actual encode executions.  Cache hits through
#: ``Message.wire_bytes`` and sizes a relayed copy took from its parent
#: do not increment it, so the delta across a simulation round measures
#: exactly how many times the codec really ran.  It counts host work and
#: appears in no simulated summary.
_encode_calls = 0


def encode_call_count() -> int:
    """Cumulative number of :func:`encode_message` executions so far."""
    return _encode_calls


def encode_message(msg: Message) -> bytes:
    """Serialise ``msg`` to its wire form (type id byte + fields).

    This always runs the encoder; callers that may touch the same
    message more than once should go through ``msg.wire_bytes()`` or
    ``msg.wire_size()``, which cache their result on the (immutable)
    message.
    """
    global _encode_calls
    cls = type(msg)
    if MESSAGE_TYPES.get(cls.META.type_id) is not cls:
        raise CodecError(f"{cls.__name__} is not wire-registered")
    _encode_calls += 1
    w = Writer()
    w.u8(cls.META.type_id)
    msg._encode_fields(w)
    return w.getvalue()


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`; raises :class:`CodecError` on junk.

    Only :class:`CodecError` escapes, and whatever decodes re-encodes to
    the same bytes: every field has one encoding (bool bytes are 0 or 1,
    text is valid UTF-8, keys name a known backend and have its length).
    """
    if not data:
        raise CodecError("empty message")
    r = Reader(data)
    type_id = r.u8()
    cls = MESSAGE_TYPES.get(type_id)
    if cls is None:
        raise CodecError(f"unknown message type id {type_id}")
    msg = cls._decode_fields(r)
    r.expect_exhausted()
    return msg


def wire_size(msg: Message) -> int:
    """Encoded size of ``msg`` in bytes (cached on the message)."""
    return msg.wire_size()


def table1_rows() -> list[tuple[str, str, str]]:
    """(Type, Function, Parameters) rows reproducing Table 1 of the paper.

    Only the seven paper control messages, in Table 1's order.
    """
    order = [AREQ, AREP, DREP, RREQ, RREP, CREP, RERR]
    return [(c.META.name, c.META.function, c.META.parameters) for c in order]
