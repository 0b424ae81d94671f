"""Source-routed data packets and end-to-end acknowledgements.

DSR data packets carry the full route in the header.  The ACK is signed
by the destination (see :func:`repro.messages.signing.ack_payload`) so
that relays cannot mint credit by forging acknowledgements -- the credit
mechanism of Section 3.4 rewards hops only on *verified* delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import CodecError, Message, MessageMeta, Reader, Writer


def _encode_route(w: Writer, route: tuple[IPv6Address, ...]) -> None:
    w.u16(len(route))
    for hop in route:
        w.address(hop)


def _decode_route(r: Reader) -> tuple[IPv6Address, ...]:
    return tuple(r.address() for _ in range(r.u16()))


@dataclass(frozen=True)
class DataPacket(Message):
    """A source-routed data packet.

    ``route`` lists the intermediate hops only (S and D excluded),
    matching the paper's RR convention.  ``segment_index`` is the cursor
    of the hop currently holding the packet (-1 while at the source).
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=30,
        name="DATA",
        function="Source-routed data packet",
        parameters="(SIP, DIP, seq, RR, payload)",
    )

    sip: IPv6Address
    dip: IPv6Address
    seq: int
    route: tuple[IPv6Address, ...]
    payload: bytes = b""
    segment_index: int = -1
    #: Origination timestamp (a real stack would carry this in an
    #: application header; used for end-to-end latency measurement).
    sent_at: float = 0.0
    hop_limit: int = 64

    def full_path(self) -> tuple[IPv6Address, ...]:
        """S, intermediates..., D."""
        return (self.sip,) + self.route + (self.dip,)

    def next_hop(self) -> IPv6Address:
        """The address this packet should be forwarded to next."""
        path = self.full_path()
        cursor = self.segment_index + 1  # position of current holder in path
        if cursor + 1 >= len(path):
            raise ValueError("packet already at destination")
        return path[cursor + 1]

    def advance(self) -> "DataPacket":
        """The copy held by the next hop.

        ``segment_index`` stays a ``u16`` and ``hop_limit`` a ``u8``, so
        the copy is the size of this packet.
        """
        return self._relayed(0, segment_index=self.segment_index + 1,
                             hop_limit=self.hop_limit - 1)

    def _encode_fields(self, w: Writer) -> None:
        w.address(self.sip)
        w.address(self.dip)
        w.u64(self.seq)
        _encode_route(w, self.route)
        w.blob(self.payload)
        w.u16(self.segment_index & 0xFFFF)
        w.u64(round(self.sent_at * 1e9))  # nanosecond-resolution timestamp
        w.u8(self.hop_limit)

    @classmethod
    def _decode_fields(cls, r: Reader) -> "DataPacket":
        sip = r.address()
        dip = r.address()
        seq = r.u64()
        route = _decode_route(r)
        payload = r.blob()
        seg = r.u16()
        if seg == 0xFFFF:
            seg = -1
        ns = r.u64()
        sent_at = ns / 1e9
        if round(sent_at * 1e9) != ns:
            raise CodecError(f"sent_at: {ns} ns does not survive decode -> encode")
        return cls(sip=sip, dip=dip, seq=seq, route=route, payload=payload,
                   segment_index=seg, sent_at=sent_at, hop_limit=r.u8())


@dataclass(frozen=True)
class AckPacket(Message):
    """Signed end-to-end acknowledgement travelling the reverse route."""

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=31,
        name="ACK",
        function="End-to-end signed acknowledgement",
        parameters="(SIP, DIP, seq, [SIP, DIP, seq]DSK, DPK, Drn)",
    )

    sip: IPv6Address
    dip: IPv6Address
    seq: int
    route: tuple[IPv6Address, ...]
    signature: bytes
    public_key: PublicKey
    rn: int
    hop_limit: int = 64

    def _encode_fields(self, w: Writer) -> None:
        w.address(self.sip)
        w.address(self.dip)
        w.u64(self.seq)
        _encode_route(w, self.route)
        w.blob(self.signature)
        w.public_key(self.public_key)
        w.u64(self.rn)
        w.u8(self.hop_limit)

    @classmethod
    def _decode_fields(cls, r: Reader) -> "AckPacket":
        return cls(
            sip=r.address(),
            dip=r.address(),
            seq=r.u64(),
            route=_decode_route(r),
            signature=r.blob(),
            public_key=r.public_key("public_key"),
            rn=r.u64(),
            hop_limit=r.u8(),
        )
