"""Source-routed data packets and end-to-end acknowledgements.

DSR data packets carry the full route in the header.  The ACK is signed
by the destination (see :func:`repro.messages.signing.ack_payload`) so
that relays cannot mint credit by forging acknowledgements -- the credit
mechanism of Section 3.4 rewards hops only on *verified* delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, ClassVar

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import U8, U64, CodecError, Message, MessageMeta, Reader, WireKind


def _read_segment_index(r: Reader, field: str) -> int:
    seg = r.u16()
    return -1 if seg == 0xFFFF else seg


def _read_seconds(r: Reader, field: str) -> float:
    ns = r.u64()
    seconds = ns / 1e9
    if round(seconds * 1e9) != ns:
        raise CodecError(f"{field}: {ns} ns does not survive decode -> encode")
    return seconds


#: A hop cursor as a ``u16``; -1 (at the source) travels as 0xFFFF.
SegmentIndex = Annotated[int, WireKind(lambda w, v: w.u16(v & 0xFFFF), _read_segment_index)]

#: A time in seconds as a ``u64`` count of nanoseconds (the nearest
#: one); a count that would not re-encode to itself does not decode.
Nanoseconds = Annotated[float, WireKind(lambda w, v: w.u64(round(v * 1e9)), _read_seconds)]


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
    seq: U64
    route: tuple[IPv6Address, ...]
    payload: bytes = b""
    segment_index: SegmentIndex = -1
    #: Origination timestamp (a real stack would carry this in an
    #: application header; used for end-to-end latency measurement).
    sent_at: Nanoseconds = 0.0
    hop_limit: U8 = 64

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
    seq: U64
    route: tuple[IPv6Address, ...]
    signature: bytes
    public_key: PublicKey
    rn: U64
    hop_limit: U8 = 64
