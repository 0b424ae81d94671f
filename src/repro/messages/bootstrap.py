"""Bootstrap control messages: AREQ, AREP, DREP (Table 1, Section 3.1).

``AREQ(SIP, seq, DN, ch, RR)`` floods the MANET asking "does anyone hold
SIP (or DN)?".  A holder answers with ``AREP(SIP, RR, [SIP, ch]_RSK,
RPK, Rrn)`` unicast back along the reverse route record; the DNS server
answers a name conflict with ``DREP(SIP, RR, [DN, ch]_NSK)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import Message, MessageMeta, Reader, Writer


def _encode_route(w: Writer, route: tuple[IPv6Address, ...]) -> None:
    w.u16(len(route))
    for hop in route:
        w.address(hop)


def _decode_route(r: Reader) -> tuple[IPv6Address, ...]:
    return tuple(r.address() for _ in range(r.u16()))


@dataclass(frozen=True)
class AREQ(Message):
    """Address REQuest -- flooded, extended-DAD probe.

    Parameters mirror Table 1: ``(SIP, seq, DN, ch, RR)``.

    * ``sip`` -- the tentative address S wants to claim.
    * ``seq`` -- S's sequence number; duplicate AREQs are not rebroadcast.
    * ``domain_name`` -- 6DNAR registration request; "" when not desired.
    * ``ch`` -- random challenge; a valid AREP/DREP must sign it, which is
      what kills replays of old replies.
    * ``route_record`` -- appended hop-by-hop, yields the reverse path for
      the unicast reply.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=10,
        name="AREQ",
        function="Address REQuest",
        parameters="(SIP, seq, DN, ch, RR)",
    )

    sip: IPv6Address
    seq: int
    domain_name: str
    ch: int
    route_record: tuple[IPv6Address, ...] = ()
    hop_limit: int = 64

    def append_hop(self, hop: IPv6Address) -> "AREQ":
        """The rebroadcast copy with ``hop`` appended to RR and TTL decremented.

        Its wire size is this message's plus one encoded address.
        """
        w = Writer()
        w.address(hop)
        return self._relayed(
            len(w),
            route_record=self.route_record + (hop,),
            hop_limit=self.hop_limit - 1,
        )

    def _encode_fields(self, w: Writer) -> None:
        w.address(self.sip)
        w.u64(self.seq)
        w.text(self.domain_name)
        w.u64(self.ch)
        _encode_route(w, self.route_record)
        w.u8(self.hop_limit)

    @classmethod
    def _decode_fields(cls, r: Reader) -> "AREQ":
        return cls(
            sip=r.address(),
            seq=r.u64(),
            domain_name=r.text("domain_name"),
            ch=r.u64(),
            route_record=_decode_route(r),
            hop_limit=r.u8(),
        )


@dataclass(frozen=True)
class AREP(Message):
    """Address REPly -- "SIP is mine", with proof.

    ``signature`` is ``[SIP, ch]_RSK`` (see
    :func:`repro.messages.signing.arep_payload`); ``public_key``/``rn``
    are R's CGA parameters so the receiver can check
    ``low64(SIP) == H(RPK, Rrn)``.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=11,
        name="AREP",
        function="Address REPly",
        parameters="(SIP, RR, [SIP, ch]RSK, RPK, Rrn)",
    )

    sip: IPv6Address
    route_record: tuple[IPv6Address, ...]
    signature: bytes
    public_key: PublicKey
    rn: int
    #: Challenge echoed in clear so the DNS (which issued no ch of its own
    #: for this AREQ) can look up the pending registration it guards.
    ch: int = 0
    #: True for the copy warning the DNS server.  The paper says R also
    #: "unicasts an AREP to DNS"; before routing exists there may be no
    #: route to the DNS, so the warning copy is flooded (relays dedup on
    #: (SIP, ch)).  Security is unaffected -- the warning is signed.
    to_dns: bool = False
    hop_limit: int = 64

    def _encode_fields(self, w: Writer) -> None:
        w.address(self.sip)
        _encode_route(w, self.route_record)
        w.blob(self.signature)
        w.public_key(self.public_key)
        w.u64(self.rn)
        w.u64(self.ch)
        w.u8(1 if self.to_dns else 0)
        w.u8(self.hop_limit)

    @classmethod
    def _decode_fields(cls, r: Reader) -> "AREP":
        return cls(
            sip=r.address(),
            route_record=_decode_route(r),
            signature=r.blob(),
            public_key=r.public_key("public_key"),
            rn=r.u64(),
            ch=r.u64(),
            to_dns=r.flag("to_dns"),
            hop_limit=r.u8(),
        )


@dataclass(frozen=True)
class DREP(Message):
    """DNS server REPly -- "that domain name is taken".

    ``signature`` is ``[DN, ch]_NSK``; the joiner verifies it with the
    DNS public key it was pre-configured with, the *only* pre-shared
    security state in the whole system.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=12,
        name="DREP",
        function="DNS server REPly",
        parameters="(SIP, RR, [DN, ch]NSK)",
    )

    sip: IPv6Address
    route_record: tuple[IPv6Address, ...]
    domain_name: str
    signature: bytes
    hop_limit: int = 64

    def _encode_fields(self, w: Writer) -> None:
        w.address(self.sip)
        _encode_route(w, self.route_record)
        w.text(self.domain_name)
        w.blob(self.signature)
        w.u8(self.hop_limit)

    @classmethod
    def _decode_fields(cls, r: Reader) -> "DREP":
        return cls(
            sip=r.address(),
            route_record=_decode_route(r),
            domain_name=r.text("domain_name"),
            signature=r.blob(),
            hop_limit=r.u8(),
        )
