"""Bootstrap control messages: AREQ, AREP, DREP (Table 1, Section 3.1).

``AREQ(SIP, seq, DN, ch, RR)`` floods the MANET asking "does anyone hold
SIP (or DN)?".  A holder answers with ``AREP(SIP, RR, [SIP, ch]_RSK,
RPK, Rrn)`` unicast back along the reverse route record; the DNS server
answers a name conflict with ``DREP(SIP, RR, [DN, ch]_NSK)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import U8, U64, Message, MessageMeta, Writer


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
    seq: U64
    domain_name: str
    ch: U64
    route_record: tuple[IPv6Address, ...] = ()
    hop_limit: U8 = 64

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
    rn: U64
    #: Challenge echoed in clear so the DNS (which issued no ch of its own
    #: for this AREQ) can look up the pending registration it guards.
    ch: U64 = 0
    #: True for the copy warning the DNS server.  The paper says R also
    #: "unicasts an AREP to DNS"; before routing exists there may be no
    #: route to the DNS, so the warning copy is flooded (relays dedup on
    #: :meth:`content`).  Security is unaffected -- the warning is signed.
    to_dns: bool = False
    hop_limit: U8 = 64

    def content(self) -> tuple:
        """What a warning says: its relayed copies differ only in
        ``hop_limit``.  Relays dedup the flood on it, and the DNS server
        its rejections.  ``(sip, ch)`` alone would not do: a forgery may
        echo a joiner's clear ``sip`` and ``ch``."""
        return (self.sip, self.ch, self.public_key, self.rn, self.signature)


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
    hop_limit: U8 = 64
