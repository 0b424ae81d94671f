"""DNS service messages (Section 3.2).

Name resolution is challenge/response: the client includes a random
``ch`` in its query and the server's signed answer covers ``(DN, IP,
ch)``, so replaying an old response for a name whose binding has since
changed is rejected.  The IP-change exchange follows the paper exactly:
DNS issues a challenge; the holder presents old IP, new IP, both random
modifiers, its public key, and ``[XIP, X'IP, ch]_XSK``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import U8, U64, Message, MessageMeta


@dataclass(frozen=True)
class DNSQuery(Message):
    """Resolve ``domain_name``; ``ch`` is the client's anti-replay challenge."""

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=40,
        name="DNSQ",
        function="DNS name resolution query",
        parameters="(SIP, DN, ch)",
    )

    sip: IPv6Address
    domain_name: str
    ch: U64
    hop_limit: U8 = 64


@dataclass(frozen=True)
class DNSResponse(Message):
    """Signed answer: (DN, IP, ch) under the DNS server's key.

    ``found`` is False for NXDOMAIN (still signed, so an attacker cannot
    deny a name's existence by forging negatives).
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=41,
        name="DNSR",
        function="DNS name resolution response",
        parameters="(DN, IP, found, [DN, IP, ch]NSK)",
    )

    domain_name: str
    ip: IPv6Address
    found: bool
    ch: U64
    signature: bytes
    hop_limit: U8 = 64


@dataclass(frozen=True)
class DNSUpdateChallenge(Message):
    """DNS -> holder: "prove you own the binding" (carries the server's ch)."""

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=42,
        name="DNSUC",
        function="DNS IP-change challenge",
        parameters="(DN, ch)",
    )

    domain_name: str
    ch: U64
    hop_limit: U8 = 64


@dataclass(frozen=True)
class DNSUpdateRequest(Message):
    """Holder -> DNS: the authenticated IP change of Section 3.2.

    Presents ``XIP`` (old), ``X'IP`` (new), both random modifiers, the
    (unchanged) public key, and ``[XIP, X'IP, ch]_XSK``.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=43,
        name="DNSU",
        function="DNS authenticated IP change",
        parameters="(DN, XIP, X'IP, Xrn, X'rn, XPK, [XIP, X'IP, ch]XSK)",
    )

    domain_name: str
    old_ip: IPv6Address
    new_ip: IPv6Address
    old_rn: U64
    new_rn: U64
    public_key: PublicKey
    signature: bytes
    hop_limit: U8 = 64


@dataclass(frozen=True)
class DNSUpdateReply(Message):
    """DNS -> holder: signed accept/reject of an IP change."""

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=44,
        name="DNSUR",
        function="DNS IP-change result",
        parameters="(DN, new IP, accepted, [DN, IP, ch]NSK)",
    )

    domain_name: str
    new_ip: IPv6Address
    accepted: bool
    ch: U64
    signature: bytes
    hop_limit: U8 = 64
