"""RFC 2461 Neighbor Discovery messages (NS/NA).

The paper's AREQ/AREP extend NS/NA to multiple hops (Section 2.2); the
one-hop originals are kept as the baseline DAD mechanism and carry the
optional 6DNAR "domain name" option (Section 2.4) so single-hop name
registration also works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.ipv6.address import IPv6Address
from repro.messages.base import U8, Message, MessageMeta


@dataclass(frozen=True)
class NeighborSolicitation(Message):
    """NS: "is anyone using ``target``?" -- one-hop DAD probe.

    ``domain_name`` is the 6DNAR option; empty when the sender does not
    want a name registered.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=1,
        name="NS",
        function="Neighbor Solicitation (one-hop DAD probe)",
        parameters="(target, DN)",
    )

    target: IPv6Address
    domain_name: str = ""
    hop_limit: U8 = 1


@dataclass(frozen=True)
class NeighborAdvertisement(Message):
    """NA: "that address (or name) is mine" -- one-hop DAD defence."""

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=2,
        name="NA",
        function="Neighbor Advertisement (address/name defence)",
        parameters="(target, DN, duplicate_name)",
    )

    target: IPv6Address
    domain_name: str = ""
    #: True when the conflict is on the domain name rather than the address.
    duplicate_name: bool = False
    hop_limit: U8 = 1
