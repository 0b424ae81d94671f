"""Routing control messages: RREQ, RREP, CREP, RERR (Table 1, §3.3-3.4).

The distinguishing structure is the *secure route record* (SRR): each
intermediate node I appends an :class:`SRREntry`
``([I_IP, seq]_ISK, I_PK, I_rn)`` to the flooded RREQ, so the destination
can verify the identity of **every** hop -- the paper's improvement over
BSAR's endpoint-only verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import U8, U64, Message, MessageMeta, Writer, wire_layout


@dataclass(frozen=True)
class SRREntry:
    """One hop's identity proof inside the SRR.

    Fields map to the paper's ``([I_IP, seq]_ISK, I_PK, I_rn)``.

    An honest relay builds its entry with :meth:`deferred`: the
    signature bytes are computed when something first reads
    ``signature`` (D's SRR check, an encode, ``==``/``hash``), by a
    signer bound to the relay's key and payload.  Only D reads them in
    the paper's setting, and relayed copies share the entry, so each
    signature is computed at most once.  ``repr`` leaves the signature
    out, so formatting an entry (a trace line, ``repr`` of its RREQ)
    never signs it.
    """

    __slots__ = ("ip", "signature", "public_key", "rn", "_signature_size", "_signer")

    ip: IPv6Address
    signature: bytes
    public_key: PublicKey
    rn: U64

    def __post_init__(self) -> None:
        object.__setattr__(self, "_signature_size", len(self.signature))

    @classmethod
    def deferred(
        cls,
        *,
        ip: IPv6Address,
        public_key: PublicKey,
        rn: int,
        signer: Callable[[], bytes],
        signature_size: int,
    ) -> "SRREntry":
        """An entry whose signature is ``signer()``, run on first read.

        ``signature_size`` is the length ``signer`` returns, so the
        entry is sized without signing.  The signer sits in a private
        slot and is dropped once it has run; ``copy`` and ``pickle``
        read the bytes and never see it.
        """
        entry = object.__new__(cls)
        for name, value in (("ip", ip), ("public_key", public_key), ("rn", rn),
                            ("_signature_size", signature_size), ("_signer", signer)):
            object.__setattr__(entry, name, value)
        return entry

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the signature of a deferred
        # entry before its first read.
        if name != "signature":
            raise AttributeError(f"'SRREntry' object has no attribute {name!r}")
        signature = self._signer()
        if len(signature) != self._signature_size:
            raise ValueError(
                f"signer returned {len(signature)} bytes, sized as {self._signature_size}"
            )
        object.__setattr__(self, "signature", signature)
        object.__delattr__(self, "_signer")
        return signature

    def __reduce__(self):
        return (type(self), (self.ip, self.signature, self.public_key, self.rn))

    def __repr__(self) -> str:
        # The dataclass repr minus the signature; reading it would sign.
        return f"SRREntry(ip={self.ip!r}, public_key={self.public_key!r}, rn={self.rn!r})"

    def wire_size(self) -> int:
        """Encoded length in bytes; sizing a deferred entry does not sign it."""
        w = Writer()
        for name, _, encode, _ in wire_layout(SRREntry):
            if name != "signature":
                encode(w, getattr(self, name))
        return len(w) + 2 + self._signature_size  # + the signature blob


@dataclass(frozen=True)
class RREQ(Message):
    """Route REQuest: ``(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)``.

    ``source_signature`` proves S initiated this discovery;
    ``source_public_key``/``source_rn`` are S's CGA parameters.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=20,
        name="RREQ",
        function="Route REQuest",
        parameters="(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)",
    )

    sip: IPv6Address
    dip: IPv6Address
    seq: U64
    srr: tuple[SRREntry, ...]
    source_signature: bytes
    source_public_key: PublicKey
    source_rn: U64
    hop_limit: U8 = 64

    @property
    def route_ips(self) -> tuple[IPv6Address, ...]:
        """The plain RR extracted from the SRR (intermediate hop addresses)."""
        return tuple(e.ip for e in self.srr)

    def append_entry(self, entry: SRREntry) -> "RREQ":
        """Rebroadcast copy with this hop's identity proof appended.

        Its wire size is this message's plus ``entry.wire_size()``, so a
        deferred entry stays unsigned.
        """
        return self._relayed(
            entry.wire_size(), srr=self.srr + (entry,), hop_limit=self.hop_limit - 1
        )

    def __getstate__(self) -> dict:
        # copy, deepcopy and pickle: every entry's signature is read
        # first, so no copy of this message carries a pending signer.
        for entry in self.srr:
            entry.signature
        return self.__dict__


@dataclass(frozen=True)
class RREP(Message):
    """Route REPly: ``(SIP, DIP, [SIP, seq, RR]DSK, DPK, Drn)``.

    ``route`` is RR in the clear (needed for reverse-path forwarding);
    ``signature`` covers (SIP, seq, RR) under D's key, so tampering with
    the path en route back is detectable by S.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=21,
        name="RREP",
        function="Route REPly",
        parameters="(SIP, DIP, [SIP, seq, RR]DSK, DPK, Drn)",
    )

    sip: IPv6Address
    dip: IPv6Address
    seq: U64
    route: tuple[IPv6Address, ...]
    signature: bytes
    public_key: PublicKey
    rn: U64
    hop_limit: U8 = 64


@dataclass(frozen=True)
class CREP(Message):
    """Cached route REPly (Table 1):

    ``(S'IP, SIP, DIP, RR(S'->S), [S'IP, seq', RR(S'->S)]SSK, SPK, Srn,
    [SIP, seq, RR(S->D)]DSK, DPK, Drn)``

    S (the cache holder) answers S' with two verifiable legs:

    * a *fresh* leg -- S' -> S -- signed by S now (``fresh_*`` fields,
      sequence ``fresh_seq`` = seq' initiated by S'), and
    * the *cached* leg -- S -> D -- the original destination signature S
      kept from its own discovery (``cached_*`` fields, the old ``seq``).
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=22,
        name="CREP",
        function="Cached route REPly",
        parameters=(
            "(S'IP, SIP, DIP, RR(S'->S), [S'IP, seq', RR(S'->S)]SSK, SPK, Srn, "
            "[SIP, seq, RR(S->D)]DSK, DPK, Drn)"
        ),
    )

    sprime_ip: IPv6Address
    sip: IPv6Address
    dip: IPv6Address
    fresh_seq: U64
    fresh_route: tuple[IPv6Address, ...]
    fresh_signature: bytes
    fresh_public_key: PublicKey
    fresh_rn: U64
    cached_seq: U64
    cached_route: tuple[IPv6Address, ...]
    cached_signature: bytes
    cached_public_key: PublicKey
    cached_rn: U64
    hop_limit: U8 = 64

    def full_route(self) -> tuple[IPv6Address, ...]:
        """The spliced S' -> S -> D intermediate-hop list (S itself included)."""
        return self.fresh_route + (self.sip,) + self.cached_route


@dataclass(frozen=True)
class RERR(Message):
    """Route ERRor: ``(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)``.

    Reporter I claims its link to next hop I' broke.  The signature +
    CGA parameters force I to expose its identity to the source --
    the hook the paper's credit mechanism uses to track RERR spammers.
    """

    META: ClassVar[MessageMeta] = MessageMeta(
        type_id=23,
        name="RERR",
        function="Route ERRor",
        parameters="(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)",
    )

    reporter_ip: IPv6Address
    broken_next_hop: IPv6Address
    signature: bytes
    public_key: PublicKey
    rn: U64
    #: The source the report is addressed to (needed for reverse routing).
    sip: IPv6Address = IPv6Address(0)
    #: Transport detail: the hops between the reporter and S (reporter's
    #: side first), i.e. the reverse of the data route's prefix.  The
    #: paper leaves RERR transport implicit; DSR sends it back along the
    #: source route, which requires carrying this list.  It is *not*
    #: signed -- tampering with it only misdelivers the report.
    return_route: tuple[IPv6Address, ...] = ()
    hop_limit: U8 = 64
