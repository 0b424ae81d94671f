"""Message base class and binary field primitives.

A :class:`Message` is an immutable record; mutation patterns like
"append my identity to the route record and rebroadcast" produce new
objects (:meth:`Message.replace` copies the field dict), which prevents
an intermediate node from accidentally sharing state with queued copies
of the same flood.  A relayed copy also takes its wire size from the
copy it was made from (:meth:`Message.forwarded` and the per-type relay
helpers), so relaying never runs the encoder.

:class:`Writer`/:class:`Reader` are tiny big-endian binary builders used
by the codec; keeping them here lets message modules define their own
``_encode_fields``/``_decode_fields`` without importing the codec
(avoiding a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.crypto.backend import get_backend
from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address


class CodecError(ValueError):
    """Raised on malformed wire data."""


@dataclass(frozen=True)
class MessageMeta:
    """Per-type metadata used by the codec registry and Table 1 printer."""

    type_id: int
    name: str
    function: str  # the "Function" column of Table 1
    parameters: str  # the "Parameters" column of Table 1, paper notation


@dataclass(frozen=True)
class Message:
    """Base class of every protocol message.

    Subclasses set ``META`` and implement ``_encode_fields``/
    ``_decode_fields``.  ``hop_limit`` is a simulator-level TTL shared by
    all messages (IPv6 hop limit); it is intentionally *not* covered by
    any signature, exactly as in real IP.
    """

    META: ClassVar[MessageMeta]

    def replace(self, **changes) -> "Message":
        """Functional update (fields are immutable).

        Builds the copy from this instance's field dict without running
        ``__init__`` -- the same object ``dataclasses.replace`` builds,
        since no message has a ``__post_init__`` or an ``init=False``
        field.  The copy carries neither wire bytes nor a size: changed
        fields mean changed bytes, and :meth:`wire_size` re-encodes
        lazily.  A name that is not a field raises ``TypeError``.
        """
        state = self.__dict__.copy()
        state.pop("_wire_cache", None)
        state.pop("_wire_size", None)
        if not changes.keys() <= state.keys():
            unknown = sorted(changes.keys() - state.keys())
            raise TypeError(f"{type(self).__name__} has no field {unknown[0]!r}")
        state.update(changes)
        copy = object.__new__(type(self))
        object.__setattr__(copy, "__dict__", state)
        return copy

    def forwarded(self) -> "Message":
        """The copy a relay sends on: hop limit one lower.

        ``hop_limit`` is a ``u8`` before and after, so the copy is the
        size of this message.
        """
        return self._relayed(0, hop_limit=self.hop_limit - 1)

    def _relayed(self, grown: int, **changes) -> "Message":
        """``replace(**changes)`` whose wire size is this message's plus
        the ``grown`` bytes the relay appended, so the copy never encodes."""
        copy = self.replace(**changes)
        copy.__dict__["_wire_size"] = self.wire_size() + grown
        return copy

    # Wire cache ---------------------------------------------------------
    # Both memos live in the instance dict, outside the dataclass fields:
    # invisible to __eq__/__repr__ and dropped by replace().
    def wire_bytes(self) -> bytes:
        """This message's wire encoding, computed at most once.

        Messages are immutable wire objects, so the first encode (type id
        byte + fields, via the codec) is cached on the instance: the size
        of an originated message, a DNS payload and a second send of the
        same copy reuse the same bytes.  The codec's
        ``encode_call_count()`` counts actual encodes.
        """
        cached = self.__dict__.get("_wire_cache")
        if cached is None:
            from repro.messages.codec import encode_message

            cached = encode_message(self)
            self.__dict__["_wire_cache"] = cached
        return cached

    def wire_size(self) -> int:
        """Encoded size in bytes, cached on the instance.

        A relayed copy was given its size by the relay helper that made
        it; any other message takes the length of :meth:`wire_bytes`.
        """
        size = self.__dict__.get("_wire_size")
        if size is None:
            size = len(self.wire_bytes())
            self.__dict__["_wire_size"] = size
        return size

    def summary(self) -> str:
        """One-line human-readable form for traces."""
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bytes):
                v = v.hex()[:12] + ".."
            elif isinstance(v, (list, tuple)) and len(repr(v)) > 40:
                v = f"<{len(v)} items>"
            parts.append(f"{f.name}={v}")
        return f"{self.META.name}({', '.join(parts)})"

    # Subclass API -------------------------------------------------------
    def _encode_fields(self, w: "Writer") -> None:
        raise NotImplementedError

    @classmethod
    def _decode_fields(cls, r: "Reader") -> "Message":
        raise NotImplementedError


class Writer:
    """Append-only big-endian binary builder."""

    __slots__ = ("_chunks",)

    def __init__(self):
        self._chunks: list[bytes] = []

    def u8(self, v: int) -> None:
        self._chunks.append(v.to_bytes(1, "big"))

    def u16(self, v: int) -> None:
        self._chunks.append(v.to_bytes(2, "big"))

    def u32(self, v: int) -> None:
        self._chunks.append(v.to_bytes(4, "big"))

    def u64(self, v: int) -> None:
        self._chunks.append(v.to_bytes(8, "big"))

    def raw(self, b: bytes) -> None:
        self._chunks.append(b)

    def blob(self, b: bytes) -> None:
        """Length-prefixed (u16) byte string."""
        if len(b) > 0xFFFF:
            raise CodecError(f"blob too long ({len(b)} bytes)")
        self.u16(len(b))
        self.raw(b)

    def text(self, s: str) -> None:
        """Length-prefixed UTF-8 string (domain names)."""
        self.blob(s.encode("utf-8"))

    def address(self, a: IPv6Address) -> None:
        self.raw(a.packed)

    def public_key(self, k: PublicKey) -> None:
        """Backend-name-tagged public key."""
        self.text(k.backend)
        self.blob(k.encode())

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def __len__(self) -> int:
        """Bytes written so far (how relay helpers size what they append)."""
        return sum(map(len, self._chunks))


class Reader:
    """Sequential big-endian binary reader with bounds checking."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError(
                f"truncated message: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def blob(self) -> bytes:
        return self._take(self.u16())

    def text(self, field: str) -> str:
        data = self.blob()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(
                f"{field}: invalid UTF-8 at byte {exc.start}"
            ) from None

    def flag(self, field: str) -> bool:
        """A bool byte; only 0 and 1 decode (any other would re-encode as 1)."""
        v = self.u8()
        if v > 1:
            raise CodecError(f"{field}: bool byte must be 0 or 1, got {v}")
        return v == 1

    def address(self) -> IPv6Address:
        return IPv6Address(self._take(16))

    def public_key(self, field: str) -> PublicKey:
        backend_name = self.text(field)
        key_bytes = self.blob()
        try:
            backend = get_backend(backend_name)
        except KeyError:
            raise CodecError(
                f"{field}: unknown crypto backend {backend_name!r}"
            ) from None
        try:
            return backend.decode_public_key(key_bytes)
        except ValueError as exc:
            raise CodecError(f"{field}: {exc}") from None

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    def expect_exhausted(self) -> None:
        if not self.exhausted:
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )
