"""Message base class, binary field primitives and the one field codec.

A :class:`Message` is an immutable record; mutation patterns like
"append my identity to the route record and rebroadcast" produce new
objects (:meth:`Message.replace` copies the field dict), which prevents
an intermediate node from accidentally sharing state with queued copies
of the same flood.  A relayed copy also takes its wire size from the
copy it was made from (:meth:`Message.forwarded` and the per-type relay
helpers), so relaying never runs the encoder.

A message's dataclass fields are its wire layout: they travel in
declaration order, each as the :class:`WireKind` its annotation names
(:func:`wire_layout`).  :class:`Writer`/:class:`Reader` are tiny
big-endian binary builders under that walk; keeping them here lets
message modules declare kinds of their own without importing the codec
(avoiding a cycle).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, is_dataclass
from typing import (
    Annotated, Any, Callable, ClassVar, NamedTuple, get_args, get_origin, get_type_hints,
)

from repro.crypto.backend import get_backend
from repro.crypto.keys import PrivateKey, PublicKey
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

    Subclasses set ``META`` and declare their fields in wire order, each
    annotated with its wire kind (:func:`wire_layout`).  ``hop_limit``
    is a simulator-level TTL shared by all messages (IPv6 hop limit); it
    is intentionally *not* covered by any signature, exactly as in real
    IP.
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

    # Field codec --------------------------------------------------------
    # A subclass may bring its own pair instead; no layout is then built
    # for it.
    def _encode_fields(self, w: Writer) -> None:
        write_fields(w, self, wire_layout(type(self)))

    @classmethod
    def _decode_fields(cls, r: Reader) -> "Message":
        return read_fields(r, cls, wire_layout(cls))


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

    def flag(self, v: bool) -> None:
        """A bool byte: 1 or 0."""
        self.u8(1 if v else 0)

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


class WireKind(NamedTuple):
    """How one field value travels.

    ``encode(w, value)`` writes it; ``decode(r, field)`` reads it back
    and names ``field`` in any :class:`CodecError` it raises.
    """

    encode: Callable[[Writer, Any], None]
    decode: Callable[[Reader, str], Any]


#: Integer fields state their width: ``seq: U64``, ``hop_limit: U8 = 64``.
U8 = Annotated[int, WireKind(Writer.u8, lambda r, field: r.u8())]
U16 = Annotated[int, WireKind(Writer.u16, lambda r, field: r.u16())]
U64 = Annotated[int, WireKind(Writer.u64, lambda r, field: r.u64())]

#: The kind of each plain annotation.  ``int`` has none (it has no
#: width), and ``PrivateKey`` is listed with none: it never travels.
_KINDS = {
    IPv6Address: WireKind(Writer.address, lambda r, field: r.address()),
    PublicKey: WireKind(Writer.public_key, Reader.public_key),
    bytes: WireKind(Writer.blob, lambda r, field: r.blob()),
    str: WireKind(Writer.text, Reader.text),
    bool: WireKind(Writer.flag, Reader.flag),
    PrivateKey: None,
}

#: One field of a layout: its attribute name, the name a
#: :class:`CodecError` gives it, and its kind's encode and decode.
Layout = tuple[tuple[str, str, Callable, Callable], ...]


@functools.cache
def wire_layout(cls: type, prefix: str = "") -> Layout:
    """The fields of dataclass ``cls`` in wire order, built once per class.

    Each field is written as the kind its annotation names: an
    ``Annotated`` alias carrying a :class:`WireKind` (``U8``/``U16``/
    ``U64`` or a kind of the message's own module), a plain kind of
    ``_KINDS``, ``tuple[X, ...]`` (a ``u16`` count, then each ``X``), or
    a nested dataclass record (its own fields, named
    ``"<field>.<name>"`` in errors, as ``srr.public_key``).  ``prefix``
    is put before every field's error name.  A field whose annotation
    names no kind raises ``TypeError`` naming the class and the field.
    """
    hints = get_type_hints(cls, include_extras=True)
    layout = []
    for f in fields(cls):
        label = prefix + f.name
        kind = _kind(hints[f.name], label)
        if kind is None:
            raise TypeError(
                f"{cls.__name__}.{f.name}: annotation {hints[f.name]!r} "
                "names no wire kind"
            )
        layout.append((f.name, label, kind.encode, kind.decode))
    return tuple(layout)


def _kind(hint, label: str) -> WireKind | None:
    """The kind annotation ``hint`` names, or None if it names none."""
    if get_origin(hint) is Annotated:
        return next((m for m in hint.__metadata__ if isinstance(m, WireKind)), None)
    if hint in _KINDS:
        return _KINDS[hint]
    if get_origin(hint) is tuple:
        args = get_args(hint)
        item = _kind(args[0], label) if args[1:] == (...,) else None
        if item is None:
            return None
        put, get = item

        def encode(w: Writer, items: tuple) -> None:
            w.u16(len(items))
            for value in items:
                put(w, value)

        return WireKind(encode, lambda r, field: tuple(get(r, field) for _ in range(r.u16())))
    if is_dataclass(hint):
        layout = wire_layout(hint, label + ".")
        return WireKind(
            lambda w, record: write_fields(w, record, layout),
            lambda r, field: read_fields(r, hint, layout),
        )
    return None


def write_fields(w: Writer, obj, layout: Layout) -> None:
    """Write ``obj``'s fields as ``layout`` lists them."""
    for name, _, encode, _ in layout:
        encode(w, getattr(obj, name))


def read_fields(r: Reader, cls: type, layout: Layout):
    """Read a ``cls`` whose fields ``layout`` lists."""
    return cls(*[decode(r, label) for _, label, _, decode in layout])
