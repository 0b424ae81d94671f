"""Codec round-trip and robustness tests for every message type (Table 1)."""

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.crypto.backend import get_backend
from repro.crypto.keys import PrivateKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import U8, CodecError, Message, MessageMeta, wire_layout
from repro.messages.bootstrap import AREP, AREQ, DREP
from repro.messages.codec import (
    MESSAGE_TYPES,
    decode_message,
    encode_message,
    register_message_type,
    table1_rows,
    wire_size,
)
from repro.messages.data import AckPacket, DataPacket
from repro.messages.dns import (
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateReply,
    DNSUpdateRequest,
)
from repro.messages.ndp import NeighborAdvertisement, NeighborSolicitation
from repro.messages.routing import CREP, RERR, RREP, RREQ, SRREntry

KEY = get_backend("simsig").generate_keypair(b"codec-tests").public
A1 = IPv6Address("fec0::1")
A2 = IPv6Address("fec0::2")
A3 = IPv6Address("fec0::3")


def sample_messages(key=KEY):
    """One representative instance of every wire-registered message,
    every public key field holding ``key``."""
    entry = SRREntry(ip=A2, signature=b"\x01" * 16, public_key=key, rn=42)
    return [
        NeighborSolicitation(target=A1, domain_name="a.manet"),
        NeighborAdvertisement(target=A1, domain_name="a.manet", duplicate_name=True),
        AREQ(sip=A1, seq=9, domain_name="host.manet", ch=777, route_record=(A2, A3)),
        AREP(sip=A1, route_record=(A2,), signature=b"\x05" * 16,
             public_key=key, rn=3, ch=777, to_dns=True),
        DREP(sip=A1, route_record=(A2, A3), domain_name="host.manet",
             signature=b"\x06" * 16),
        RREQ(sip=A1, dip=A3, seq=5, srr=(entry, entry),
             source_signature=b"\x07" * 16, source_public_key=key, source_rn=1),
        RREP(sip=A1, dip=A3, seq=5, route=(A2,), signature=b"\x08" * 16,
             public_key=key, rn=2),
        CREP(sprime_ip=A1, sip=A2, dip=A3, fresh_seq=6, fresh_route=(),
             fresh_signature=b"\x09" * 16, fresh_public_key=key, fresh_rn=4,
             cached_seq=2, cached_route=(A1,), cached_signature=b"\x0a" * 16,
             cached_public_key=key, cached_rn=5),
        RERR(reporter_ip=A2, broken_next_hop=A3, signature=b"\x0b" * 16,
             public_key=key, rn=6, sip=A1, return_route=(A2,)),
        DataPacket(sip=A1, dip=A3, seq=11, route=(A2,), payload=b"hello",
                   segment_index=0, sent_at=1.5),
        AckPacket(sip=A1, dip=A3, seq=11, route=(A2,), signature=b"\x0c" * 16,
                  public_key=key, rn=7),
        DNSQuery(sip=A1, domain_name="host.manet", ch=33),
        DNSResponse(domain_name="host.manet", ip=A3, found=True, ch=33,
                    signature=b"\x0d" * 16),
        DNSUpdateChallenge(domain_name="host.manet", ch=44),
        DNSUpdateRequest(domain_name="host.manet", old_ip=A1, new_ip=A2,
                         old_rn=1, new_rn=2, public_key=key,
                         signature=b"\x0e" * 16),
        DNSUpdateReply(domain_name="host.manet", new_ip=A2, accepted=True,
                       ch=44, signature=b"\x0f" * 16),
    ]


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_roundtrip(msg):
    data = encode_message(msg)
    decoded = decode_message(data)
    assert decoded == msg
    assert wire_size(msg) == len(data)


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_truncation_raises(msg):
    data = encode_message(msg)
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises(CodecError):
            decode_message(data[:cut])


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_trailing_garbage_raises(msg):
    with pytest.raises(CodecError):
        decode_message(encode_message(msg) + b"\x00")


def test_empty_and_unknown_type_rejected():
    with pytest.raises(CodecError):
        decode_message(b"")
    with pytest.raises(CodecError):
        decode_message(bytes([250]))


def test_all_type_ids_unique():
    ids = [cls.META.type_id for cls in MESSAGE_TYPES.values()]
    assert len(ids) == len(set(ids))


def test_register_duplicate_id_rejected():
    from dataclasses import dataclass
    from typing import ClassVar

    from repro.messages.base import Message, MessageMeta

    @dataclass(frozen=True)
    class Imposter(Message):
        META: ClassVar[MessageMeta] = MessageMeta(10, "IMP", "imposter", "()")

    with pytest.raises(ValueError):
        register_message_type(Imposter)


def test_unregistered_message_cannot_encode():
    from dataclasses import dataclass
    from typing import ClassVar

    from repro.messages.base import Message, MessageMeta

    @dataclass(frozen=True)
    class Stranger(Message):
        META: ClassVar[MessageMeta] = MessageMeta(200, "STR", "stranger", "()")

    with pytest.raises(CodecError):
        encode_message(Stranger())


def test_table1_rows_match_paper():
    rows = table1_rows()
    assert [r[0] for r in rows] == ["AREQ", "AREP", "DREP", "RREQ", "RREP", "CREP", "RERR"]
    # Spot-check the parameter columns against Table 1.
    by_type = {r[0]: r[2] for r in rows}
    assert by_type["AREQ"] == "(SIP, seq, DN, ch, RR)"
    assert by_type["RREQ"] == "(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)"
    assert by_type["RERR"] == "(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)"


def test_rsa_public_key_roundtrips_in_message():
    rsa_key = get_backend("rsa").generate_keypair(b"codec-rsa").public
    msg = RREP(sip=A1, dip=A3, seq=1, route=(), signature=b"\x01" * 64,
               public_key=rsa_key, rn=0)
    assert decode_message(encode_message(msg)) == msg


def test_data_packet_negative_segment_roundtrip():
    msg = DataPacket(sip=A1, dip=A2, seq=1, route=(), segment_index=-1)
    assert decode_message(encode_message(msg)).segment_index == -1


def test_wire_size_scales_with_route_length():
    short = AREQ(sip=A1, seq=1, domain_name="", ch=0, route_record=())
    long = AREQ(sip=A1, seq=1, domain_name="", ch=0, route_record=(A2,) * 10)
    assert wire_size(long) == wire_size(short) + 10 * 16


def test_private_key_never_in_encoded_form():
    """No message field can carry a PrivateKey -- the codec has no encoder."""
    from repro.crypto.keys import PrivateKey
    from repro.messages.base import Writer

    w = Writer()
    with pytest.raises(AttributeError):
        w.public_key(PrivateKey("simsig", b"secret"))  # type: ignore[arg-type]


# -- the layout is the dataclass fields -----------------------------------------

def test_every_registered_type_builds_its_layout_from_its_fields():
    """Each type on the shared codec writes every field, in declaration order."""
    for cls in MESSAGE_TYPES.values():
        if cls._encode_fields is not Message._encode_fields:
            continue  # brings its own pair
        layout = wire_layout(cls)
        assert [name for name, *_ in layout] == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("annotation", [int, PrivateKey, tuple[int, ...], list[IPv6Address]],
                         ids=["int", "PrivateKey", "tuple-of-int", "list"])
def test_a_field_with_no_wire_kind_is_refused_by_name(annotation):
    @dataclass(frozen=True)
    class Loose(Message):
        META: ClassVar[MessageMeta] = MessageMeta(201, "LOOSE", "loose", "()")
        hop_limit: U8
        secret: annotation

    with pytest.raises(TypeError, match=r"Loose\.secret: annotation .* names no wire kind"):
        wire_layout(Loose)


def test_a_type_with_its_own_field_pair_needs_no_layout(monkeypatch):
    @dataclass(frozen=True)
    class Own(Message):
        META: ClassVar[MessageMeta] = MessageMeta(201, "OWN", "own pair", "(n)")
        n: int  # no width: only its own pair knows it is a u32

        def _encode_fields(self, w):
            w.u32(self.n)

        @classmethod
        def _decode_fields(cls, r):
            return cls(n=r.u32())

    monkeypatch.setitem(MESSAGE_TYPES, 201, Own)
    assert decode_message(encode_message(Own(n=7))) == Own(n=7)
    assert len(encode_message(Own(n=7))) == 5


# -- a decode raises only CodecError, naming the field --------------------------

def _arep(key=KEY):
    return AREP(sip=A1, route_record=(A2,), signature=b"\x05" * 16,
                public_key=key, rn=3, ch=777)


def test_unknown_key_backend_is_a_codec_error():
    data = encode_message(_arep()).replace(b"simsig", b"simsio")
    with pytest.raises(CodecError, match="public_key: unknown crypto backend 'simsio'"):
        decode_message(data)


def test_wrong_simsig_key_length_is_a_codec_error():
    material = KEY.encode()
    data = encode_message(_arep()).replace(
        len(material).to_bytes(2, "big") + material,
        (len(material) - 1).to_bytes(2, "big") + material[:-1],
    )
    with pytest.raises(CodecError, match="public_key: bad simsig public key length"):
        decode_message(data)


def test_wrong_rsa_key_length_is_a_codec_error():
    rsa_key = get_backend("rsa").generate_keypair(b"codec-rsa").public
    material = rsa_key.encode()
    data = encode_message(_arep(rsa_key)).replace(
        len(material).to_bytes(2, "big") + material,
        (len(material) + 1).to_bytes(2, "big") + material + b"\x00",
    )
    with pytest.raises(CodecError, match="public_key: bad RSA public key length"):
        decode_message(data)


def test_invalid_utf8_is_a_codec_error():
    msg = DNSQuery(sip=A1, domain_name="host.manet", ch=33)
    data = encode_message(msg).replace(b"host.manet", b"host\xffmanet")
    with pytest.raises(CodecError, match="domain_name: invalid UTF-8"):
        decode_message(data)


@pytest.mark.parametrize("msg, field", [
    (NeighborAdvertisement(target=A1, duplicate_name=True), "duplicate_name"),
    (_arep(), "to_dns"),
    (DNSResponse(domain_name="x", ip=A3, found=True, ch=1, signature=b""), "found"),
    (DNSUpdateReply(domain_name="x", new_ip=A2, accepted=True, ch=1,
                    signature=b""), "accepted"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_bool_byte_other_than_0_or_1_is_a_codec_error(msg, field):
    on = encode_message(msg.replace(**{field: True}))
    off = encode_message(msg.replace(**{field: False}))
    (pos,) = [i for i in range(len(on)) if on[i] != off[i]]
    data = bytearray(on)
    data[pos] = 2
    with pytest.raises(CodecError, match=f"{field}: bool byte must be 0 or 1"):
        decode_message(bytes(data))


def test_sent_at_nanoseconds_must_survive_decode_encode():
    msg = DataPacket(sip=A1, dip=A2, seq=1, route=(), sent_at=1.5)
    data = bytearray(encode_message(msg))
    data[-9:-1] = (2 ** 64 - 1).to_bytes(8, "big")  # sent_at, before hop_limit
    with pytest.raises(CodecError, match="sent_at"):
        decode_message(bytes(data))


def test_sent_at_encodes_the_nearest_nanosecond():
    # int() truncation re-encoded this time one nanosecond lower.
    msg = DataPacket(sip=A1, dip=A2, seq=1, route=(), sent_at=17.034919685568127)
    data = encode_message(msg)
    assert encode_message(decode_message(data)) == data


# -- the bytes themselves -------------------------------------------------------

#: sha256 of ``encode_message(m)`` for each ``sample_messages(key)`` entry,
#: in order, under the simsig key and under a 512-bit RSA key.  Round-trip
#: and size tests stay green if a field is reordered or re-widened to a
#: kind of the same size; these do not.
PINNED_WIRE_DIGESTS = {
    "simsig": [
        "f843be04e234012d883ebc8e26446f485f70551b22741883ef0b97011ba86014",
        "2f190e6180f6c813efcd10d494a4137728226f816aa6bbbddff5303573324342",
        "9b98513f57bbf218b33368eb518b9a2e7c70baa8bcb58bddce187fadbd5eb47a",
        "3212865fea57010ba3e96aee267cc1bae73eee073e93d23042feb3169d922f49",
        "cdbf8a75308c5c415ca1c36b4954b1f05767cb2dff947a22d9cd9e17cb2b7485",
        "3f873db4b97ceaebcccc4a5db1bb39b29abbd8761cf16f14f2f3584866aa8982",
        "905106075df198367ccfc49edfaa03a20e3451391870c4ba3bb2ff13c7f1c45e",
        "5c6827d68b6c1edf4127ab0fc318fd65843bec3817a0aaecd2e9a8cc7881f28b",
        "6a904ca7ed4d7a966326bcef1be51907052f392c62d0c224f305a1e2b51db2f5",
        "fc4dc1de97fa6c8b7de96f8d30f3364074edf95f41faa58f3cfcf3c102dc6955",
        "9b3d36bd335fc1df1265060d3a1069592ffda17501ff3c8a4513d8ae45c1bd33",
        "2e9d577e8d8ef33eb138ef4fc9cab4a9ebdb0cc52c2f9555f80e2bfafbd95cda",
        "e4a3b8e2d3ceea07d68514d2d3a0ef391c84b85373183d48243eebb42c94f16f",
        "178b724c356b3b75985f848d923b6cccef41356aeb6c86744753bb6b86507424",
        "1b8b735b0ac48fa6a8ce14e69901eb7777b7476d71142bd5b1ab939f3bdf0fbb",
        "27631cc9ec07ea4a90228961717ce6d4c824b23ddcdc6c08e815464c16f72358",
    ],
    "rsa": [
        "f843be04e234012d883ebc8e26446f485f70551b22741883ef0b97011ba86014",
        "2f190e6180f6c813efcd10d494a4137728226f816aa6bbbddff5303573324342",
        "9b98513f57bbf218b33368eb518b9a2e7c70baa8bcb58bddce187fadbd5eb47a",
        "d25c961a4f3a03d1595b4b3fbca817870a8348adb07df5045dc1c22714123ce5",
        "cdbf8a75308c5c415ca1c36b4954b1f05767cb2dff947a22d9cd9e17cb2b7485",
        "cdb271ef42973c4d11381b0b8dcae4fb6ca3bee8ae16a4f430754473d1aba56d",
        "5aa2f6cb8cadf84197a3e602d2a0c8822e67a0b78c2467381733afb482d1742b",
        "50ce38b159229b7e7d6ac50b6e54b3190898dbb440cb37cf3bd53e308328ee73",
        "20ee5f7b7d5c24b4bd98d04a04ace81699c7cc4da064a21b379f5954f9f422cd",
        "fc4dc1de97fa6c8b7de96f8d30f3364074edf95f41faa58f3cfcf3c102dc6955",
        "204bd64c50452d8269d120864ca580e3507fa6f5f459a27ac9efb472d6d5a554",
        "2e9d577e8d8ef33eb138ef4fc9cab4a9ebdb0cc52c2f9555f80e2bfafbd95cda",
        "e4a3b8e2d3ceea07d68514d2d3a0ef391c84b85373183d48243eebb42c94f16f",
        "178b724c356b3b75985f848d923b6cccef41356aeb6c86744753bb6b86507424",
        "b3493a95d623843d867db63278328140102fd8fd58a5ccb20f4e8f0e5f09709c",
        "27631cc9ec07ea4a90228961717ce6d4c824b23ddcdc6c08e815464c16f72358",
    ],
}


@pytest.mark.parametrize("backend", sorted(PINNED_WIRE_DIGESTS))
def test_wire_bytes_are_pinned(backend):
    key = KEY if backend == "simsig" else \
        get_backend("rsa").generate_keypair(b"codec-rsa").public
    msgs = sample_messages(key)
    names = [type(m).__name__ for m in msgs]
    digests = [hashlib.sha256(encode_message(m)).hexdigest() for m in msgs]
    assert dict(zip(names, digests)) == dict(zip(names, PINNED_WIRE_DIGESTS[backend]))
