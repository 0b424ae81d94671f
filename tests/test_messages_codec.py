"""Codec round-trip and robustness tests for every message type (Table 1)."""

import pytest

from repro.crypto.backend import get_backend
from repro.ipv6.address import IPv6Address
from repro.messages.base import CodecError
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
