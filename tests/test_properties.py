"""Property-based tests (hypothesis) on core data structures and invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.crypto.backend import get_backend
from repro.crypto.hashes import cga_hash
from repro.ipv6.address import IPv6Address
from repro.ipv6.cga import CGAParams, cga_address, verify_cga
from repro.ipv6.prefixes import is_site_local, site_local_from_interface_id, split_fields
from repro.messages.base import CodecError
from repro.messages.codec import decode_message, encode_message
from repro.sim.kernel import Simulator

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

u128 = st.integers(min_value=0, max_value=(1 << 128) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
addresses = u128.map(IPv6Address)
routes = st.lists(addresses, max_size=6).map(tuple)
names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    max_size=32,
)

_simsig = get_backend("simsig")
_KEYS = [_simsig.generate_keypair(f"prop-{i}".encode()).public for i in range(4)]
keys = st.sampled_from(_KEYS)


# ---------------------------------------------------------------------------
# IPv6 address properties
# ---------------------------------------------------------------------------

@given(u128)
def test_address_int_roundtrip(v):
    assert IPv6Address(v).value == v


@given(u128)
def test_address_packed_roundtrip(v):
    a = IPv6Address(v)
    assert IPv6Address(a.packed) == a


@given(u128)
def test_address_text_roundtrip(v):
    a = IPv6Address(v)
    assert IPv6Address(str(a)) == a


@given(u128, u128)
def test_address_ordering_matches_int(v1, v2):
    assert (IPv6Address(v1) < IPv6Address(v2)) == (v1 < v2)


@given(u128)
def test_groups_reassemble(v):
    a = IPv6Address(v)
    reassembled = 0
    for g in a.groups:
        reassembled = (reassembled << 16) | g
    assert reassembled == v


# ---------------------------------------------------------------------------
# CGA properties
# ---------------------------------------------------------------------------

@given(keys, u64)
def test_cga_roundtrip_always_verifies(key, rn):
    addr = cga_address(key, rn)
    assert verify_cga(addr, CGAParams(key, rn))
    assert is_site_local(addr)


@given(keys, u64, st.integers(min_value=0, max_value=0xFFFF))
def test_figure1_fields_always_consistent(key, rn, subnet):
    addr = cga_address(key, rn, subnet_id=subnet)
    prefix, zeros, sub, iface = split_fields(addr)
    assert prefix == 0b1111111011
    assert zeros == 0
    assert sub == subnet
    assert iface == cga_hash(key.encode(), rn)


@given(keys, u64, u64)
def test_cga_wrong_rn_never_verifies(key, rn, other_rn):
    if rn == other_rn:
        return
    addr = cga_address(key, rn)
    # A different modifier verifying would mean a 64-bit hash collision;
    # astronomically unlikely under SHA-256 truncation.
    assert not verify_cga(addr, CGAParams(key, other_rn))


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_site_local_interface_id_preserved(iface):
    addr = site_local_from_interface_id(iface)
    assert addr.interface_id == iface


# ---------------------------------------------------------------------------
# signature properties
# ---------------------------------------------------------------------------

@given(st.binary(max_size=256))
def test_simsig_sign_verify_any_message(payload):
    kp = _simsig.generate_keypair(b"prop-sign")
    assert _simsig.verify(kp.public, payload, _simsig.sign(kp.private, payload))


@given(st.binary(max_size=128), st.binary(max_size=128))
def test_simsig_distinct_messages_distinct_tags(m1, m2):
    if m1 == m2:
        return
    kp = _simsig.generate_keypair(b"prop-sign2")
    assert _simsig.sign(kp.private, m1) != _simsig.sign(kp.private, m2)


@given(st.binary(min_size=16, max_size=16), st.binary(max_size=64))
def test_simsig_random_tag_never_verifies(tag, payload):
    kp = _simsig.generate_keypair(b"prop-sign3")
    real = _simsig.sign(kp.private, payload)
    if tag == real:
        return
    assert not _simsig.verify(kp.public, payload, tag)


# ---------------------------------------------------------------------------
# codec properties
# ---------------------------------------------------------------------------

@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(addresses, u64, names, u64, routes)
def test_areq_roundtrip(sip, seq, dn, ch, rr):
    from repro.messages.bootstrap import AREQ

    msg = AREQ(sip=sip, seq=seq, domain_name=dn, ch=ch, route_record=rr,
               hop_limit=17)
    assert decode_message(encode_message(msg)) == msg


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(addresses, addresses, u64, routes, st.binary(max_size=64), keys, u64)
def test_rrep_roundtrip(sip, dip, seq, route, sig, key, rn):
    from repro.messages.routing import RREP

    msg = RREP(sip=sip, dip=dip, seq=seq, route=route, signature=sig,
               public_key=key, rn=rn)
    assert decode_message(encode_message(msg)) == msg


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(addresses, addresses, u64, routes, st.binary(max_size=128),
       st.integers(min_value=-1, max_value=100))
def test_data_packet_roundtrip(sip, dip, seq, route, payload, seg):
    from repro.messages.data import DataPacket

    msg = DataPacket(sip=sip, dip=dip, seq=seq, route=route, payload=payload,
                     segment_index=seg, sent_at=0.25)
    assert decode_message(encode_message(msg)) == msg


def _sample_encodings():
    from tests.test_messages_codec import sample_messages

    rsa_key = get_backend("rsa").generate_keypair(b"prop-rsa").public
    return [encode_message(m)
            for key in (_KEYS[0], rsa_key) for m in sample_messages(key)]


_ENCODINGS = _sample_encodings()


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
          max_examples=300)
@given(st.sampled_from(_ENCODINGS) | st.binary(max_size=64),
       st.lists(st.integers(min_value=0), max_size=4),
       st.integers(min_value=0), st.binary(max_size=8))
def test_decoder_never_crashes_on_junk(data, flips, cut, tail):
    """A valid encoding with bits flipped, its end cut off and junk
    appended (or plain junk) either raises CodecError or decodes to a
    message that re-encodes to exactly the same bytes."""
    junk = bytearray(data)
    for bit in flips if junk else ():
        bit %= 8 * len(junk)
        junk[bit // 8] ^= 1 << (bit % 8)
    junk = bytes(junk[:len(junk) - cut % (len(junk) + 1)]) + tail
    try:
        msg = decode_message(junk)
    except CodecError:
        return
    assert encode_message(msg) == junk


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(addresses, u64, names, u64, routes)
def test_mutated_encoding_never_equals_original(sip, seq, dn, ch, rr):
    """Flipping any byte either fails decode or yields a different message."""
    from repro.messages.bootstrap import AREQ

    msg = AREQ(sip=sip, seq=seq, domain_name=dn, ch=ch, route_record=rr)
    data = bytearray(encode_message(msg))
    for pos in range(1, min(len(data), 24)):  # skip the type byte
        data[pos] ^= 0xFF
        try:
            other = decode_message(bytes(data))
            assert other != msg
        except CodecError:
            pass
        data[pos] ^= 0xFF


# ---------------------------------------------------------------------------
# kernel properties
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=40))
def test_events_always_execute_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30))
def test_fifo_among_equal_times(tags):
    sim = Simulator()
    fired = []
    for t in tags:
        sim.schedule(1.0, fired.append, t)
    sim.run()
    assert fired == tags


# ---------------------------------------------------------------------------
# route cache properties
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(st.lists(st.tuples(u128, routes), min_size=1, max_size=50))
def test_route_cache_never_exceeds_capacity(entries):
    from repro.routing.route_cache import CachedRoute, RouteCache

    cache = RouteCache(capacity=8, ttl=100.0)
    for dest_int, route in entries:
        cache.put(CachedRoute(dest=IPv6Address(dest_int), route=route,
                              created_at=0.0))
    assert len(cache) <= 8


@settings(deadline=None)
@given(st.lists(u128, min_size=1, max_size=20), u128)
def test_invalidate_host_removes_all_matching(route_ints, host_int):
    from repro.routing.route_cache import CachedRoute, RouteCache

    host = IPv6Address(host_int)
    cache = RouteCache(capacity=64, ttl=100.0)
    for i, r in enumerate(route_ints):
        cache.put(CachedRoute(dest=IPv6Address(i + 1),
                              route=(IPv6Address(r),), created_at=0.0))
    cache.invalidate_host(host)
    for entry in cache._entries.values():
        assert not entry.contains_host(host)


# ---------------------------------------------------------------------------
# credit properties
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(st.lists(st.sampled_from(["reward", "penalize"]), max_size=60))
def test_credit_accounting_is_exact(ops):
    from repro.credit.manager import CreditManager

    cm = CreditManager(initial=1.0, reward=1.0, penalty=50.0)
    host = IPv6Address("fec0::77")
    expected = 1.0
    for op in ops:
        if op == "reward":
            cm.reward(host)
            expected += 1.0
        else:
            cm.penalize(host)
            expected -= 50.0
    assert cm.credit(host) == pytest.approx(expected)
    assert cm.is_suspect(host) == (expected < 0)


@settings(deadline=None)
@given(st.lists(routes, min_size=1, max_size=8), st.booleans())
def test_select_route_always_returns_a_candidate(candidates, hostile):
    from repro.credit.manager import CreditManager
    from repro.credit.policy import RoutePolicy, select_route

    cm = CreditManager()
    chosen = select_route(cm, candidates, RoutePolicy(hostile_mode=hostile))
    assert chosen in candidates
