"""Encode-once wire cache: every distinct message encodes at most once.

Messages are immutable wire objects, so ``Message.wire_bytes()`` caches
the codec output on the instance; ``wire_size``/``_trace_send``/payload
embedding all reuse it.  ``repro.messages.codec.encode_call_count()``
counts *actual* encoder executions (cache hits excluded), which is what
lets these tests -- and the PHY benchmark -- assert the reduction
instead of eyeballing it.
"""

from repro.ipv6.address import IPv6Address
from repro.messages.codec import decode_message, encode_call_count, encode_message, wire_size
from repro.messages.ndp import NeighborAdvertisement, NeighborSolicitation
from repro.scenarios import ScenarioBuilder

TARGET = IPv6Address("fec0::1234")


def test_wire_bytes_encodes_once_and_round_trips():
    msg = NeighborSolicitation(target=TARGET, domain_name="host.manet")
    base = encode_call_count()
    first = msg.wire_bytes()
    assert encode_call_count() - base == 1
    # cache hits: same object back, no further encoder executions
    assert msg.wire_bytes() is first
    assert msg.wire_size() == len(first)
    assert wire_size(msg) == len(first)
    assert encode_call_count() - base == 1
    # the cached bytes are the real wire form
    assert first == encode_message(msg)
    assert decode_message(first) == msg


def test_replace_starts_with_a_cold_cache():
    msg = NeighborSolicitation(target=TARGET, hop_limit=3)
    original = msg.wire_bytes()
    relayed = msg.replace(hop_limit=2)
    assert relayed.wire_bytes() != original  # re-encoded, new bytes
    assert msg.wire_bytes() is original  # original cache untouched


def test_wire_cache_is_invisible_to_equality():
    a = NeighborAdvertisement(target=TARGET)
    b = NeighborAdvertisement(target=TARGET)
    a.wire_bytes()
    assert a == b  # the memo attribute is not a dataclass field


def test_node_send_path_reuses_the_cache():
    """Sending (and re-forwarding) one message copy encodes it once,
    however many times it crosses ``_trace_send``."""
    sc = ScenarioBuilder(seed=3).grid(9, spacing=180.0).build()
    msgs = [
        NeighborSolicitation(target=TARGET, domain_name=f"n{i}")
        for i in range(len(sc.hosts))
    ]
    base = encode_call_count()
    for node, msg in zip(sc.hosts, msgs):
        node.broadcast(msg)
    for node, msg in zip(sc.hosts, msgs):
        node.broadcast(msg)  # re-flood of the *same* copy: cache hit
    sc.sim.run()
    assert encode_call_count() - base == len(msgs)
    # byte accounting still sees the correct size for every send
    assert sc.metrics.bytes_sent["NS"] == 2 * sum(m.wire_size() for m in msgs)
    assert sc.metrics.msgs_sent["NS"] == 2 * len(msgs)
