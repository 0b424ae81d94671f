"""Integration tests for the source-routed data plane and signed ACKs."""

import pytest

from tests.conftest import chain_scenario


def bootstrapped(n=5, seed=7, **config):
    sc = chain_scenario(n=n, seed=seed, **config).build()
    sc.bootstrap_all()
    return sc


def test_end_to_end_delivery_and_ack():
    sc = bootstrapped(n=5)
    a, b = sc.hosts[0], sc.hosts[4]
    delivered = []
    a.router.send_data(b.ip, b"payload", on_delivered=lambda: delivered.append(1))
    sc.run(duration=10.0)
    assert delivered == [1]
    assert sc.metrics.delivered(a.ip, b.ip) == 1
    assert sc.metrics.flows[(a.ip, b.ip)].acked == 1
    assert sc.metrics.verdicts["ack.accepted"] == 1


def test_latency_scales_with_hops():
    results = {}
    for n in (2, 5):
        sc = bootstrapped(n=n, seed=7)
        a, b = sc.hosts[0], sc.hosts[-1]
        a.router.send_data(b.ip, b"x" * 64)
        sc.run(duration=10.0)
        results[n] = sc.metrics.flows[(a.ip, b.ip)].mean_latency
    assert 0 < results[2] < results[5]


def test_credit_rewarded_on_ack():
    sc = bootstrapped(n=4)
    a, b = sc.hosts[0], sc.hosts[3]
    initial = a.config.credit_initial
    a.router.send_data(b.ip, b"one")
    sc.run(duration=5.0)
    for hop in (sc.hosts[1], sc.hosts[2]):
        assert a.router.credits.credit(hop.ip) == initial + 1
    # The destination itself is not a relay: no credit entry.
    assert a.router.credits.credit(b.ip) == initial


def test_multiple_packets_single_discovery():
    sc = bootstrapped(n=4)
    a, b = sc.hosts[0], sc.hosts[3]
    done = []
    for i in range(5):
        a.router.send_data(b.ip, bytes([i]), on_delivered=lambda: done.append(1))
    sc.run(duration=10.0)
    assert len(done) == 5
    assert sc.metrics.discoveries_started == 1  # route reused from cache


def test_delivery_to_direct_neighbor_needs_no_relay():
    sc = bootstrapped(n=2)
    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"hi")
    sc.run(duration=5.0)
    assert sc.metrics.delivered(a.ip, b.ip) == 1
    routes = a.router.cache.routes_to(b.ip, sc.sim.now)
    assert routes and routes[0].route == ()


def test_forged_ack_rejected_and_no_credit():
    """An ACK signed by a non-destination is rejected (credit not minted)."""
    sc = bootstrapped(n=4)
    a, b = sc.hosts[0], sc.hosts[3]
    mallory = sc.hosts[1]
    a.router.discover(b.ip)
    sc.run(duration=3.0)
    route = a.router.cache.routes_to(b.ip, sc.sim.now)[0].route

    from repro.messages import signing
    from repro.messages.data import AckPacket

    seq = 999999
    # Install a pending packet so the forged ACK targets something real.
    from repro.messages.data import DataPacket
    from repro.routing.secure_dsr import PendingPacket

    a.router._pending_acks[(b.ip, seq)] = PendingPacket(
        packet=DataPacket(sip=a.ip, dip=b.ip, seq=seq, route=route),
        route=route,
    )
    forged = AckPacket(
        sip=a.ip, dip=b.ip, seq=seq, route=(),
        signature=mallory.sign(signing.ack_payload(a.ip, b.ip, seq)),
        public_key=mallory.public_key,
        rn=mallory.cga_params.rn,
    )
    mallory.unicast_ip(a.ip, forged)
    sc.run(duration=2.0)
    assert sc.metrics.verdicts["ack.rejected.bad_cga"] >= 1
    assert (b.ip, seq) in a.router._pending_acks  # still pending
    assert a.router.credits.credit(mallory.ip) == a.config.credit_initial


def test_packet_retry_after_silent_loss():
    """Losing every frame once still delivers thanks to MAC + e2e retries."""
    sc = chain_scenario(n=3, seed=43).radio(250, loss_rate=0.2).build()
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[2]
    done, failed = [], []
    for _ in range(10):
        a.router.send_data(b.ip, b"x", on_delivered=lambda: done.append(1),
                           on_failed=lambda: failed.append(1))
    sc.run(duration=30.0)
    assert len(done) >= 8  # 20% loss, 3 MAC retries + 2 e2e retries
    assert len(done) + len(failed) == 10


def test_data_to_unconfigured_source_raises():
    sc = chain_scenario(n=2, seed=7).build()  # nobody bootstrapped
    with pytest.raises(RuntimeError):
        sc.hosts[0].router.send_data(sc.hosts[1].ip or
                                     __import__("repro.ipv6.address", fromlist=["IPv6Address"]).IPv6Address(1),
                                     b"x")


def test_duplicate_data_delivery_suppressed():
    """Retransmitted packets deliver the payload to the app only once."""
    sc = bootstrapped(n=3)
    sc.trace.enabled = True
    a, b = sc.hosts[0], sc.hosts[2]
    seen = []
    from repro.messages.dns import DNSQuery  # any app message works

    a.router.send_data(b.ip, b"raw-payload")
    sc.run(duration=5.0)
    flow = sc.metrics.flows[(a.ip, b.ip)]
    assert flow.delivered == 1
    # Manually replay the same data packet at the destination.
    data_events = [e.payload for e in sc.trace.events
                   if e.kind == "recv" and e.msg_type == "DATA" and e.node == b.name]
    assert data_events
    from repro.phy.medium import Frame

    b._on_frame(Frame(sc.hosts[1].link_id, b.link_id, sc.hosts[1].ip,
                      data_events[-1], 10))
    sc.run(duration=1.0)
    assert sc.metrics.flows[(a.ip, b.ip)].delivered == 1  # not double-counted
