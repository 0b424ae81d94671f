"""Integration tests for secure route discovery (Section 3.3)."""

import pytest

from repro.routing.bsar_like import EndpointOnlyRouter
from repro.routing.dsr import PlainDSRRouter
from conftest import chain_scenario


def bootstrapped(n=5, seed=7, router=None, **config):
    builder = chain_scenario(n=n, seed=seed, **config)
    if router is not None:
        builder = builder.router(router)
    sc = builder.build()
    sc.bootstrap_all()
    return sc


def test_discovery_finds_multi_hop_route():
    sc = bootstrapped(n=5)
    a, b = sc.hosts[0], sc.hosts[4]
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    routes = a.router.cache.routes_to(b.ip, sc.sim.now)
    assert routes
    # Chain: the only path is through n1, n2, n3 in order.
    assert routes[0].route == (sc.hosts[1].ip, sc.hosts[2].ip, sc.hosts[3].ip)
    assert sc.metrics.discoveries_succeeded == 1


def test_rreq_carries_verifiable_srr_entries():
    sc = bootstrapped(n=4)
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    # The destination verified the source and every intermediate hop.
    assert sc.metrics.verdicts["rreq.accepted"] >= 1
    assert sc.metrics.verdicts["rrep.accepted"] >= 1
    # SRR entries were actually signed: verify count grew with hops.
    assert sc.metrics.crypto_total("verify") >= 3


def rejects_tampered_hop(monkeypatch, deferred):
    """If any SRR entry is corrupted in flight, D must reject the RREQ."""
    sc = bootstrapped(n=4)
    a, b = sc.hosts[0], sc.hosts[3]
    relay = sc.hosts[1]

    def corrupt_relay(self, msg):
        # Sign over the wrong sequence number: a spliced/stale entry.
        from repro.messages import signing
        from repro.messages.routing import SRREntry

        payload = signing.srr_entry_payload(self.node.ip, msg.seq + 1)
        identity = dict(ip=self.node.ip, public_key=self.node.public_key,
                        rn=self._own_rn())
        if deferred:
            bad = SRREntry.deferred(
                **identity,
                signer=self.node.sign_on_read(payload),
                signature_size=self.node.backend.signature_size(),
            )
        else:
            bad = SRREntry(**identity, signature=self.node.sign(payload))
        self.node.broadcast(msg.append_entry(bad))

    monkeypatch.setattr(type(relay.router), "_relay_rreq", corrupt_relay)
    a.router.discover(b.ip)
    sc.run(duration=3.0)
    assert sc.metrics.verdicts["rreq.rejected.hop_bad_signature"] >= 1


def test_destination_rejects_tampered_hop(monkeypatch):
    rejects_tampered_hop(monkeypatch, deferred=False)


def test_destination_rejects_tampered_deferred_hop(monkeypatch):
    """The bad signature is computed only when D reads it."""
    rejects_tampered_hop(monkeypatch, deferred=True)


def test_destination_rejects_a_source_signature_that_does_not_verify(monkeypatch):
    """Every relay zeroes S's signature; S's key and CGA still hold.

    D must reject each copy on the source check, answer none, and S must
    learn no route.
    """
    from repro.routing.secure_dsr import SecureDSRRouter

    sc = bootstrapped(n=4)
    sc.trace.enabled = True
    a, d = sc.hosts[0], sc.hosts[3]
    relay_rreq = SecureDSRRouter._relay_rreq

    def zero_source_signature(self, msg):
        zeroed = bytes(len(msg.source_signature))
        relay_rreq(self, msg.replace(source_signature=zeroed))

    monkeypatch.setattr(SecureDSRRouter, "_relay_rreq", zero_source_signature)
    a.router.discover(d.ip)
    sc.run(duration=10.0)  # every retry of the discovery, too

    seqs = {e.payload.seq for e in sc.trace.sends("RREQ") if e.node == a.name}
    assert len(seqs) == 1 + a.config.rreq_max_retries
    assert sc.metrics.verdicts["rreq.rejected.source_bad_signature"] >= len(seqs)
    assert sc.metrics.verdicts["rreq.accepted"] == 0
    # No other discovery runs, so D answering nothing covers each (sip, seq).
    assert not [e for e in sc.trace.sends("RREP") if e.node == d.name]
    assert not a.router.cache.has_route(d.ip, sc.sim.now)
    assert sc.metrics.discoveries_succeeded == 0


def test_source_rejects_tampered_rrep_route(monkeypatch):
    """A relay shortening the returned route invalidates D's signature."""
    sc = bootstrapped(n=4)
    a, b = sc.hosts[0], sc.hosts[3]
    relay = sc.hosts[1]

    from repro.messages.routing import RREP

    orig_on_rrep = relay.router._on_rrep

    def tamper(frame, msg):
        if msg.sip == a.ip and len(msg.route) > 1:
            msg = msg.replace(route=msg.route[:1] + msg.route[2:])  # drop a hop
        orig_on_rrep(frame, msg)

    relay._handlers[RREP] = [tamper]
    a.router.discover(b.ip)
    sc.run(duration=10.0)
    assert sc.metrics.verdicts["rrep.rejected.bad_signature"] >= 1


def test_discovery_retries_then_fails_for_unreachable():
    from repro.ipv6.address import IPv6Address

    sc = bootstrapped(n=3, rreq_timeout=0.5, rreq_max_retries=2)
    sc.trace.enabled = True
    a = sc.hosts[0]
    phantom = IPv6Address("fec0::dead:beef")
    failures = []
    a.router.send_data(phantom, b"x", on_failed=lambda: failures.append(1))
    sc.run(duration=10.0)
    assert failures == [1]
    assert sc.metrics.discoveries_started == 1
    assert sc.metrics.discoveries_succeeded == 0
    # 1 original + 2 retries, all flooded.
    rreq_sends = [e for e in sc.trace.events
                  if e.kind == "send" and e.msg_type == "RREQ" and e.node == "n0"]
    assert len(rreq_sends) == 3


def test_plain_dsr_discovers_without_signatures():
    sc = bootstrapped(n=4, router=PlainDSRRouter)
    sc.trace.enabled = True
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    assert a.router.cache.has_route(b.ip, sc.sim.now)
    # No signing happened during discovery on the plain path: the only
    # crypto is bootstrap's (AREP defence would be zero here anyway).
    rreq = next(e.payload for e in sc.trace.events
                if e.kind == "send" and e.msg_type == "RREQ")
    assert rreq.source_signature == b""


def test_endpoint_only_router_skips_hop_signatures():
    sc = bootstrapped(n=4, router=EndpointOnlyRouter)
    sc.trace.enabled = True
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    assert a.router.cache.has_route(b.ip, sc.sim.now)
    relayed = [e.payload for e in sc.trace.events
               if e.kind == "send" and e.msg_type == "RREQ" and e.payload.srr]
    assert relayed
    # Host entries are unsigned (the DNS node always relays securely and
    # signs its own, so restrict the check to EndpointOnly hosts).
    host_ips = {h.ip for h in sc.hosts}
    host_entries = [e for m in relayed for e in m.srr if e.ip in host_ips]
    assert host_entries
    assert all(entry.signature == b"" for entry in host_entries)


def test_duplicate_rreqs_not_rebroadcast():
    sc = bootstrapped(n=5)
    sc.trace.enabled = True
    a, b = sc.hosts[0], sc.hosts[4]
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    # Each of the 3 intermediates + dns relays the flood exactly once.
    sends = {}
    for e in sc.trace.events:
        if e.kind == "send" and e.msg_type == "RREQ":
            sends[e.node] = sends.get(e.node, 0) + 1
    assert len(sends) == 5, sends  # n0 plus the 3 intermediates and dns
    assert all(count == 1 for count in sends.values()), sends


def test_hop_limit_bounds_flood():
    sc = bootstrapped(n=5, hop_limit=2)
    a, b = sc.hosts[0], sc.hosts[4]  # 4 hops away: unreachable with TTL 2
    a.router.discover(b.ip)
    sc.run(duration=5.0)
    assert not a.router.cache.has_route(b.ip, sc.sim.now)
