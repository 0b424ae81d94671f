"""Integration tests for the DNS service (Section 3.2)."""

import pytest

from repro.ipv6.cga import cga_address
from repro.messages import signing
from repro.messages.codec import encode_message
from repro.messages.data import DataPacket
from repro.messages.dns import DNSUpdateChallenge, DNSUpdateReply, DNSUpdateRequest
from conftest import chain_scenario


def bootstrapped(names=None, n=4, seed=11, **config):
    sc = chain_scenario(n=n, seed=seed, **config).build()
    sc.bootstrap_all(names=names or {})
    sc.run(duration=8.0)  # let registration refreshes land
    return sc


def test_names_register_fcfs_during_dad():
    sc = bootstrapped(names={"n0": "alice.manet", "n3": "bob.manet"})
    assert set(sc.dns_server.table.names()) == {"alice.manet", "bob.manet"}
    assert sc.dns_server.table.lookup("alice.manet").ip == sc.hosts[0].ip


def test_resolution_returns_registered_binding():
    sc = bootstrapped(names={"n3": "bob.manet"})
    results = []
    sc.hosts[0].dns_client.resolve("bob.manet", results.append)
    sc.run(duration=10.0)
    assert results == [sc.hosts[3].ip]
    assert sc.metrics.verdicts["dns_client.response_accepted"] >= 1


def test_resolution_miss_returns_none():
    sc = bootstrapped()
    results = []
    sc.hosts[1].dns_client.resolve("ghost.manet", results.append)
    sc.run(duration=10.0)
    assert results == [None]
    assert sc.metrics.verdicts["dns.query_miss"] == 1


def test_duplicate_name_gets_drep_and_new_name():
    """Second claimant of the same name must end up with a derived name."""
    sc = chain_scenario(n=4, seed=31).build()
    sc.bootstrap_all(names={"n0": "team.manet", "n2": "team.manet"})
    sc.run(duration=20.0)
    table = sc.dns_server.table
    assert table.lookup("team.manet") is not None
    # Exactly one of the two hosts holds the original; the other was
    # pushed to a -2 suffix (via DREP during DAD or post-refresh DREP).
    names = {sc.hosts[0].domain_name, sc.hosts[2].domain_name}
    assert "team.manet" in names
    assert "team.manet-2" in names
    assert sc.metrics.name_conflicts_detected >= 1


def test_preregistered_permanent_name_resists_online_claim():
    """Paper: impersonating pre-registered hosts is impossible."""
    from repro.crypto.backend import get_backend

    server_key = get_backend("simsig").generate_keypair(b"web-server")
    server_ip = cga_address(server_key.public, rn=424242)
    builder = chain_scenario(n=3, seed=37)
    builder = builder.preregister("www.rescue.org", server_ip)
    sc = builder.build()
    sc.bootstrap_all(names={"n1": "www.rescue.org"})  # squatter attempt
    sc.run(duration=20.0)
    rec = sc.dns_server.table.lookup("www.rescue.org")
    assert rec.ip == server_ip          # binding unchanged
    assert rec.permanent
    assert sc.hosts[1].domain_name != "www.rescue.org"  # squatter renamed


def test_authenticated_ip_change_accepted():
    sc = bootstrapped(names={"n0": "alice.manet"})
    alice = sc.hosts[0]
    # Draw the new address from alice's own key (new modifier, same key).
    new_rn = 777777
    new_ip = cga_address(alice.public_key, new_rn)
    outcomes = []
    alice.dns_client.change_ip(new_ip, new_rn, outcomes.append)
    sc.run(duration=15.0)
    assert outcomes == [True]
    assert sc.dns_server.table.lookup("alice.manet").ip == new_ip
    assert sc.metrics.verdicts["dns.update.accepted"] == 1


def test_ip_change_with_foreign_key_rejected():
    """An attacker cannot move someone else's binding to its own address."""
    sc = bootstrapped(names={"n0": "alice.manet"})
    alice, mallory = sc.hosts[0], sc.hosts[2]
    # Mallory crafts an update for alice's name using mallory's key.
    new_rn = 888888
    new_ip = cga_address(mallory.public_key, new_rn)
    outcomes = []
    # Force the client to act for a foreign name.
    mallory.domain_name = "alice.manet"
    mallory.dns_client.change_ip(new_ip, new_rn, outcomes.append)
    sc.run(duration=15.0)
    assert outcomes == [False]
    assert sc.dns_server.table.lookup("alice.manet").ip == alice.ip
    rejected = [k for k in sc.metrics.verdicts if k.startswith("dns.update.rejected")]
    assert rejected


def test_ip_change_old_cga_must_match_key():
    """old_ip not a CGA of the presented key => rejected (old_cga/old_ip)."""
    sc = bootstrapped(names={"n0": "alice.manet"})
    alice = sc.hosts[0]
    mallory = sc.hosts[2]
    # Mallory claims alice's old ip with mallory's key via raw request.
    from repro.messages import signing
    from repro.messages.codec import encode_message
    from repro.messages.dns import DNSUpdateRequest

    new_rn = 999
    new_ip = cga_address(mallory.public_key, new_rn)
    # Phase 1 intent under alice's name from mallory.
    intent = DNSUpdateRequest(
        domain_name="alice.manet",
        old_ip=alice.ip,  # not a CGA of mallory's key
        new_ip=new_ip,
        old_rn=0,
        new_rn=new_rn,
        public_key=mallory.public_key,
        signature=b"",
    )
    mallory.router.send_data(
        mallory.dns_client.server_address, encode_message(intent)
    )
    sc.run(duration=15.0)
    assert sc.dns_server.table.lookup("alice.manet").ip == alice.ip


def test_ip_change_to_an_address_not_a_cga_of_the_key_rejected():
    """Alice may move her name only to a CGA of her own key (new_cga)."""
    sc = bootstrapped(names={"n0": "alice.manet"})
    alice, mallory = sc.hosts[0], sc.hosts[2]
    new_rn = 777777
    new_ip = cga_address(mallory.public_key, new_rn)  # not alice's CGA
    outcomes = []
    alice.dns_client.change_ip(new_ip, new_rn, outcomes.append)
    sc.run(duration=15.0)
    assert sc.metrics.verdicts["dns.update.rejected.new_cga"] == 1
    assert outcomes == [False]
    assert sc.dns_server.table.lookup("alice.manet").ip == alice.ip


def test_ip_change_with_a_signature_that_does_not_verify_rejected():
    """Valid CGAs of alice's key, but a bit-flipped signature over the
    server's challenge: the binding must not move (bad_signature)."""
    sc = bootstrapped(names={"n0": "alice.manet"})
    alice, mallory = sc.hosts[0], sc.hosts[2]
    new_rn = 555
    new_ip = cga_address(alice.public_key, new_rn)
    challenges = []
    mallory.register_app_handler(
        DNSUpdateChallenge, lambda msg, _packet: challenges.append(msg.ch))
    fields = dict(domain_name="alice.manet", old_ip=alice.ip, new_ip=new_ip,
                  old_rn=alice.cga_params.rn, new_rn=new_rn,
                  public_key=alice.public_key)
    server = mallory.dns_client.server_address
    mallory.router.send_data(
        server, encode_message(DNSUpdateRequest(**fields, signature=b"")))
    sc.run(duration=5.0)
    assert len(challenges) == 1
    good = alice.sign(signing.dns_update_payload(alice.ip, new_ip, challenges[0]))
    flipped = bytes([good[0] ^ 1]) + good[1:]
    mallory.router.send_data(
        server, encode_message(DNSUpdateRequest(**fields, signature=flipped)))
    sc.run(duration=5.0)
    assert sc.metrics.verdicts["dns.update.rejected.bad_signature"] == 1
    assert sc.metrics.verdicts.get("dns.update.accepted", 0) == 0
    assert sc.dns_server.table.lookup("alice.manet").ip == alice.ip


def test_forged_update_reply_is_rejected_by_the_client():
    """A reply not signed by the DNS cannot tell alice her move succeeded."""
    sc = bootstrapped(names={"n0": "alice.manet"})
    alice, mallory = sc.hosts[0], sc.hosts[2]
    new_rn = 777777
    new_ip = cga_address(alice.public_key, new_rn)
    outcomes = []
    alice.dns_client.change_ip(new_ip, new_rn, outcomes.append)
    forged = DNSUpdateReply(
        domain_name="alice.manet", new_ip=new_ip, accepted=True, ch=0,
        signature=mallory.sign(
            signing.dns_response_payload("alice.manet", new_ip, 0)),
    )
    assert alice.deliver_app(DataPacket(
        sip=mallory.ip, dip=alice.ip, seq=mallory.next_seq(),
        route=(mallory.ip, alice.ip), payload=encode_message(forged),
    ))
    assert sc.metrics.verdicts["dns_client.update_reply_rejected"] == 1
    assert outcomes == [False]


def test_warning_arep_cancels_pending_registration():
    """A duplicate holder's warning stops the DNS from registering (DN, SIP)."""
    sc = chain_scenario(n=3, seed=41).build()
    sc.bootstrap_all()
    victim = sc.hosts[0]

    # A joiner (n2, re-bootstrapping) probes the victim's address with a name.
    joiner = sc.hosts[2]
    joiner.abandon_identity()
    boot = joiner.bootstrap
    boot.state = "probing"
    boot.tentative_ip = victim.ip
    boot._tentative_params = victim.cga_params
    boot.pending_ch = 1234
    boot.pending_seq = joiner.next_seq()
    from repro.messages.bootstrap import AREQ

    areq = AREQ(sip=victim.ip, seq=boot.pending_seq,
                domain_name="thief.manet", ch=1234, route_record=())
    boot._seen_areqs.add((areq.sip, areq.seq))
    boot._timer.start(joiner.config.dad_timeout)
    joiner.broadcast(areq, claimed_src=victim.ip)
    sc.run(duration=10.0)
    # The victim's warning AREP reached the DNS before the quiet window
    # closed, so "thief.manet" never bound to the victim's address.
    assert "thief.manet" not in sc.dns_server.table
    assert sc.metrics.verdicts["dns.warning_arep.accepted"] >= 1


def test_dns_answers_route_discovery_for_anycast():
    sc = bootstrapped()
    host = sc.hosts[0]
    from repro.ipv6.prefixes import DNS_ANYCAST_ADDRESSES

    delivered = []
    host.router.send_data(
        DNS_ANYCAST_ADDRESSES[0], b"ping", on_delivered=lambda: delivered.append(1)
    )
    sc.run(duration=10.0)
    assert delivered == [1]
