"""Impersonation attack experiments (Section 4) as tests."""

import pytest

from repro.adversary.impersonator import attempt_address_takeover
from repro.ipv6.cga import cga_address
from repro.scenarios.attacks import add_dns_impersonator
from conftest import chain_scenario


def test_dns_impersonator_cannot_poison_resolution():
    """An on-path forger answers DNS queries; the client rejects them all."""
    sc = chain_scenario(n=4, seed=67).build()
    sc.bootstrap_all(names={"n3": "bob.manet"})
    sc.run(duration=8.0)

    # Attacker's chosen poison target address.
    mallory_answer = cga_address(sc.hosts[1].public_key, rn=123)
    imp = add_dns_impersonator(sc, (300.0, 30.0), fake_answer=mallory_answer,
                               drop_real_query=False)
    imp.bootstrap.start("")
    sc.run(duration=5.0)

    results = []
    sc.hosts[0].dns_client.resolve("bob.manet", results.append)
    sc.run(duration=15.0)
    # Whether or not the forgery raced ahead, the accepted answer is real.
    assert results == [sc.hosts[3].ip]
    if imp.router.responses_forged:
        assert sc.metrics.verdicts["dns_client.response_rejected"] >= 1


def test_dns_impersonator_dropping_queries_causes_timeout_not_poison():
    """Worst case for the client is a timeout -- never a wrong answer."""
    sc = chain_scenario(n=4, seed=71).build()
    sc.bootstrap_all(names={"n3": "bob.manet"})
    sc.run(duration=8.0)
    mallory_answer = cga_address(sc.hosts[1].public_key, rn=99)

    # Park the impersonator directly between n0 and the DNS.
    imp = add_dns_impersonator(sc, (250.0, 45.0), fake_answer=mallory_answer,
                               drop_real_query=True)
    imp.bootstrap.start("")
    sc.run(duration=5.0)

    results = []
    sc.hosts[0].dns_client.resolve("bob.manet", results.append, timeout=8.0)
    sc.run(duration=20.0)
    assert len(results) == 1
    assert results[0] in (sc.hosts[3].ip, None)  # truth or timeout
    assert results[0] != mallory_answer          # never the poison


def test_address_takeover_fails_identity_checks():
    """A thief adopting someone's IP cannot answer discoveries for it."""
    sc = chain_scenario(n=4, seed=73).build()
    sc.bootstrap_all()
    victim = sc.hosts[3]
    thief = sc.hosts[1]
    victim_ip = victim.ip

    # The victim leaves; the thief squats its address.
    sc.medium.set_enabled(victim.link_id, False)
    attempt_address_takeover(thief, victim_ip)

    searcher = sc.hosts[0]
    failures = []
    searcher.router.send_data(victim_ip, b"secret",
                              on_failed=lambda: failures.append(1))
    sc.run(duration=30.0)
    # The thief answered the RREQ as destination, but its RREP cannot pass
    # the CGA check (its key does not hash to the victim's address).
    assert sc.metrics.verdicts["rrep.rejected.bad_cga"] >= 1
    assert sc.metrics.delivered(searcher.ip, victim_ip) == 0 or failures


def test_address_takeover_cannot_defend_in_dad():
    """The thief cannot even keep a new joiner off the stolen address:
    its AREP fails verification, so DAD concludes the address is free."""
    sc = chain_scenario(n=3, seed=79).build()
    sc.bootstrap_all()
    thief = sc.hosts[1]
    target_addr = sc.hosts[0].ip

    # Victim departs; thief squats.
    sc.medium.set_enabled(sc.hosts[0].link_id, False)
    attempt_address_takeover(thief, target_addr)

    # A fresh joiner probes exactly that address.
    joiner = sc.hosts[2]
    joiner.abandon_identity()
    boot = joiner.bootstrap
    boot.state = "probing"
    boot.tentative_ip = target_addr
    from repro.ipv6.cga import CGAParams

    boot._tentative_params = CGAParams(joiner.public_key, 0)  # placeholder
    boot.pending_ch = 555
    boot.pending_seq = joiner.next_seq()
    from repro.messages.bootstrap import AREQ

    areq = AREQ(sip=target_addr, seq=boot.pending_seq, domain_name="", ch=555)
    boot._seen_areqs.add((areq.sip, areq.seq))
    boot._timer.start(joiner.config.dad_timeout)
    joiner.broadcast(areq, claimed_src=target_addr)
    sc.run(duration=10.0)

    # The thief's defence AREP was rejected; the joiner adopted the address.
    assert sc.metrics.verdicts["arep.rejected.bad_cga"] >= 1
    assert joiner.configured and joiner.ip == target_addr
