"""Integration tests for secure address autoconfiguration (Section 3.1)."""

import pytest

from repro.ipv6.prefixes import is_site_local
from conftest import chain_scenario


def test_all_hosts_configure_unique_site_local_addresses():
    sc = chain_scenario(n=5).build()
    sc.bootstrap_all()
    assert sc.configured_count() == 5
    addrs = [h.ip for h in sc.hosts]
    assert len(set(addrs)) == 5
    assert all(is_site_local(a) for a in addrs)


def test_addresses_are_cga_of_each_nodes_key():
    from repro.ipv6.cga import verify_cga

    sc = chain_scenario(n=3).build()
    sc.bootstrap_all()
    for h in sc.hosts:
        assert verify_cga(h.ip, h.cga_params)
        assert h.cga_params.public_key == h.public_key


def test_bootstrap_deterministic_across_runs():
    def addresses(seed):
        sc = chain_scenario(n=4, seed=seed).build()
        sc.bootstrap_all()
        return [str(h.ip) for h in sc.hosts]

    assert addresses(3) == addresses(3)
    assert addresses(3) != addresses(4)


def test_dad_round_metrics_recorded():
    sc = chain_scenario(n=3).build()
    sc.bootstrap_all()
    for h in sc.hosts:
        assert sc.metrics.dad_rounds[h.name] >= 1
        assert h.name in sc.metrics.dad_time
        assert sc.metrics.dad_time[h.name] >= h.config.dad_timeout


def test_duplicate_address_triggers_arep_and_new_rn():
    """Force a collision: a second node claims an existing address in DAD."""
    sc = chain_scenario(n=3, seed=13).build()
    sc.bootstrap_all()
    victim = sc.hosts[0]
    joiner = sc.hosts[2]

    # Rig the joiner's next DAD round to probe the victim's exact address.
    boot = joiner.bootstrap
    joiner.abandon_identity()
    boot.state = "probing"
    boot.round = 0
    boot.requested_name = ""
    boot.tentative_ip = victim.ip
    boot._tentative_params = victim.cga_params  # pretend same hash came up
    boot.pending_ch = 999
    boot.pending_seq = joiner.next_seq()
    from repro.messages.bootstrap import AREQ

    areq = AREQ(sip=victim.ip, seq=boot.pending_seq, domain_name="",
                ch=999, route_record=())
    boot._seen_areqs.add((areq.sip, areq.seq))
    boot._timer.start(joiner.config.dad_timeout)
    joiner.broadcast(areq, claimed_src=victim.ip)

    sc.run(duration=10.0)
    # The victim defended; the joiner detected the collision and retried
    # with a fresh rn, ending on a *different* address.
    assert sc.metrics.collisions_detected >= 1
    assert sc.metrics.verdicts["arep.accepted"] >= 1
    assert joiner.configured
    assert joiner.ip != victim.ip


def test_forged_arep_does_not_stop_dad():
    """An attacker without the key cannot push a joiner off its address."""
    sc = chain_scenario(n=3, seed=17).build()
    # Bootstrap only n0 and n1 first.
    sc.sim.schedule(0.0, sc.hosts[0].bootstrap.start, "")
    sc.sim.schedule(0.3, sc.hosts[1].bootstrap.start, "")
    sc.run(duration=5.0)

    joiner = sc.hosts[2]
    attacker = sc.hosts[1]
    joiner.bootstrap.start("")
    sc.run(duration=0.2)  # AREQ is out; joiner still probing
    tentative = joiner.bootstrap.tentative_ip
    assert tentative is not None

    # Attacker claims the tentative address with its own key: AREP whose
    # CGA check must fail at the joiner.
    from repro.messages import signing
    from repro.messages.bootstrap import AREP

    ch = joiner.bootstrap.pending_ch
    forged = AREP(
        sip=tentative,
        route_record=(),
        signature=attacker.sign(signing.arep_payload(tentative, ch)),
        public_key=attacker.public_key,
        rn=attacker.cga_params.rn,
        ch=ch,
    )
    attacker.broadcast(forged)
    sc.run(duration=5.0)
    assert joiner.configured
    assert joiner.ip == tentative  # forgery did not displace the address
    assert sc.metrics.verdicts["arep.rejected.bad_cga"] >= 1


def test_replayed_arep_rejected_by_challenge():
    """An AREP recorded in one round cannot answer a later round's challenge."""
    sc = chain_scenario(n=2, seed=19).build()
    sc.trace.enabled = True
    victim, joiner = sc.hosts[0], sc.hosts[1]
    sc.sim.schedule(0.0, victim.bootstrap.start, "")
    sc.run(duration=5.0)

    # Round 1: joiner probes the victim's address; victim answers AREP.
    boot = joiner.bootstrap
    boot.state = "probing"
    boot.tentative_ip = victim.ip
    boot._tentative_params = victim.cga_params
    boot.pending_ch = 111
    boot.pending_seq = joiner.next_seq()
    from repro.messages.bootstrap import AREQ

    areq = AREQ(sip=victim.ip, seq=boot.pending_seq, domain_name="", ch=111)
    boot._seen_areqs.add((areq.sip, areq.seq))
    boot._timer.start(joiner.config.dad_timeout)
    joiner.broadcast(areq, claimed_src=victim.ip)
    sc.run(duration=1.0)
    accepted_before = sc.metrics.verdicts["arep.accepted"]
    assert accepted_before >= 1

    # Capture the genuine AREP and replay it against a *new* challenge.
    recorded = [
        e.payload for e in sc.trace.events
        if e.kind == "send" and e.msg_type == "AREP" and e.node == victim.name
    ]
    sc.run(duration=8.0)  # let round 2 begin (joiner drew a fresh rn)

    boot.pending_ch = 222  # fresh challenge now pending
    boot.state = "probing"
    boot.tentative_ip = victim.ip
    boot._timer.start(joiner.config.dad_timeout)
    # Replay the old AREP directly into the joiner.
    from repro.phy.medium import Frame

    for old in recorded:
        joiner._on_frame(Frame(victim.link_id, joiner.link_id, victim.ip, old, 10))
    assert sc.metrics.verdicts["arep.rejected.bad_signature"] >= 1
    assert sc.metrics.verdicts["arep.accepted"] == accepted_before


def test_unconfigured_nodes_do_not_relay():
    """A flood cannot be relayed by hosts that have no address yet."""
    sc = chain_scenario(n=3, seed=23).build()
    sc.trace.enabled = True
    # Nobody bootstrapped: n0's AREQ reaches only n1, which must stay quiet.
    sc.hosts[0].bootstrap.start("")
    sc.run(duration=1.0)
    areq_sends = [e for e in sc.trace.events if e.kind == "send" and e.msg_type == "AREQ"]
    senders = {e.node for e in areq_sends}
    assert senders == {"n0", "dns"}  # only the joiner itself and the (configured) DNS relay


def test_dad_gives_up_after_max_retries():
    sc = chain_scenario(n=2, seed=29, dad_max_retries=2).build()
    sc.sim.schedule(0.0, sc.hosts[0].bootstrap.start, "")
    sc.run(duration=5.0)
    victim, joiner = sc.hosts[0], sc.hosts[1]
    boot = joiner.bootstrap
    failures = []
    boot.on_failed.append(lambda n: failures.append(n))

    # Force every round to collide by pinning the tentative address.
    original = boot._new_address_round

    def rigged(new_rn):
        original(new_rn=False)  # never draw a fresh rn
        boot.tentative_ip = victim.ip
        boot._tentative_params = victim.cga_params

    boot._new_address_round = rigged
    boot.state = "probing"
    boot.round = 0
    rigged(True)
    # Re-flood manually with the rigged address each round is complex;
    # instead simply deliver victim's AREP each round via the real flow.
    from repro.messages.bootstrap import AREQ

    def flood_round():
        if boot.state != "probing":
            return
        areq = AREQ(sip=victim.ip, seq=joiner.next_seq(), domain_name="",
                    ch=boot.pending_ch, route_record=())
        joiner.broadcast(areq, claimed_src=victim.ip)
        sc.sim.schedule(1.0, flood_round)

    flood_round()
    sc.run(duration=30.0)
    assert boot.state == "failed"
    assert failures and failures[0] is joiner


# -- forged DREPs: the DNS signature is the only proof of a name conflict ------

def forged_drep(forger, sip, name, ch):
    """A DREP for ``name`` signed by ``forger``'s own key, not the DNS's.

    ``ch`` is the challenge of the probe it answers, which every
    neighbour hears in the AREQ.
    """
    from repro.messages import signing
    from repro.messages.bootstrap import DREP

    signature = forger.sign(signing.drep_payload(name, ch))
    return DREP(sip=sip, route_record=(), domain_name=name, signature=signature)


@pytest.mark.parametrize("crypto_backend", ["simsig", "rsa"])
def test_forged_drep_does_not_take_a_joiners_name(crypto_backend):
    sc = chain_scenario(n=3, seed=17, crypto_backend=crypto_backend).build()
    sc.sim.schedule(0.0, sc.hosts[0].bootstrap.start, "")
    sc.sim.schedule(0.3, sc.hosts[1].bootstrap.start, "")
    sc.run(duration=5.0)

    joiner, attacker = sc.hosts[2], sc.hosts[1]
    boot = joiner.bootstrap
    boot.start("carol.manet")
    sc.run(duration=0.2)  # AREQ is out; joiner still probing
    assert boot.state == "probing"
    rejected = sc.metrics.verdicts["drep.rejected.bad_signature"]
    conflicts = sc.metrics.name_conflicts_detected
    round_, seq = boot.round, boot.pending_seq

    attacker.broadcast(forged_drep(attacker, boot.tentative_ip, "carol.manet", boot.pending_ch))
    sc.run(duration=0.5)  # delivered; the DAD timer has not fired yet
    assert sc.metrics.verdicts["drep.rejected.bad_signature"] == rejected + 1
    assert boot.requested_name == "carol.manet"
    assert sc.metrics.name_conflicts_detected == conflicts
    assert (boot.state, boot.round, boot.pending_seq) == ("probing", round_, seq)
    sc.run(duration=5.0)
    assert joiner.configured and joiner.domain_name == "carol.manet"


@pytest.mark.parametrize("crypto_backend", ["simsig", "rsa"])
def test_forged_refresh_drep_does_not_take_a_configured_name(crypto_backend):
    sc = chain_scenario(n=3, seed=17, crypto_backend=crypto_backend).build()
    sc.bootstrap_all(names={"n2": "carol.manet"})
    sc.run(duration=8.0)  # the registration refresh has landed
    host, attacker = sc.hosts[2], sc.hosts[1]
    boot = host.bootstrap
    assert boot.state == "configured" and host.domain_name == "carol.manet"
    rejected = sc.metrics.verdicts["drep.rejected.bad_signature"]
    conflicts = sc.metrics.name_conflicts_detected

    sc.trace.enabled = True
    attacker.broadcast(forged_drep(attacker, host.ip, "carol.manet", boot.pending_ch))
    sc.run(duration=host.config.registration_refresh_delay + 2.0)
    assert sc.metrics.verdicts["drep.rejected.bad_signature"] == rejected + 1
    assert host.domain_name == "carol.manet"
    assert sc.metrics.name_conflicts_detected == conflicts
    # No refresh was scheduled: the host floods no registration AREQ.
    assert sc.trace.sends("DREP") and not [
        e for e in sc.trace.sends("AREQ") if e.node == host.name
    ]
