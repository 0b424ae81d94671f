"""Experiment F2 -- Figure 2 (the secure DAD message sequence).

Recreates the figure's situation: a joiner S floods AREQ for an address
already held by a host R several hops away; R answers with a signed AREP
along the reverse route record and warns the DNS; S draws a fresh rn and
retries.  The test asserts the exact message causality, prints the
transcript (the figure, as text), and also demonstrates the gap the
extended DAD closes over one-hop NS/NA DAD.  The benchmark times a full
clean DAD round on a 4-hop network.
"""

from repro.messages.bootstrap import AREQ
from repro.trace.sequence import transcript

from _harness import bootstrapped, chain


def _rig_collision(sc, joiner, victim, ch=4242, name=""):
    """Point the joiner's next DAD round at the victim's exact address."""
    boot = joiner.bootstrap
    joiner.abandon_identity()
    boot.state = "probing"
    boot.round = 0
    boot.requested_name = name
    boot.tentative_ip = victim.ip
    boot._tentative_params = victim.cga_params
    boot.pending_ch = ch
    boot.pending_seq = joiner.next_seq()
    areq = AREQ(sip=victim.ip, seq=boot.pending_seq, domain_name=name, ch=ch)
    boot._seen_areqs.add((areq.sip, areq.seq))
    boot._timer.start(joiner.config.dad_timeout)
    joiner.broadcast(areq, claimed_src=victim.ip)


def test_fig2_duplicate_address_sequence():
    sc = bootstrapped(chain(5, seed=151))
    sc.trace.enabled = True
    victim, joiner = sc.hosts[0], sc.hosts[4]   # 4 hops apart
    start = sc.sim.now
    _rig_collision(sc, joiner, victim)
    sc.run(duration=10.0)

    events = [e for e in sc.trace.events if e.time >= start]
    areq_flood = [e for e in events if e.kind == "send" and e.msg_type == "AREQ"]
    defence = [e for e in events if e.kind == "send" and e.msg_type == "AREP"
               and e.node == victim.name]
    accepted = [e for e in events if e.kind == "verdict" and e.detail == "arep.accepted"]

    # The Figure 2 causal chain: flood -> defence (incl. DNS warning) ->
    # challenge-verified acceptance -> fresh address adopted.
    assert len(areq_flood) >= 4          # joiner + relays
    assert len(defence) >= 2             # reverse-RR AREP + DNS warning copy
    assert any(e.payload.to_dns for e in defence)
    assert accepted
    assert joiner.configured and joiner.ip != victim.ip

    print("\nFigure 2 (reproduced), duplicate-address branch:")
    print(transcript(sc.trace, msg_types={"AREQ", "AREP"})[-2500:])


def test_fig2_duplicate_name_sequence():
    sc = bootstrapped(chain(5, seed=157), names={"n0": "shared.manet"})
    sc.trace.enabled = True
    joiner = sc.hosts[4]
    start = sc.sim.now
    # Fresh address (no collision) but the *name* is taken: DNS sends DREP.
    joiner.abandon_identity()
    boot = joiner.bootstrap
    boot.state = "idle"
    boot.start("shared.manet")
    sc.run(duration=20.0)

    events = [e for e in sc.trace.events if e.time >= start]
    dreps = [e for e in events if e.kind == "send" and e.msg_type == "DREP"
             and e.node == "dns"]
    assert dreps                                   # the DNS objected
    assert joiner.configured
    assert joiner.domain_name == "shared.manet-2"  # forced to a new name
    assert sc.dns_server.table.lookup("shared.manet").ip == sc.hosts[0].ip

    print("\nFigure 2 (reproduced), duplicate-name branch:")
    print(transcript(sc.trace, msg_types={"AREQ", "DREP"})[-2000:])


def test_one_hop_dad_misses_what_extended_dad_catches():
    """Section 2.2's motivation, measured: same duplicate 4 hops away."""
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = bootstrapped(chain(5, seed=163))
    victim, joiner = sc.hosts[0], sc.hosts[4]

    # One-hop DAD probing the victim's address: no NA can arrive.
    joiner.abandon_identity()
    dad = OneHopDAD(joiner)
    dad.state = "probing"
    dad._domain_name = ""
    dad.tentative_ip = victim.ip
    dad._tentative_params = victim.cga_params
    from repro.messages.ndp import NeighborSolicitation

    joiner.broadcast(NeighborSolicitation(target=victim.ip), claimed_src=victim.ip)
    dad._timer.start(dad.timeout)
    sc.run(duration=5.0)
    assert joiner.ip == victim.ip   # one-hop DAD: collision UNDETECTED

    # Extended DAD in the identical situation catches it.
    _rig_collision(sc, joiner, victim, ch=777)
    sc.run(duration=10.0)
    assert joiner.ip != victim.ip   # extended DAD: collision resolved


def test_bench_full_dad_round(benchmark):
    """Wall-clock cost of simulating one clean 4-hop DAD round."""

    def one_round():
        sc = bootstrapped(chain(5, seed=167), settle=0.0)
        return sc.configured_count()

    result = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert result == 5
