"""Replay and forgery attack experiments (Section 4) as tests."""

import pytest

from repro.ipv6.address import IPv6Address
from repro.routing.bsar_like import EndpointOnlyRouter
from repro.scenarios import ScenarioBuilder
from repro.scenarios.attacks import add_forger, add_replayer, add_rerr_spammer
from repro.scenarios.workloads import CBRTraffic
from conftest import chain_scenario, two_path_scenario


def test_replayed_rreps_never_accepted():
    """The replayer records RREPs then fires them at later discoveries."""
    sc = chain_scenario(n=4, seed=47).build()
    rep = add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]

    accepted_baseline = 0
    # Round 1: legitimate discovery (replayer records the RREP it hears).
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)
    accepted_baseline = sc.metrics.verdicts["rrep.accepted"]
    assert rep.component("replayer").recorded_rreps

    # Expire the cache, then rediscover: the replayer races the real reply.
    a.router.cache.clear()
    a.router._recent_discoveries.clear()
    a.router.send_data(b.ip, b"two")
    sc.run(duration=10.0)
    assert rep.component("replayer").replays_fired >= 1
    # Replays carry the OLD sequence number: every one rejected as stale.
    assert sc.metrics.verdicts["rrep.rejected.stale_seq"] >= 1
    assert sc.metrics.delivered(a.ip, b.ip) == 2  # real traffic unharmed


def test_replayer_records_each_message_once_and_the_run_finishes():
    """Honest relays forward the replayer's own broadcast RREP replays.
    Recorded again (a forward differs only in hop limit), they would
    grow the recordings geometrically, and this run would spend its
    100,000 events within the first few simulated seconds of 16."""
    sc = (ScenarioBuilder(seed=4).grid(16, spacing=180.0)
          .with_dns((270.0, 270.0))
          .random_waypoint(speed=(1.0, 5.0), pause=2.0)
          .faults({"events": [
              {"kind": "corrupt", "at": 1.0, "duration": 4.0, "rate": 0.2},
              {"kind": "crash", "at": 2.0, "node": 5, "recover_after": 4.0},
              {"kind": "partition", "at": 8.0, "duration": 3.0, "groups": 2},
          ]})
          .build())
    add_forger(sc, (270.0, 90.0), spoof_hop_ip=IPv6Address("fec0::bad"),
               forge_acks=True)
    add_rerr_spammer(sc, (270.0, 450.0))
    replayer = add_replayer(sc, (90.0, 270.0)).component("replayer")
    sc.bootstrap_all()
    for i, j in ((0, 15), (3, 12), (12, 1), (15, 4)):
        CBRTraffic(sc.hosts[i], sc.hosts[j].ip, interval=0.5, count=24)
    end = sc.sim.now + 16.0
    sc.sim.run(until=end, max_events=100_000)
    assert sc.sim.now == end  # ran to the end, not out of events
    assert replayer.replays_fired > 0
    recordings = replayer.recorded_rreps + replayer.recorded_rerrs
    assert recordings
    assert len({m.replace(hop_limit=0) for m in recordings}) == len(recordings)


def test_replay_everything_is_fully_rejected():
    sc = chain_scenario(n=4, seed=53).build()
    rep = add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)

    accepted_before = {
        k: v for k, v in sc.metrics.verdicts.items()
        if k.endswith(".accepted") and k.split(".")[0] in ("rrep", "crep", "arep")
    }
    fired = rep.component("replayer").replay_everything()
    sc.run(duration=10.0)
    accepted_after = {
        k: v for k, v in sc.metrics.verdicts.items()
        if k.endswith(".accepted") and k.split(".")[0] in ("rrep", "crep", "arep")
    }
    assert fired > 0
    assert accepted_after == accepted_before  # zero replays accepted


def test_spoofed_hop_rejected_by_full_protocol():
    """A relay splicing a fake hop identity is caught by per-hop checks."""
    sc = two_path_scenario(seed=59).build()
    victim_ip_holder = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim_ip_holder.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)

    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    assert forger.router.hops_spoofed >= 1
    assert sc.metrics.verdicts["rreq.rejected.hop_bad_cga"] >= 1
    # Traffic still flows via the honest path.
    assert sc.metrics.delivered(a.ip, b.ip) == 1


def test_spoofed_hop_accepted_by_endpoint_only_baseline():
    """The BSAR-like baseline cannot see the spoofed hop (the paper's gap)."""
    sc = two_path_scenario(seed=59).router(EndpointOnlyRouter).build()
    victim_ip_holder = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim_ip_holder.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)

    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    assert forger.router.hops_spoofed >= 1
    # No hop rejection verdict exists -- the forged SRR sailed through.
    assert sc.metrics.verdicts["rreq.rejected.hop_bad_cga"] == 0
    # The poisoned route (containing the victim's spoofed address) may be
    # cached at the destination side; the attack went undetected.


def test_forged_acks_rejected_and_forger_cannot_mask_drops():
    sc = two_path_scenario(seed=61, hostile_mode=True).build()
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), forge_acks=True, drop_data=True)
    forger.bootstrap.start("")
    sc.run(duration=5.0)

    a, b = sc.hosts[0], sc.hosts[1]
    from repro.scenarios.workloads import CBRTraffic

    traffic = CBRTraffic(a, b.ip, interval=1.0, count=15)
    sc.run(duration=60.0)
    if forger.router.acks_forged:
        assert sc.metrics.rejected("ack") >= 1
    # Forged ACKs bought the forger nothing: delivery still completes via
    # the honest detour after detection.
    assert traffic.delivered == traffic.count


def test_forger_gains_no_credit_from_forged_acks():
    sc = two_path_scenario(seed=61, hostile_mode=True).build()
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), forge_acks=True, drop_data=True)
    forger.bootstrap.start("")
    sc.run(duration=5.0)
    a, b = sc.hosts[0], sc.hosts[1]
    from repro.scenarios.workloads import CBRTraffic

    CBRTraffic(a, b.ip, interval=1.0, count=10)
    sc.run(duration=40.0)
    # Credit can only have gone down (penalty) or stayed at initial.
    assert a.router.credits.credit(forger.ip) <= a.config.credit_initial
