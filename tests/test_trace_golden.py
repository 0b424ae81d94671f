"""Golden traces: the SHA-256 of ``trace.dump()`` for seeded scenarios.

The recorder formats a traced message's detail when it is read, not
when the message is sent or received.  These digests pin every dumped
byte -- times, nodes, message summaries and the `` ->next-hop`` suffix
of unicast hops -- across bootstrap with DNS registration, route
discovery with DATA/ACK, three adversaries and a fault plan, so a
change to what the trace records, or to the text it formats, fails
here.  The recorder is off by default, so each scenario turns it on
right after ``build()``, which records nothing.
"""

import hashlib

import pytest

from repro.scenarios.attacks import add_blackhole, add_forger, add_replayer
from repro.scenarios.workloads import CBRTraffic
from tests.conftest import chain_scenario, two_path_scenario


def bootstrap_with_dns():
    sc = chain_scenario(n=4, seed=7).build()
    sc.trace.enabled = True
    sc.bootstrap_all(names={h.name: f"{h.name}.manet" for h in sc.hosts})
    assert all(h.domain_name for h in sc.hosts)
    return sc


def discovery_and_data():
    sc = chain_scenario(n=4, seed=11).build()
    sc.trace.enabled = True
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[3]
    for k in range(3):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 16)
    sc.run(duration=10.0)
    assert sc.metrics.summary()["data_acked"] == 3
    # the last DATA hop names the destination as its next hop
    assert any(e.detail.endswith(f" ->{z.ip}") for e in sc.trace.sends("DATA"))
    return sc


def rsa_hop_forger():
    sc = two_path_scenario(seed=59, crypto_backend="rsa",
                           verify_at_intermediate=True).build()
    sc.trace.enabled = True
    victim = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)
    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    assert sc.metrics.verdicts["rreq.rejected.hop_bad_cga"] >= 1
    return sc


def replayer():
    sc = chain_scenario(n=4, seed=47).build()
    sc.trace.enabled = True
    add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)
    a.router.cache.clear()
    a.router._recent_discoveries.clear()
    a.router.send_data(b.ip, b"two")
    sc.run(duration=10.0)
    return sc


def blackhole():
    sc = two_path_scenario(seed=5, hostile_mode=True).build()
    sc.trace.enabled = True
    bh = add_blackhole(sc, (200, 0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[1]
    CBRTraffic(a, b.ip, interval=1.0, count=10)
    sc.run(duration=40.0)
    assert bh.router.packets_dropped > 0
    return sc


def corrupt_and_partition():
    sc = chain_scenario(n=4, seed=13).faults({"events": [
        {"kind": "corrupt", "at": 0.5, "duration": 2.0, "rate": 0.5},
        {"kind": "partition", "at": 3.0, "duration": 2.0,
         "members": [[0, 1], [2, 3]]},
    ]}).build()
    sc.trace.enabled = True
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[3]
    for k in range(6):
        sc.sim.schedule(0.25 + k * 1.0, sc.send_data, a, z.ip, b"y" * 8)
    sc.run(duration=15.0)
    stats = sc.faults.stats()
    assert stats["frames_corrupted"] > 0 and stats["frames_suppressed"] > 0
    return sc


GOLDEN = {
    bootstrap_with_dns:
        "b16911611e2a3c42e87c464775222edb5e5849f0867ff4563750a0baecbb9807",
    discovery_and_data:
        "6dda5da6c2e03157c82dda55842dfe18efb3b502afc46888be147f6906e999be",
    rsa_hop_forger:
        "a72b035e9c2d866d2dc7e3d88f7798d36184be8501fbe641f6cde91319c0a531",
    replayer:
        "c305b87c9d0f9697c7078a6bb50d0fad237c94fe2877fbe6fbf7b481408eec70",
    blackhole:
        "9f02ab08484b8e770f861ab5d6ed253abd5ffe5ae9c00e522f8d4984e032114f",
    corrupt_and_partition:
        "b7d176fd2b883f93bcc35774b002375ff31f9e6108f560879d9de5cd1b2a2e87",
}


@pytest.mark.parametrize("scenario", list(GOLDEN), ids=lambda f: f.__name__)
def test_trace_dump_matches_golden_digest(scenario):
    dump = scenario().trace.dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN[scenario]
