"""End-to-end integration tests: full network lifecycle scenarios."""

import pytest

from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.workloads import CBRTraffic, PoissonTraffic, RequestResponse
from tests.conftest import chain_scenario


def test_full_lifecycle_bootstrap_register_resolve_communicate():
    """The paper's end-to-end story on one network."""
    sc = chain_scenario(n=5, seed=101).build()
    # 1. Network formation: everyone autoconfigures, two register names.
    sc.bootstrap_all(names={"n0": "alice.manet", "n4": "bob.manet"})
    sc.run(duration=8.0)
    assert sc.configured_count() == 5
    assert set(sc.dns_server.table.names()) == {"alice.manet", "bob.manet"}

    # 2. Alice resolves Bob securely.
    resolved = []
    sc.hosts[0].dns_client.resolve("bob.manet", resolved.append)
    sc.run(duration=10.0)
    assert resolved == [sc.hosts[4].ip]

    # 3. Alice talks to Bob over the 4-hop route.
    traffic = CBRTraffic(sc.hosts[0], resolved[0], interval=0.5, count=10)
    sc.run(duration=20.0)
    assert traffic.delivered == 10
    # Every ACK verified, every relay on the chosen route earned credit.
    assert sc.metrics.verdicts["ack.accepted"] >= 10
    credits = sc.hosts[0].router.credits
    route = sc.hosts[0].router.cache.routes_to(resolved[0], sc.sim.now)[0].route
    assert route  # multi-hop
    for relay_ip in route:
        assert credits.credit(relay_ip) > sc.hosts[0].config.credit_initial


def test_sixteen_node_grid_many_flows():
    sc = ScenarioBuilder(seed=103).grid(16, spacing=180).with_dns().build()
    sc.bootstrap_all()
    assert sc.configured_count() == 16
    flows = [
        CBRTraffic(sc.hosts[i], sc.hosts[15 - i].ip, interval=1.0, count=5)
        for i in range(4)
    ]
    sc.run(duration=40.0)
    for f in flows:
        assert f.delivered == 5
    assert sc.metrics.pdr() == 1.0


def test_lossy_network_still_functions():
    sc = (ScenarioBuilder(seed=107).chain(4, spacing=200)
          .radio(250, loss_rate=0.15).with_dns((300, 50)).build())
    sc.bootstrap_all()
    assert sc.configured_count() == 4
    t = CBRTraffic(sc.hosts[0], sc.hosts[3].ip, interval=1.0, count=15)
    sc.run(duration=60.0)
    assert t.delivered >= 12  # MAC + e2e retries absorb most loss


def test_rsa_backend_full_stack():
    """The entire protocol runs unchanged over real RSA signatures."""
    sc = (ScenarioBuilder(seed=109).chain(3, spacing=200)
          .with_dns((200, 50)).config(crypto_backend="rsa").build())
    sc.bootstrap_all(names={"n0": "alice.manet"})
    sc.run(duration=8.0)
    assert sc.configured_count() == 3
    done = []
    sc.hosts[0].router.send_data(sc.hosts[2].ip, b"rsa!",
                                 on_delivered=lambda: done.append(1))
    sc.run(duration=10.0)
    assert done == [1]
    assert sc.metrics.crypto_ops["rsa.sign"] > 0
    assert sc.metrics.crypto_ops["rsa.verify"] > 0


def test_mobile_network_random_waypoint():
    """Random-waypoint mobility: routes break and re-form; traffic flows."""
    sc = (ScenarioBuilder(seed=113).grid(9, spacing=150)
          .radio(250).with_dns()
          .random_waypoint(speed=(1.0, 3.0), pause=5.0)
          .build())
    sc.bootstrap_all()
    t = CBRTraffic(sc.hosts[0], sc.hosts[8].ip, interval=2.0, count=15)
    sc.run(duration=120.0)
    # Mobility at pedestrian speed over a dense grid: most packets arrive.
    assert t.delivered >= 10


def test_poisson_and_request_response_workloads():
    sc = chain_scenario(n=3, seed=127).build()
    sc.bootstrap_all()
    p = PoissonTraffic(sc.hosts[0], sc.hosts[2].ip, rate=2.0, count=10)
    rr = RequestResponse(sc.hosts[2], sc.hosts[0].ip, count=5, interval=1.0)
    sc.run(duration=40.0)
    assert p.delivered == 10
    assert rr.completed == 5
    assert rr.mean_rtt > 0


def test_determinism_end_to_end():
    """Identical seeds produce byte-identical histories."""
    def run_once():
        sc = chain_scenario(n=4, seed=131).build()
        sc.trace.enabled = True
        sc.bootstrap_all(names={"n0": "a.manet"})
        t = CBRTraffic(sc.hosts[0], sc.hosts[3].ip, interval=1.0, count=5)
        sc.run(duration=20.0)
        return (
            [str(h.ip) for h in sc.hosts],
            dict(sc.metrics.verdicts),
            sc.metrics.msgs_sent["RREQ"],
            sc.trace.dump(),
            t.delivered,
        )

    first = run_once()
    assert first[3]  # a non-empty trace
    assert first == run_once()


def test_crypto_delay_charging_slows_transmissions():
    def mean_latency(charge):
        sc = chain_scenario(n=4, seed=137, charge_crypto_delay=charge).build()
        sc.bootstrap_all()
        a, b = sc.hosts[0], sc.hosts[3]
        a.router.send_data(b.ip, b"x")
        sc.run(duration=10.0)
        return sc.metrics.flows[(a.ip, b.ip)].mean_latency

    # Charged crypto time shows up in the discovery+delivery latency.
    assert mean_latency(True) >= mean_latency(False)


def test_scenario_builder_validation():
    with pytest.raises(ValueError):
        ScenarioBuilder(seed=1).build()  # no topology
    sc = ScenarioBuilder(seed=1).chain(2).build()
    assert sc.dns_node is None  # DNS optional
    with pytest.raises(KeyError):
        sc.host("nope")
