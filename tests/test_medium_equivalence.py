"""Grid-index / naive-scan equivalence: byte-identical runs.

The spatial-hash fast path must not change *anything* observable: same
seed + same scenario must yield identical metrics summaries, identical
traces, and identical medium counters whichever index computed receiver
sets.  These tests pin that claim across static and random-waypoint
topologies, with loss, churn, and promiscuous (monitor-mode) radios.
"""

import pytest

from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.phy.mobility import ChurnModel
from repro.scenarios import ScenarioBuilder
from repro.sim.kernel import Simulator

SRC_IP = IPv6Address("fec0::aa")


def fingerprint(scenario) -> dict:
    """Everything observable about a finished run."""
    return {
        "summary": scenario.metrics.summary(),
        "trace": [
            (e.time, e.node, e.kind, e.msg_type, e.detail)
            for e in scenario.trace.events
        ],
        "medium": (
            scenario.medium.total_frames,
            scenario.medium.total_bytes,
            scenario.medium.dropped_frames,
        ),
        "events": scenario.sim.events_executed,
    }


def run_static(index: str) -> dict:
    sc = (
        ScenarioBuilder(seed=42)
        .grid(12, spacing=180.0)
        .radio(250.0, loss_rate=0.1)
        .with_dns()
        .medium(index)
        .build()
    )
    sc.trace.enabled = True
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    for k in range(5):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 32)
    sc.run(duration=20.0)
    return fingerprint(sc)


def run_mobile_with_churn(index: str) -> dict:
    sc = (
        ScenarioBuilder(seed=7)
        .uniform(10, (700.0, 700.0))
        .radio(250.0, loss_rate=0.05)
        .with_dns()
        .medium(index)
        .random_waypoint(speed=(2.0, 8.0), pause=2.0)
        .build()
    )
    sc.trace.enabled = True
    churn = ChurnModel(
        sc.sim, sc.medium, [h.link_id for h in sc.hosts],
        interval=5.0, min_present=4,
    )
    churn.start()
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[1]
    for k in range(4):
        sc.sim.schedule(k * 2.0, sc.send_data, a, z.ip, b"y" * 48)
    sc.run(duration=25.0)
    return fingerprint(sc)


def assert_identical(grid: dict, naive: dict) -> None:
    assert grid["summary"] == naive["summary"]
    assert grid["medium"] == naive["medium"]
    assert grid["events"] == naive["events"]
    assert grid["trace"], "empty trace: the comparison would be vacuous"
    assert grid["trace"] == naive["trace"]


def test_static_scenario_with_loss_is_byte_identical():
    assert_identical(run_static("grid"), run_static("naive"))


def test_mobile_churn_scenario_is_byte_identical():
    assert_identical(run_mobile_with_churn("grid"), run_mobile_with_churn("naive"))


def test_unicast_with_promiscuous_snoops_is_byte_identical():
    """Monitor-mode overhearing draws loss per snoop; the draw order (and
    so every delivery) must match between index implementations."""

    def run(index):
        sim = Simulator(seed=11)
        medium = WirelessMedium(
            sim, radio_range=100.0, loss_rate=0.3, index=index
        )
        log = []
        radios = [
            medium.attach((i * 40.0, 0.0), lambda f, i=i: log.append((sim.now, i)))
            for i in range(6)
        ]
        for snoop in (2, 4, 3):  # insertion order must not matter
            medium.set_promiscuous(radios[snoop].link_id)
        for k in range(30):
            medium.unicast(
                Frame(radios[0].link_id, radios[1].link_id, SRC_IP, f"m{k}", 20),
                on_fail=lambda f: log.append((sim.now, "fail")),
            )
        sim.run()
        return log, medium.total_frames, medium.dropped_frames

    assert run("grid") == run("naive")


@pytest.mark.parametrize("index", ["grid", "naive"])
def test_neighbors_matches_brute_force(index):
    sim = Simulator(seed=3)
    medium = WirelessMedium(sim, radio_range=120.0, index=index)
    rng = sim.rng("test/placement")
    handles = [
        medium.attach((rng.uniform(0, 500), rng.uniform(0, 500)), lambda f: None)
        for _ in range(30)
    ]
    medium.set_enabled(handles[4].link_id, False)
    for h in handles:
        expected = [
            o.link_id for o in handles
            if o.link_id != h.link_id and medium.in_range(h.link_id, o.link_id)
        ]
        assert medium.neighbors(h.link_id) == expected
