"""Scalar / vectorised broadcast-pipeline equivalence: byte-identical runs.

The vectorised pipeline (cached candidate blocks -> one numpy distance
computation -> one batched loss draw -> batch-scheduled deliveries) must
not change *anything* observable versus the scalar loop it replaces:
same seed + same scenario must yield identical metrics summaries,
identical traces, and identical medium counters whichever path ran --
and whichever neighbor index fed it.  These tests mirror
tests/test_medium_equivalence.py across the full 2x2 matrix
(``medium_index`` x ``vectorized``) under loss, random-waypoint
mobility, churn, and promiscuous (monitor-mode) radios.
"""

import itertools

import pytest

from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.phy.mobility import ChurnModel
from repro.scenarios import ScenarioBuilder
from repro.sim.kernel import Simulator

SRC_IP = IPv6Address("fec0::aa")

#: Every (index, vectorized) combination; the first is the reference.
COMBOS = list(itertools.product(("grid", "naive"), (True, False)))


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


def assert_all_identical(fingerprints: dict) -> None:
    (ref_combo, ref), *rest = fingerprints.items()
    assert ref["trace"], "empty trace: the comparison would be vacuous"
    for combo, fp in rest:
        for key in ref:
            assert fp[key] == ref[key], (
                f"{combo} diverges from {ref_combo} on {key!r}"
            )


def run_static(index: str, vectorized: bool) -> dict:
    sc = (
        ScenarioBuilder(seed=42)
        .grid(12, spacing=180.0)
        .radio(250.0, loss_rate=0.1)
        .with_dns()
        .medium(index, vectorized=vectorized)
        .build()
    )
    sc.trace.enabled = True
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    for k in range(5):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 32)
    sc.run(duration=20.0)
    return fingerprint(sc)


def run_mobile_with_churn(index: str, vectorized: bool) -> dict:
    sc = (
        ScenarioBuilder(seed=7)
        .uniform(10, (700.0, 700.0))
        .radio(250.0, loss_rate=0.05)
        .with_dns()
        .medium(index, vectorized=vectorized)
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


def test_static_scenario_with_loss_is_byte_identical():
    assert_all_identical({c: run_static(*c) for c in COMBOS})


def test_mobile_churn_scenario_is_byte_identical():
    assert_all_identical({c: run_mobile_with_churn(*c) for c in COMBOS})


def test_broadcasts_with_promiscuous_snoops_are_byte_identical():
    """Monitor-mode radios draw loss per overheard unicast; interleaving
    unicasts with floods must keep the single ``phy/loss`` stream -- and
    so every delivery time -- identical across all four paths."""

    def run(index, vectorized):
        sim = Simulator(seed=11)
        medium = WirelessMedium(
            sim, radio_range=100.0, loss_rate=0.3,
            index=index, vectorized=vectorized,
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
            medium.broadcast(
                Frame(radios[k % 6].link_id, BROADCAST_LINK, SRC_IP, f"b{k}", 24)
            )
        sim.run()
        return log, medium.total_frames, medium.dropped_frames

    results = {c: run(*c) for c in COMBOS}
    ref = results[COMBOS[0]]
    for combo, res in results.items():
        assert res == ref, f"{combo} diverges"


@pytest.mark.parametrize("index", ["grid", "naive"])
def test_mobility_invalidates_candidate_cache(index):
    """A radio that moves between broadcasts must be seen at its *new*
    position -- the per-sender range cache may never serve stale
    distances or stale membership."""
    sim = Simulator(seed=5)
    medium = WirelessMedium(sim, radio_range=100.0, index=index, vectorized=True)
    heard = []
    a = medium.attach((0.0, 0.0), lambda f: None)
    b = medium.attach((90.0, 0.0), lambda f: heard.append(sim.now))
    medium.broadcast(Frame(a.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    sim.run()
    assert len(heard) == 1
    # b walks out of range: the cached receiver set must be recomputed
    medium.set_position(b.link_id, (500.0, 0.0))
    medium.broadcast(Frame(a.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    sim.run()
    assert len(heard) == 1
    # ... and back in range, closer: delivered again, at the new distance
    medium.set_position(b.link_id, (10.0, 0.0))
    medium.broadcast(Frame(a.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    sim.run()
    assert len(heard) == 2
    # disabling a receiver invalidates too
    medium.set_enabled(b.link_id, False)
    medium.broadcast(Frame(a.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    sim.run()
    assert len(heard) == 2


def test_medium_vectorized_spec_round_trips():
    builder = ScenarioBuilder(seed=5).chain(3).medium("naive", vectorized=False)
    spec = builder.to_spec()
    assert spec["medium_index"] == "naive"
    assert spec["medium_vectorized"] is False
    rebuilt = ScenarioBuilder.from_spec(spec)
    assert rebuilt._medium_index == "naive"
    assert rebuilt._medium_vectorized is False
    # the default (vectorized) serializes compactly: no key at all
    default = ScenarioBuilder(seed=5).chain(3)
    assert "medium_vectorized" not in default.to_spec()
    sc = ScenarioBuilder.from_spec(spec).build()
    assert sc.medium.vectorized is False
    assert ScenarioBuilder(seed=1).chain(3).build().medium.vectorized is True
