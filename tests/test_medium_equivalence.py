"""Production medium vs the reference oracle: byte-identical runs.

The broadcast pipeline (cached spatial-hash candidate blocks -> one
numpy distance computation -> fault hook -> one batched loss draw ->
batch-scheduled deliveries) must not change *anything* observable
against the oracle in ``tests/phy_oracle.py``: a full scan of every
radio and a scalar per-receiver loop.  Same seed + same scenario must
yield identical metrics summaries, identical traces and identical
medium counters, under loss, random-waypoint mobility, churn,
promiscuous (monitor-mode) radios and every frame-level fault kind
(partition, link flap, loss surge, corrupt).  The index and the
pipeline swapped one at a time are in
tests/test_vectorized_equivalence.py.
"""

import pytest

from phy_oracle import OracleMedium, oracle_medium
from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.phy.mobility import ChurnModel
from repro.scenarios import ScenarioBuilder
from repro.scenarios.attacks import add_replayer
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
            scenario.medium.suppressed_frames,
        ),
        "events": scenario.sim.events_executed,
    }


def on_both(run) -> tuple[dict, dict]:
    """``run()`` on the production medium, then on the oracle."""
    production = run()
    with oracle_medium():
        oracle = run()
    return production, oracle


def assert_identical(production: dict, oracle: dict) -> None:
    assert production["trace"], "empty trace: the comparison would be vacuous"
    for key in oracle:
        assert production[key] == oracle[key], f"diverges on {key!r}"


def run_static() -> dict:
    sc = (
        ScenarioBuilder(seed=42)
        .grid(12, spacing=180.0)
        .radio(250.0, loss_rate=0.1)
        .with_dns()
        .build()
    )
    sc.trace.enabled = True
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    for k in range(5):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 32)
    sc.run(duration=20.0)
    return fingerprint(sc)


def run_mobile_with_churn() -> dict:
    sc = (
        ScenarioBuilder(seed=7)
        .uniform(10, (700.0, 700.0))
        .radio(250.0, loss_rate=0.05)
        .with_dns()
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


#: Every frame-level fault kind, with windows that overlap each other
#: and a crash that disables a radio mid-window.
FAULT_EVENTS = [
    {"kind": "loss_surge", "at": 0.5, "duration": 3.0, "loss": 0.3},
    {"kind": "corrupt", "at": 1.0, "duration": 4.0, "rate": 0.3},
    {"kind": "link_flap", "at": 2.0, "a": 0, "b": 1, "duration": 3.0},
    {"kind": "crash", "at": 2.5, "node": 4, "recover_after": 2.0},
    {"kind": "partition", "at": 4.0, "duration": 3.0, "groups": 2},
    {"kind": "partition", "at": 9.0, "duration": 2.0,
     "members": [[0, 1, 2], [3, 4, 5, 6, 7, 8]]},
]


def run_mobile_with_every_fault() -> dict:
    sc = (
        ScenarioBuilder(seed=23)
        .grid(9, spacing=170.0)
        .radio(250.0, loss_rate=0.05)
        .with_dns((170.0, 170.0))
        .random_waypoint(speed=(1.0, 4.0), pause=2.0)
        .faults({"events": FAULT_EVENTS})
        .build()
    )
    sc.trace.enabled = True
    add_replayer(sc, (340.0, 85.0))  # a monitor-mode radio in the mix
    sc.bootstrap_all()
    for i, j in ((0, 8), (6, 2)):
        for k in range(8):
            sc.sim.schedule(0.25 + k * 1.5, sc.send_data, sc.hosts[i],
                            sc.hosts[j].ip, b"z" * 24)
    sc.run(duration=16.0)
    stats = sc.faults.stats()
    assert stats["frames_corrupted"] > 0 and stats["frames_suppressed"] > 0
    return fingerprint(sc)


def test_static_scenario_with_loss_is_byte_identical():
    assert_identical(*on_both(run_static))


def test_mobile_churn_scenario_is_byte_identical():
    assert_identical(*on_both(run_mobile_with_churn))


def test_every_fault_kind_is_byte_identical():
    """Hooked broadcasts: suppressed copies draw no loss variate and the
    hook's (possibly corrupted) frame is what each receiver gets."""
    assert_identical(*on_both(run_mobile_with_every_fault))


def test_unicast_with_promiscuous_snoops_is_byte_identical():
    """Monitor-mode overhearing draws loss per snoop; the draw order (and
    so every delivery) must match the oracle's."""

    def run(medium_cls):
        sim = Simulator(seed=11)
        medium = medium_cls(sim, radio_range=100.0, loss_rate=0.3)
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

    assert run(WirelessMedium) == run(OracleMedium)


def flood_with_snoops(medium_cls, hook=None) -> tuple:
    """Unicasts (overheard by monitor-mode radios) interleaved with
    floods from every radio, sharing one ``phy/loss`` stream."""
    sim = Simulator(seed=11)
    medium = medium_cls(sim, radio_range=100.0, loss_rate=0.3)
    medium.fault_hook = hook
    log = []
    radios = [
        medium.attach(
            (i * 40.0, 0.0), lambda f, i=i: log.append((sim.now, i, f.payload))
        )
        for i in range(6)
    ]
    for snoop in (2, 4, 3):
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
    counters = (medium.total_frames, medium.dropped_frames, medium.suppressed_frames)
    return log, counters


def test_broadcasts_with_promiscuous_snoops_are_byte_identical():
    assert flood_with_snoops(WirelessMedium) == flood_with_snoops(OracleMedium)


def test_hooked_broadcasts_are_byte_identical():
    """A hook that suppresses some copies and rewrites others, drawing
    from its own stream like the fault injector does."""

    def make_hook():
        rng = Simulator(seed=5).rng("test/hook")

        def hook(src, dst, frame):
            u = rng.random()
            if u < 0.3:
                return None
            if u < 0.5:
                return Frame(frame.src_link, frame.dst_link, frame.src_ip,
                             f"{frame.payload}!{dst}", frame.size)
            return frame

        return hook

    production = flood_with_snoops(WirelessMedium, make_hook())
    assert production == flood_with_snoops(OracleMedium, make_hook())
    log, (_, _, suppressed) = production
    assert suppressed > 0
    assert any("!" in str(entry[-1]) for entry in log)


@pytest.mark.parametrize(
    "medium_cls", [WirelessMedium, OracleMedium], ids=["grid", "naive"]
)
def test_neighbors_matches_brute_force(medium_cls):
    sim = Simulator(seed=3)
    medium = medium_cls(sim, radio_range=120.0)
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

