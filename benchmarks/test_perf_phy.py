"""Experiment P4 -- PHY broadcast path: flood scheduling vs network size.

Both claims time the production medium (spatial-hash grid + numpy
broadcast pipeline) against the reference oracle in
``tests/phy_oracle.py`` (full scan of every radio + scalar
per-receiver loop), each against its own floor:

1. **Index asymptotics**: one flood round (every node broadcasts once)
   costs O(N^2) on the oracle's full scan and O(N * degree) in
   production: **production >= 3x the oracle at N = 500**, with the
   advantage growing in N.

2. **Dense lossy floods** at **N = 1000 with loss_rate = 0.1**:
   **>= 2x** the oracle, with byte-identical deliveries (asserted
   event-by-event, not eyeballed), and a flood round encodes every
   distinct message at most once (``encode_call_count``).

Receiver sets, loss draws and traces are byte-identical to the oracle
under loss, mobility, churn and faults (tests/test_medium_equivalence.py
pins that); this experiment establishes the speed and writes the
machine-readable ``BENCH_phy.json`` scorecard consumed across PRs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.ipv6.address import IPv6Address
from repro.messages.codec import encode_call_count
from repro.messages.ndp import NeighborSolicitation
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.phy.topology import grid_positions
from repro.scenarios import ScenarioBuilder
from repro.sim.kernel import Simulator

from _harness import print_rows, write_bench_json

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from phy_oracle import OracleMedium  # noqa: E402

SIZES = (50, 200, 500)
SPACING = 180.0
RADIO_RANGE = 250.0
SRC_IP = IPv6Address("fec0::bb")
ROUNDS = 3

#: The dense-flood benchmark: a 1000-node deployment
#: (spacing 80 m at 250 m range ~ 26 neighbours) with 10% loss.
VEC_N = 1000
VEC_SPACING = 80.0
VEC_LOSS = 0.1

#: Scorecard accumulated by the tests in this file; flushed to
#: BENCH_phy.json by whichever test runs last.
_BENCH: dict = {}


def _flush_bench() -> None:
    if {"index_scaling", "vectorized"} <= set(_BENCH):
        write_bench_json("phy", _BENCH)


def build_medium(
    n: int,
    medium_cls: type = WirelessMedium,
    spacing: float = SPACING,
    loss_rate: float = 0.0,
) -> tuple[Simulator, WirelessMedium, list]:
    sim = Simulator(seed=1)
    medium = medium_cls(sim, radio_range=RADIO_RANGE, loss_rate=loss_rate)
    radios = [
        medium.attach(tuple(pos), lambda f: None)
        for pos in grid_positions(n, spacing)
    ]
    return sim, medium, radios


def flood_round(medium: WirelessMedium, radios: list) -> None:
    for radio in radios:
        medium.broadcast(Frame(radio.link_id, BROADCAST_LINK, SRC_IP, "x", 64))


def timed_flood(
    n: int,
    medium_cls: type = WirelessMedium,
    spacing: float = SPACING,
    loss_rate: float = 0.0,
) -> tuple[float, int]:
    """Best-of-ROUNDS wall-clock for one flood round; also the receiver
    count over all rounds (a cheap cross-check that the media agree)."""
    sim, medium, radios = build_medium(n, medium_cls, spacing, loss_rate)
    best = float("inf")
    for _ in range(ROUNDS):
        frames_before = medium.total_frames
        start = time.perf_counter()
        flood_round(medium, radios)
        best = min(best, time.perf_counter() - start)
        assert medium.total_frames - frames_before == n
        sim.run()  # drain deliveries between rounds so memory stays flat
    scheduled = sum(r.frames_received for r in radios)
    return best, scheduled


def test_grid_flood_scales_past_naive(benchmark):
    rows = []
    speedups = {}
    for n in SIZES:
        naive_t, naive_rx = timed_flood(n, OracleMedium)
        grid_t, grid_rx = timed_flood(n)
        # same receiver sets => same delivered-frame totals
        assert grid_rx == naive_rx
        speedups[n] = naive_t / grid_t
        rows.append([
            n,
            f"{naive_t * 1e3:.2f}",
            f"{grid_t * 1e3:.2f}",
            f"{speedups[n]:.1f}x",
        ])
    print_rows(
        "Flood round wall-clock: oracle full scan vs production grid",
        ["N", "oracle (ms)", "production (ms)", "speedup"],
        rows,
    )
    _BENCH["index_scaling"] = {
        "sizes": list(SIZES),
        "spacing_m": SPACING,
        "speedup_at_max_n": round(speedups[SIZES[-1]], 2),
    }
    _flush_bench()

    # The acceptance claim: quadratic -> near-linear pays off >= 3x by
    # N = 500.  (Typically 10x+; 3 keeps slow CI boxes honest.)
    assert speedups[500] >= 3.0, f"grid speedup at N=500 was {speedups[500]:.1f}x"
    # And the advantage grows with N -- the signature of an asymptotic win.
    assert speedups[500] > speedups[50]

    # Time the representative kernel: one production flood round at N=500.
    sim, medium, radios = build_medium(500)

    def round_and_drain():
        flood_round(medium, radios)
        sim.run()

    benchmark(round_and_drain)


def delivery_log(medium_cls: type, rounds: int = 2) -> tuple[list, tuple]:
    """Every (time, receiver, size) delivery of ``rounds`` lossy flood
    rounds at N = VEC_N, plus the medium counters."""
    sim = Simulator(seed=9)
    medium = medium_cls(sim, radio_range=RADIO_RANGE, loss_rate=VEC_LOSS)
    log: list = []
    radios = []
    for i, pos in enumerate(grid_positions(VEC_N, VEC_SPACING)):
        radios.append(
            medium.attach(
                tuple(pos), lambda f, i=i: log.append((sim.now, i, f.size))
            )
        )
    for _ in range(rounds):
        flood_round(medium, radios)
        sim.run()
    counters = (medium.total_frames, medium.total_bytes, medium.dropped_frames)
    return log, counters


def test_vectorized_flood_beats_scalar_at_n1000(benchmark):
    # -- byte-identical first: the speed claim is worthless otherwise.
    scalar_log, scalar_counters = delivery_log(OracleMedium)
    vec_log, vec_counters = delivery_log(WirelessMedium)
    assert vec_counters == scalar_counters
    assert vec_log == scalar_log  # every delivery: same time, receiver, size

    # -- then the wall-clock.  One re-measure before failing: shared CI
    # boxes have noisy neighbours, and a single noisy best-of-ROUNDS
    # must not fail a claim that holds comfortably on a quiet machine.
    for attempt in range(2):
        scalar_t, scalar_rx = timed_flood(
            VEC_N, OracleMedium, spacing=VEC_SPACING, loss_rate=VEC_LOSS
        )
        vec_t, vec_rx = timed_flood(
            VEC_N, spacing=VEC_SPACING, loss_rate=VEC_LOSS
        )
        assert vec_rx == scalar_rx
        speedup = scalar_t / vec_t
        if speedup >= 2.0:
            break
    print_rows(
        f"Broadcast pipeline vs the scalar oracle at N={VEC_N}, loss={VEC_LOSS}",
        ["medium", "flood round (ms)", "speedup"],
        [
            ["oracle (scalar)", f"{scalar_t * 1e3:.2f}", "1.0x"],
            ["production", f"{vec_t * 1e3:.2f}", f"{speedup:.1f}x"],
        ],
    )

    # -- encode-once: a flood round (send + one re-forward of the same
    # copy per node) encodes each distinct message exactly once.
    sc = ScenarioBuilder(seed=3).grid(25, spacing=SPACING).build()
    msgs = [
        NeighborSolicitation(target=IPv6Address("fec0::1"), domain_name=f"n{i}")
        for i in range(len(sc.hosts))
    ]
    encode_base = encode_call_count()
    for node, msg in zip(sc.hosts, msgs):
        node.broadcast(msg)
    for node, msg in zip(sc.hosts, msgs):
        node.broadcast(msg)
    sc.sim.run()
    encode_delta = encode_call_count() - encode_base
    assert encode_delta <= len(msgs), (
        f"{encode_delta} encodes for {len(msgs)} distinct messages"
    )

    _BENCH["vectorized"] = {
        "n": VEC_N,
        "spacing_m": VEC_SPACING,
        "loss_rate": VEC_LOSS,
        "scalar_ms": round(scalar_t * 1e3, 3),
        "vectorized_ms": round(vec_t * 1e3, 3),
        "speedup": round(speedup, 2),
        "deliveries_checked": len(scalar_log),
        "encode_calls_per_distinct_message": encode_delta / len(msgs),
    }
    _flush_bench()

    # The acceptance claim: >= 2x over the scalar oracle at N = 1000 with
    # loss.  (2 keeps slow CI boxes honest.)
    assert speedup >= 2.0, f"speedup over the oracle at N={VEC_N} was {speedup:.1f}x"

    # Time the representative kernel: one production lossy flood round.
    sim, medium, radios = build_medium(
        VEC_N, spacing=VEC_SPACING, loss_rate=VEC_LOSS
    )

    def round_and_drain():
        flood_round(medium, radios)
        sim.run()

    benchmark(round_and_drain)
