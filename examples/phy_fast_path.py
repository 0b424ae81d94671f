#!/usr/bin/env python3
"""The PHY fast path: vectorised spatial-hash floods, byte-identical.

Three demonstrations in one script:

1. **Index speed** -- a flood round (every node broadcasts once) on a
   large constant-density deployment, timed under the naive O(N^2) full
   scan and under the incremental spatial-hash grid (scalar delivery
   loop on both, isolating the index).
2. **Pipeline speed** -- the same flood under the vectorised broadcast
   pipeline: cached candidate blocks, one numpy distance computation,
   one batched loss draw, batch-scheduled deliveries.
3. **Exactness** -- the same seeded mobile scenario executed under all
   four (index x pipeline) combinations, proving the metrics summary
   and the full event trace are byte-identical: the fast paths change
   *nothing* but wall-clock.

Set REPRO_EXAMPLE_FAST=1 to shrink N (used by the smoke tests).

Run:  python examples/phy_fast_path.py
"""

import itertools
import math
import os
import time

from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.phy.topology import uniform_positions
from repro.scenarios import ScenarioBuilder
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRNG

SRC_IP = IPv6Address("fec0::cc")
RADIO_RANGE = 250.0
DENSITY = 10.0  # expected neighbors per node


def flood_time(n: int, index: str, vectorized: bool = False) -> float:
    """Wall-clock seconds for one flood round over a density-scaled
    uniform deployment (the same sizing rule as the builder's
    ``uniform_density`` knob: area = n * pi * r^2 / density)."""
    side = math.sqrt(n * math.pi * RADIO_RANGE**2 / DENSITY)
    positions = uniform_positions(n, (side, side), SimRNG(11, "example/placement"))
    sim = Simulator(seed=1)
    medium = WirelessMedium(
        sim, radio_range=RADIO_RANGE, index=index, vectorized=vectorized,
        loss_rate=0.1,
    )
    radios = [medium.attach(tuple(p), lambda f: None) for p in positions]
    # Warm-up round (populates the candidate/range caches -- protocols
    # flood repeatedly, so the steady state is what matters), then time.
    for radio in radios:
        medium.broadcast(Frame(radio.link_id, BROADCAST_LINK, SRC_IP, "x", 64))
    sim.run()
    start = time.perf_counter()
    for radio in radios:
        medium.broadcast(Frame(radio.link_id, BROADCAST_LINK, SRC_IP, "x", 64))
    return time.perf_counter() - start


def run_scenario(index: str, vectorized: bool):
    sc = (
        ScenarioBuilder(seed=5)
        .grid(9, spacing=180.0)
        .radio(250.0, loss_rate=0.05)
        .with_dns()
        .medium(index, vectorized=vectorized)
        .random_waypoint()
        .build()
    )
    sc.trace.enabled = True  # the recorder is off by default
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    sc.send_data(a, z.ip, b"payload over the indexed medium")
    sc.run(duration=10.0)
    trace = [(e.time, e.node, e.kind, e.msg_type, e.detail) for e in sc.trace.events]
    return sc.metrics.summary(), trace


def main() -> None:
    fast = bool(os.environ.get("REPRO_EXAMPLE_FAST"))
    n = 120 if fast else 500

    print(f"Flood round at N={n} (constant density ~{DENSITY:.0f} neighbors/node, 10% loss):")
    naive = flood_time(n, "naive")
    grid = flood_time(n, "grid")
    vec = flood_time(n, "grid", vectorized=True)
    print(f"  naive full scan, scalar : {naive * 1e3:8.2f} ms")
    print(f"  spatial grid, scalar    : {grid * 1e3:8.2f} ms   ({naive / grid:.1f}x)")
    print(f"  spatial grid, vectorised: {vec * 1e3:8.2f} ms   ({naive / vec:.1f}x)")

    print("\nSame seed, all four (index x pipeline) paths, mobile scenario with loss:")
    combos = list(itertools.product(("grid", "naive"), (True, False)))
    results = {c: run_scenario(*c) for c in combos}
    ref_summary, ref_trace = results[combos[0]]
    if not ref_trace:
        raise SystemExit("no trace recorded: nothing to compare")
    identical = all(
        summary == ref_summary and trace == ref_trace
        for summary, trace in results.values()
    )
    print(f"  summaries identical : {all(s == ref_summary for s, _ in results.values())}")
    print(f"  traces identical    : {all(t == ref_trace for _, t in results.values())} "
          f"({len(ref_trace)} events)")
    if not identical:
        raise SystemExit("fast path diverged from the reference scan!")
    print(
        "\nReading: the grid answers 'who hears this position?' from a\n"
        "cached 9-cell candidate block instead of scanning every radio,\n"
        "in ascending link-id order -- the same order as the naive scan.\n"
        "The vectorised pipeline then computes every distance in one\n"
        "numpy call and draws every loss variate in one batched draw\n"
        "that consumes the PCG64 stream exactly like scalar draws, so\n"
        "every metric and trace line is unchanged on all four paths.\n"
        "Sweep `medium_index` / `medium_vectorized` in a campaign to\n"
        "keep regression-testing that equivalence at scale."
    )


if __name__ == "__main__":
    main()
