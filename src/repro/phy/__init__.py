"""Wireless physical/link substrate.

A deterministic unit-disk radio model standing in for the paper's
(unspecified) 802.11 testbed:

* :class:`~repro.phy.medium.WirelessMedium` -- broadcast/unicast frame
  delivery with transmission + propagation delay, Bernoulli per-link
  loss, and MAC-style unicast retries with failure callbacks (the signal
  DSR route maintenance consumes).
* :mod:`repro.phy.mobility` -- static, random-waypoint and teleporting
  membership churn models.
* :mod:`repro.phy.neighbor_index` -- incremental spatial-hash grid
  behind the medium's range queries; it makes 1000-node floods
  near-linear.
* :mod:`repro.phy.topology` -- placement generators (uniform, grid,
  chain, clustered) and connectivity analysis.

Frames carry an unauthenticated ``(src_link, src_ip)`` pair, mirroring
MAC/ND caches in real stacks: any node may *claim* any source IP at the
link layer, and it is the protocol's cryptographic checks -- not the
radio -- that must catch lies.  Collisions are not modelled; per-link
Bernoulli loss plus jittered rebroadcasts capture the loss behaviour the
protocol logic is sensitive to (see DESIGN.md substitutions).
"""

from repro.phy.medium import Frame, RadioHandle, WirelessMedium, BROADCAST_LINK
from repro.phy.mobility import MobilityModel, StaticMobility, RandomWaypoint, ChurnModel
from repro.phy.neighbor_index import SpatialHashGrid
from repro.phy.topology import (
    chain_positions,
    grid_positions,
    uniform_positions,
    clustered_positions,
    connectivity_graph,
    is_connected,
)

__all__ = [
    "Frame",
    "RadioHandle",
    "WirelessMedium",
    "BROADCAST_LINK",
    "MobilityModel",
    "StaticMobility",
    "RandomWaypoint",
    "ChurnModel",
    "SpatialHashGrid",
    "chain_positions",
    "grid_positions",
    "uniform_positions",
    "clustered_positions",
    "connectivity_graph",
    "is_connected",
]
