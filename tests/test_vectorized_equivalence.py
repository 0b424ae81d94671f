"""The index and the pipeline swapped one at a time: byte-identical runs.

tests/test_medium_equivalence.py swaps production's spatial-hash grid
*and* its numpy broadcast pipeline for the oracle's full scan and
scalar loop at once.  This file swaps each half alone -- production's
pipeline over the oracle's full-scan index, and the oracle's scalar
loop over production's grid -- so the two files together cover the
whole index x pipeline matrix, and a divergence names the half that
broke the determinism contract.
"""

import pytest

from phy_oracle import NaiveScanIndex, OracleMedium, oracle_medium
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.phy.neighbor_index import SpatialHashGrid
from repro.sim.kernel import Simulator
from test_medium_equivalence import SRC_IP, run_mobile_with_churn, run_static


class FullScanPipeline(WirelessMedium):
    """Production's numpy pipeline over the oracle's full-scan index."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index = NaiveScanIndex()


class GridScalarLoop(OracleMedium):
    """The oracle's scalar loop over production's spatial-hash grid."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index = SpatialHashGrid(self.radio_range)


#: The two off-diagonal corners of the index x pipeline matrix.
HALF_SWAPS = {"full-scan index": FullScanPipeline, "scalar loop": GridScalarLoop}


def assert_each_half_matches(run) -> None:
    """``run()`` on production, then with each half swapped alone."""
    production = run()
    assert production["trace"], "empty trace: the comparison would be vacuous"
    for half, medium_cls in HALF_SWAPS.items():
        with oracle_medium(medium_cls):
            swapped = run()
        for key in production:
            assert swapped[key] == production[key], (
                f"the {half} diverges on {key!r}"
            )


def test_static_scenario_with_loss_is_byte_identical():
    assert_each_half_matches(run_static)


def test_mobile_churn_scenario_is_byte_identical():
    assert_each_half_matches(run_mobile_with_churn)


@pytest.mark.parametrize(
    "medium_cls", [WirelessMedium, FullScanPipeline], ids=["grid", "naive"]
)
def test_mobility_invalidates_candidate_cache(medium_cls):
    """A radio that moves between broadcasts must be seen at its *new*
    position -- the per-sender range cache, keyed on whichever index
    serves the candidate blocks, may never serve stale distances or
    stale membership."""
    sim = Simulator(seed=5)
    medium = medium_cls(sim, radio_range=100.0)
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
