"""Unit tests for the wireless medium."""

import pytest

from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.sim.kernel import Simulator

SRC_IP = IPv6Address("fec0::aa")


def make_medium(seed=1, **kw):
    sim = Simulator(seed=seed)
    return sim, WirelessMedium(sim, radio_range=100.0, **kw)


def test_broadcast_reaches_only_nodes_in_range():
    sim, medium = make_medium()
    got = {i: [] for i in range(3)}
    r0 = medium.attach((0, 0), lambda f: got[0].append(f))
    r1 = medium.attach((50, 0), lambda f: got[1].append(f))
    r2 = medium.attach((500, 0), lambda f: got[2].append(f))
    medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "hi", 100))
    sim.run()
    assert len(got[1]) == 1 and got[1][0].payload == "hi"
    assert got[2] == []
    assert got[0] == []  # no self-delivery


def test_unicast_delivers_and_reports_success():
    sim, medium = make_medium()
    got, ok = [], []
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), got.append)
    medium.unicast(
        Frame(r0.link_id, r1.link_id, SRC_IP, "pkt", 64),
        on_success=lambda f: ok.append(f),
    )
    sim.run()
    assert len(got) == 1 and len(ok) == 1


def test_unicast_out_of_range_fails_after_retries():
    sim, medium = make_medium()
    failed = []
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((500, 0), lambda f: pytest.fail("should not deliver"))
    medium.unicast(
        Frame(r0.link_id, r1.link_id, SRC_IP, "pkt", 64),
        on_fail=lambda f: failed.append(sim.now),
    )
    sim.run()
    assert len(failed) == 1
    # 1 try + mac_retries retries, each waiting ack_timeout, + final verdict.
    expected = (medium.mac_retries + 1) * medium.ack_timeout
    assert failed[0] == pytest.approx(expected)


def test_unicast_to_broadcast_link_rejected():
    sim, medium = make_medium()
    r0 = medium.attach((0, 0), lambda f: None)
    with pytest.raises(ValueError):
        medium.unicast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 1))


def test_delivery_delay_includes_tx_time():
    sim, medium = make_medium()
    times = []
    r0 = medium.attach((0, 0), lambda f: None)
    medium.attach((30, 0), lambda f: times.append(sim.now))
    size = 1000
    medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", size))
    sim.run()
    assert len(times) == 1
    assert times[0] >= medium.tx_delay(size)  # 4 ms at 2 Mb/s
    assert times[0] == pytest.approx(
        medium.tx_delay(size) + 30 / 299_792_458.0 + medium.proc_delay
    )


def test_loss_rate_drops_some_broadcasts():
    sim, medium = make_medium(loss_rate=0.5)
    got = []
    r0 = medium.attach((0, 0), lambda f: None)
    medium.attach((50, 0), got.append)
    for _ in range(200):
        medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    sim.run()
    assert 60 < len(got) < 140  # ~100 expected
    assert medium.dropped_frames == 200 - len(got)


def test_unicast_retries_overcome_moderate_loss():
    sim, medium = make_medium(loss_rate=0.3)
    delivered, failed = [], []
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), delivered.append)
    for _ in range(100):
        medium.unicast(
            Frame(r0.link_id, r1.link_id, SRC_IP, "x", 10),
            on_fail=lambda f: failed.append(f),
        )
    sim.run()
    # P(all 4 attempts lost) = 0.3^4 ≈ 0.8%; expect almost all delivered.
    assert len(delivered) >= 95
    assert len(delivered) + len(failed) == 100


def test_disabled_radio_neither_sends_nor_receives():
    sim, medium = make_medium()
    got = []
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), got.append)
    medium.set_enabled(r1.link_id, False)
    medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    sim.run()
    assert got == []
    medium.set_enabled(r0.link_id, False)
    assert medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 10)) == 0


def test_receiver_detaching_mid_flight_drops_frame():
    sim, medium = make_medium()
    got = []
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), got.append)
    medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 10))
    medium.detach(r1.link_id)  # before delivery event fires
    sim.run()
    assert got == []


def test_position_updates_affect_range():
    sim, medium = make_medium()
    got = []
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((500, 0), got.append)
    assert not medium.in_range(r0.link_id, r1.link_id)
    medium.set_position(r1.link_id, (80, 0))
    assert medium.in_range(r0.link_id, r1.link_id)
    assert medium.neighbors(r0.link_id) == [r1.link_id]
    assert medium.distance(r0.link_id, r1.link_id) == pytest.approx(80.0)


def test_counters_track_traffic():
    sim, medium = make_medium()
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), lambda f: None)
    medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 42))
    sim.run()
    assert medium.total_frames == 1
    assert medium.total_bytes == 42
    assert r0.frames_sent == 1 and r0.bytes_sent == 42
    assert r1.frames_received == 1 and r1.bytes_received == 42


def test_constructor_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        WirelessMedium(sim, radio_range=0)
    with pytest.raises(ValueError):
        WirelessMedium(sim, loss_rate=1.0)


def test_set_position_and_enabled_on_detached_link_are_noops():
    """A churn model racing a detach must not crash the run (bugfix)."""
    sim, medium = make_medium()
    r0 = medium.attach((0, 0), lambda f: None)
    medium.detach(r0.link_id)
    medium.set_position(r0.link_id, (10, 10))  # no KeyError
    medium.set_enabled(r0.link_id, False)  # no KeyError
    assert not medium.has_link(r0.link_id)
    # never-attached ids are equally harmless
    medium.set_position(999, (1, 1))
    medium.set_enabled(999, True)


def test_detached_link_noops_leave_a_trace_note():
    from repro.trace.recorder import TraceRecorder

    sim, medium = make_medium()
    medium.trace = TraceRecorder()
    r0 = medium.attach((0, 0), lambda f: None)
    medium.detach(r0.link_id)
    medium.set_position(r0.link_id, (10, 10))
    medium.set_enabled(r0.link_id, True)
    notes = [e.detail for e in medium.trace.filter(kind="note")]
    assert len(notes) == 2
    assert all(f"detached link {r0.link_id}" in n for n in notes)


def test_broadcast_spans_grid_cell_borders():
    """Receivers just inside range but in a diagonal neighbor cell."""
    sim, medium = make_medium()  # range 100 => cell size 100
    got = []
    r0 = medium.attach((95.0, 95.0), lambda f: None)
    medium.attach((165.0, 165.0), got.append)  # ~99m away, cell (1, 1)
    medium.attach((-4.0, 95.0), got.append)  # 99m away, cell (-1, 0)
    n = medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "hi", 10))
    sim.run()
    assert n == 2 and len(got) == 2


def test_detached_radio_disappears_from_neighbors():
    sim, medium = make_medium()
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), lambda f: None)
    assert medium.neighbors(r0.link_id) == [r1.link_id]
    medium.detach(r1.link_id)
    assert medium.neighbors(r0.link_id) == []
    assert medium.broadcast(Frame(r0.link_id, BROADCAST_LINK, SRC_IP, "x", 1)) == 0


def test_detach_forgets_promiscuous_membership():
    """A departed snoop must not haunt the unicast path: detach() has to
    restore the empty-set fast path, not leave a stale id in the sorted
    snapshot forever."""
    sim, medium = make_medium()
    r0 = medium.attach((0, 0), lambda f: None)
    r1 = medium.attach((50, 0), lambda f: None)
    snoop = medium.attach((25, 0), lambda f: None)
    medium.set_promiscuous(snoop.link_id, True)
    medium.detach(snoop.link_id)
    assert not medium._promiscuous
    assert medium._promiscuous_sorted == ()
    medium.unicast(Frame(r0.link_id, r1.link_id, SRC_IP, "pkt", 64))
    sim.run()
    # a detach of a non-promiscuous radio leaves the set alone
    medium.set_promiscuous(r1.link_id, True)
    medium.detach(r0.link_id)
    assert medium._promiscuous_sorted == (r1.link_id,)
