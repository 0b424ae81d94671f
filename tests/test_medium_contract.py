"""Regression pins for the medium's delivery and fault contracts.

The delivery contract (documented on ``WirelessMedium.broadcast``/
``_deliver``): a receiver gets a frame iff it was attached and enabled
**at send time** (candidacy + loss-draw consumption) AND is still
attached and enabled **at delivery time**.  In particular, disabling or
detaching a node while a batched broadcast is in flight must not deliver
to it, and a node disabled at send time cannot resurrect the copy by
re-enabling before the would-be delivery instant.

Each delivery pin runs with no fault hook, with an identity hook, and
with a hook that suppresses every copy to a bystander in range.  The
fault contract: the hook runs per in-range receiver before its loss
draw, a suppressed copy draws no ``phy/loss`` variate, and every other
receiver gets the frame the hook returned.
"""

import pytest

from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame, WirelessMedium
from repro.sim.kernel import Simulator

SRC_IP = IPv6Address("fec0::aa")


HOOKS = ["none", "identity", "suppress"]


def make_medium(hook, seed=1, **kw):
    """``(sim, medium, muted)``: ``muted`` counts the in-range bystanders
    whose copies the hook suppresses (one for ``"suppress"``)."""
    sim = Simulator(seed=seed)
    medium = WirelessMedium(sim, radio_range=100.0, **kw)
    if hook == "identity":
        medium.fault_hook = lambda src, dst, frame: frame
    elif hook == "suppress":
        # within range of the sender at (0, 0) that every test uses
        bystander = medium.attach(
            (0, 40), lambda f: pytest.fail("suppressed copy delivered")
        ).link_id
        medium.fault_hook = (
            lambda src, dst, frame: None if dst == bystander else frame
        )
    return sim, medium, int(hook == "suppress")


def bcast(medium, handle, payload="hi", size=100):
    return medium.broadcast(
        Frame(handle.link_id, BROADCAST_LINK, SRC_IP, payload, size)
    )


@pytest.mark.parametrize("hook", HOOKS)
def test_disabled_at_send_is_not_a_candidate_and_draws_no_loss(hook):
    """A radio disabled at send time consumes no phy/loss draw -- so
    toggling one bystander never shifts the loss stream seen by
    everyone else."""
    sim, medium, muted = make_medium(hook)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    medium.attach((50, 0), got.append)
    sleeper = medium.attach((60, 0), lambda f: pytest.fail("asleep at send"))

    medium.set_enabled(sleeper.link_id, False)
    # only the awake receiver (and the muted bystander) is a candidate
    assert bcast(medium, tx) == 1 + muted
    sim.run()
    assert len(got) == 1
    # exactly one loss draw was consumed (the awake receiver's): the next
    # value from the medium's stream matches a reference stream advanced
    # by exactly one draw (random_batch(1) is stream-identical to one
    # random())
    ref = Simulator(seed=1).rng("phy/loss")
    ref.random()
    assert medium._rng.random() == ref.random()


@pytest.mark.parametrize("hook", HOOKS)
def test_disable_while_in_flight_eats_the_copy(hook):
    """Enabled at send, disabled before the delivery instant: no delivery."""
    sim, medium, muted = make_medium(hook)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    assert bcast(medium, tx) == 1 + muted
    # the frame is now a scheduled event; the radio sleeps before it lands
    sim.schedule(0.0, medium.set_enabled, rx.link_id, False)
    sim.run()
    assert got == []


@pytest.mark.parametrize("hook", HOOKS)
def test_detach_while_in_flight_eats_the_copy(hook):
    sim, medium, muted = make_medium(hook)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    assert bcast(medium, tx) == 1 + muted
    sim.schedule(0.0, medium.detach, rx.link_id)
    sim.run()
    assert got == []


@pytest.mark.parametrize("hook", HOOKS)
def test_reenabling_before_delivery_time_cannot_resurrect_the_frame(hook):
    """Disabled at send time means excluded at send time: re-enabling a
    split second later (still before the would-be delivery) must not
    conjure a copy that was never scheduled."""
    sim, medium, muted = make_medium(hook)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    medium.set_enabled(rx.link_id, False)
    assert bcast(medium, tx) == muted
    sim.schedule(0.0, medium.set_enabled, rx.link_id, True)  # too late
    sim.run(until=1.0)
    assert got == []
    # ... whereas a fresh broadcast after the wake-up does arrive
    assert bcast(medium, tx) == 1 + muted
    sim.run()
    assert len(got) == 1


@pytest.mark.parametrize("hook", HOOKS)
def test_sleep_then_wake_while_in_flight_still_delivers(hook):
    """Enabled at send AND enabled at delivery is the whole contract:
    a nap strictly between those instants is invisible."""
    sim, medium, muted = make_medium(hook)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    assert bcast(medium, tx) == 1 + muted
    sim.schedule(0.0, medium.set_enabled, rx.link_id, False)
    sim.schedule(1e-7, medium.set_enabled, rx.link_id, True)
    sim.run()
    assert len(got) == 1


@pytest.mark.parametrize("hook", HOOKS)
def test_receiver_disabling_a_later_receiver_of_the_same_broadcast(hook):
    """A delivery handler that powers down a *later* receiver of the same
    batched broadcast (e.g. a crash fault firing from a delivery) must
    prevent that later delivery: both copies were scheduled at send
    time, but the second receiver is disabled at its delivery instant."""
    sim, medium, muted = make_medium(hook)
    got_far = []
    tx = medium.attach((0, 0), lambda f: None)

    # near receiver's handler kills the far receiver; distance ordering
    # guarantees near's delivery event fires first
    def near_handler(frame):
        medium.set_enabled(far.link_id, False)

    medium.attach((10, 0), near_handler)
    far = medium.attach((90, 0), got_far.append)
    assert bcast(medium, tx) == 2 + muted
    sim.run()
    assert got_far == []


def test_suppressed_copies_draw_no_loss_variate():
    """The ``phy/loss`` stream advances by in-range minus suppressed:
    a fault window never shifts the loss draws of other traffic."""
    sim = Simulator(seed=1)
    medium = WirelessMedium(sim, radio_range=100.0, loss_rate=0.5)
    tx = medium.attach((0, 0), lambda f: None)
    rxs = [medium.attach((10 * k, 5), lambda f: None) for k in range(1, 8)]
    muted = {rxs[0].link_id, rxs[3].link_id, rxs[6].link_id}
    medium.fault_hook = lambda src, dst, frame: None if dst in muted else frame
    assert bcast(medium, tx) == 7
    assert medium.suppressed_frames == 3
    # the four survivors drew four variates; losses count only among them
    ref = Simulator(seed=1).rng("phy/loss")
    draws = [ref.random() for _ in range(4)]
    assert medium.dropped_frames == sum(u < 0.5 for u in draws)
    assert medium._rng.random() == ref.random()


def test_each_receiver_gets_the_frame_the_hook_returned():
    sim = Simulator(seed=1)
    medium = WirelessMedium(sim, radio_range=100.0)
    got = {}
    tx = medium.attach((0, 0), lambda f: None)
    rxs = [
        medium.attach((20 * k, 0), lambda f, k=k: got.setdefault(k, f))
        for k in range(1, 4)
    ]

    def hook(src, dst, frame):
        if dst == rxs[1].link_id:
            return None
        return Frame(frame.src_link, frame.dst_link, frame.src_ip,
                     f"{frame.payload} for {dst}", frame.size)

    medium.fault_hook = hook
    assert bcast(medium, tx, payload="hi") == 3
    sim.run()
    assert sorted(got) == [1, 3]
    assert got[1].payload == f"hi for {rxs[0].link_id}"
    assert got[3].payload == f"hi for {rxs[2].link_id}"
