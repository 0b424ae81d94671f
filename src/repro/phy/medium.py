"""The shared wireless medium.

Unit-disk connectivity: two radios hear each other iff their Euclidean
distance is at most ``radio_range``.  Delivery latency is

    ``tx_delay(size) + propagation(distance) + proc_delay``

with ``tx_delay = size * 8 / bitrate``.  Each (frame, receiver) pair
draws independent Bernoulli loss.  Unicast frames emulate an 802.11-like
MAC: up to ``mac_retries`` retransmissions, then a failure callback --
which is exactly the "link broken" signal DSR route maintenance needs.

Receiver lookup goes through an incremental spatial-hash grid (see
:mod:`repro.phy.neighbor_index`) that answers "who can hear this
position?" in O(local density) and is kept current by
``attach``/``detach``/``set_position``/``set_enabled``, so a
network-wide flood is near-linear in N instead of quadratic.

Broadcast pipeline
------------------

``broadcast`` runs one numpy pipeline, fault windows included:

* candidate lookup -- the index returns the cached
  :class:`~repro.phy.neighbor_index.CandidateBlock` for the sender's
  cell block: sorted candidate ids plus a numpy position matrix;
* distances -- one numpy subtraction + ``sqrt`` yields every
  sender->candidate distance, cached per sender until the block changes;
* fault filter -- while a fault window is open, :attr:`fault_hook` runs
  once per in-range receiver in ascending link-id order; a suppressed
  copy is dropped before the loss draw;
* losses -- one :meth:`~repro.sim.rng.SimRNG.random_batch` draw yields a
  ``phy/loss`` variate per surviving receiver;
* batch schedule -- survivors are pushed onto the kernel heap via
  :meth:`~repro.sim.kernel.Simulator.schedule_batch`, skipping
  per-event handle allocation.

Distances are ``sqrt(dx*dx + dy*dy)`` -- multiply, add and square root
are correctly-rounded IEEE-754 operations, so the numpy form is
bit-identical to ``math.sqrt`` on the same operands.  A scalar
per-receiver loop over a full scan of the radios lives on as a test
oracle (``tests/phy_oracle.py``); tests/test_medium_equivalence.py pins
production to it byte for byte under loss, mobility, churn,
monitor-mode radios and every frame-level fault kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.ipv6.address import IPv6Address
from repro.phy.neighbor_index import SpatialHashGrid
from repro.sim.kernel import Simulator

#: Destination pseudo-link-id for broadcast frames.
BROADCAST_LINK = -1

_SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class Frame:
    """A link-layer frame.

    ``src_ip`` is the *claimed* network-layer source -- unauthenticated,
    like a MAC header; receivers use it to maintain IP -> link-id
    neighbour caches.  ``payload`` is a protocol Message object;
    ``size`` its wire size in bytes (precomputed by the sender so the
    medium never needs to re-encode).
    """

    src_link: int
    dst_link: int  # BROADCAST_LINK for floods
    src_ip: IPv6Address
    payload: Any
    size: int


@dataclass
class RadioHandle:
    """One node's attachment to the medium."""

    link_id: int
    position: tuple[float, float]
    deliver: Callable[[Frame], None]
    enabled: bool = True
    #: Counters for overhead accounting.
    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0


class WirelessMedium:
    """Broadcast medium with unit-disk connectivity.

    Parameters
    ----------
    sim:
        The simulation kernel (all deliveries are scheduled events).
    radio_range:
        Unit-disk radius in metres.
    bitrate:
        Link bitrate in bits/s (default 2 Mb/s: 802.11 classic, the
        paper's era).
    loss_rate:
        Independent per-(frame, receiver) Bernoulli loss probability.
    proc_delay:
        Fixed per-hop processing delay in seconds.
    mac_retries:
        Unicast retransmission budget before reporting link failure.
    ack_timeout:
        Per-attempt wait before a retry / failure verdict.
    """

    #: Always True: there is one broadcast path.  Kept because the
    #: traced benchmark run reads it on every broadcast to tell hooked
    #: ("slow") broadcasts apart (``perfbench/spans.py``).
    vectorized = True

    def __init__(
        self,
        sim: Simulator,
        radio_range: float = 250.0,
        bitrate: float = 2e6,
        loss_rate: float = 0.0,
        proc_delay: float = 1e-4,
        mac_retries: int = 3,
        ack_timeout: float = 5e-3,
    ):
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.radio_range = radio_range
        self.bitrate = bitrate
        self.loss_rate = loss_rate
        self.proc_delay = proc_delay
        self.mac_retries = mac_retries
        self.ack_timeout = ack_timeout
        self._index = SpatialHashGrid(radio_range)
        #: Optional TraceRecorder for medium-level notes (wired by NetContext).
        self.trace = None
        self._radios: dict[int, RadioHandle] = {}
        #: Radios that receive copies of *unicast* frames they can overhear
        #: (802.11 monitor mode; used by eavesdropping adversaries).
        self._promiscuous: set[int] = set()
        #: Sorted snapshot of ``_promiscuous``, rebuilt on change so the
        #: per-attempt unicast loop never re-sorts (it retries often).
        self._promiscuous_sorted: tuple[int, ...] = ()
        self._next_link_id = 0
        self._rng = sim.rng("phy/loss")
        #: Range memo: sender link id -> (block, dists, rx ids).
        #: Valid exactly while the index still serves the *same*
        #: CandidateBlock object for the sender's cell -- blocks are
        #: immutable and replaced wholesale on any insert/remove/move/
        #: set_enabled that touches their footprint (which includes any
        #: move of the sender itself), so object identity is a sound
        #: freshness token.  Static and low-mobility scenarios therefore
        #: compute each sender's receiver set and distances once, not
        #: once per frame.
        self._range_cache: dict[int, tuple] = {}
        #: Optional fault filter: ``hook(src_link, dst_link, frame) ->
        #: Frame | None``, applied per (frame, receiver) pair *before*
        #: that receiver's loss draw, in the same ascending-link-id
        #: order as the draws.  ``None`` suppresses the copy -- and
        #: consumes NO ``phy/loss`` draw, so installing/removing the
        #: hook around fault windows never shifts the loss stream for
        #: unaffected traffic.  A returned frame (possibly a corrupted
        #: replacement) proceeds to the normal loss draw and is the
        #: copy that receiver gets.
        self.fault_hook: Callable[[int, int, Frame], Frame | None] | None = None
        # Medium-wide counters.
        self.total_frames = 0
        self.total_bytes = 0
        self.dropped_frames = 0
        #: Copies suppressed by :attr:`fault_hook` (distinct from
        #: ``dropped_frames``: suppression consumes no loss draw).
        self.suppressed_frames = 0

    # -- attachment ------------------------------------------------------
    def _note(self, text: str) -> None:
        """Drop a medium-level annotation into the trace (if wired)."""
        if self.trace is not None:
            self.trace.record(self.sim.now, "medium", "note", "PHY", text)

    def attach(
        self,
        position: tuple[float, float],
        deliver: Callable[[Frame], None],
    ) -> RadioHandle:
        """Join the medium at ``position``; returns this radio's handle."""
        handle = RadioHandle(self._next_link_id, tuple(position), deliver)
        self._radios[handle.link_id] = handle
        self._index.insert(handle.link_id, handle.position)
        self._next_link_id += 1
        return handle

    def detach(self, link_id: int) -> None:
        """Leave the medium (host powered off / departed)."""
        if self._radios.pop(link_id, None) is not None:
            self._index.remove(link_id)
            self._range_cache.pop(link_id, None)
            # A departed snoop must not haunt every future unicast: a
            # stale id left in the sorted snapshot would defeat the
            # empty-set fast path forever.
            if link_id in self._promiscuous:
                self.set_promiscuous(link_id, False)

    def has_link(self, link_id: int) -> bool:
        """True while ``link_id`` is attached (mobility models poll this)."""
        return link_id in self._radios

    def set_enabled(self, link_id: int, enabled: bool) -> None:
        """Radio on/off without losing the attachment (used by churn models).

        A detached link id is a graceful no-op: a churn model may race a
        scenario-driven detach, and losing that race must not crash the run.
        """
        radio = self._radios.get(link_id)
        if radio is None:
            self._note(f"set_enabled({enabled}) on detached link {link_id}")
            return
        radio.enabled = enabled
        self._index.set_enabled(link_id, enabled)

    def set_position(self, link_id: int, position: tuple[float, float]) -> None:
        """Move a radio (graceful no-op on a detached link id, as above)."""
        radio = self._radios.get(link_id)
        if radio is None:
            self._note(f"set_position on detached link {link_id}")
            return
        radio.position = tuple(position)
        self._index.move(link_id, radio.position)

    def set_promiscuous(self, link_id: int, enabled: bool = True) -> None:
        """Monitor mode: overhear unicast frames between other nodes."""
        if enabled:
            self._promiscuous.add(link_id)
        else:
            self._promiscuous.discard(link_id)
        self._promiscuous_sorted = tuple(sorted(self._promiscuous))

    def position(self, link_id: int) -> tuple[float, float]:
        return self._radios[link_id].position

    @property
    def link_ids(self) -> list[int]:
        return list(self._radios)

    # -- geometry ---------------------------------------------------------
    def distance(self, a: int, b: int) -> float:
        pa, pb = self._radios[a].position, self._radios[b].position
        dx, dy = pa[0] - pb[0], pa[1] - pb[1]
        # sqrt(dx*dx + dy*dy), NOT math.hypot: multiply/add/sqrt are
        # correctly-rounded IEEE-754 ops, so this form is bit-identical
        # to the vectorised numpy computation (math.hypot is not).
        return math.sqrt(dx * dx + dy * dy)

    def in_range(self, a: int, b: int) -> bool:
        if a == b:
            return False
        ra, rb = self._radios.get(a), self._radios.get(b)
        if ra is None or rb is None or not ra.enabled or not rb.enabled:
            return False
        return self.distance(a, b) <= self.radio_range

    def _range(self, src: int, sender: RadioHandle) -> tuple:
        """``(block, rx_dists, rx_ids)`` for enabled ``sender``: the
        receivers in range, ascending link id, read from (and kept in)
        the per-sender range cache."""
        block = self._index.candidates_with_positions(sender.position)
        cached = self._range_cache.get(src)
        if cached is None or cached[0] is not block:
            cached = self._compute_range(src, sender, block)
            self._range_cache[src] = cached
        return cached

    def neighbors(self, link_id: int) -> list[int]:
        """Link ids currently within radio range (instantaneous truth)."""
        radio = self._radios.get(link_id)
        if radio is None or not radio.enabled:
            return []
        return list(self._range(link_id, radio)[2])

    # -- timing -----------------------------------------------------------
    def tx_delay(self, size: int) -> float:
        return size * 8 / self.bitrate

    def _delivery_delay(self, size: int, distance: float) -> float:
        return self.tx_delay(size) + distance / _SPEED_OF_LIGHT + self.proc_delay

    # -- transmission -----------------------------------------------------
    def broadcast(self, frame: Frame) -> int:
        """Transmit to every enabled radio in range.

        Returns the number of in-range receivers (fault suppression and
        losses still apply per receiver).

        Fault windows: :attr:`fault_hook` filters each in-range copy
        before its loss draw (see its contract), so the ``phy/loss``
        stream advances by in-range minus suppressed receivers.

        Delivery contract (pinned by tests/test_medium_contract.py): a
        receiver gets the frame iff it was attached **and enabled at
        send time** (that decides candidacy and whether it consumes a
        loss draw) AND is still attached and enabled **at delivery
        time** (``_deliver`` re-checks; in-flight disable/detach
        silently eats the copy).  A radio disabled at send time is
        excluded from the candidate set -- the cached CandidateBlock
        cannot be stale here, because ``set_enabled``/``attach``/
        ``detach``/``set_position`` all replace the affected block
        wholesale and the range cache is keyed on block object identity
        -- so it consumes no ``phy/loss`` draw and re-enabling before
        the would-be delivery time cannot resurrect the frame.
        """
        sender = self._radios.get(frame.src_link)
        if sender is None or not sender.enabled:
            return 0
        self.total_frames += 1
        self.total_bytes += frame.size
        sender.frames_sent += 1
        sender.bytes_sent += frame.size
        src = frame.src_link
        _, rx_dists, rx_ids = self._range(src, sender)
        count = len(rx_ids)
        if count == 0:
            return 0
        frames = None
        hook = self.fault_hook
        if hook is not None:
            frames = [hook(src, rx, frame) for rx in rx_ids]
            kept = [i for i, fx in enumerate(frames) if fx is not None]
            if len(kept) < count:
                self.suppressed_frames += count - len(kept)
                if not kept:
                    return count
                rx_dists = rx_dists[kept]
                rx_ids = [rx_ids[i] for i in kept]
                frames = [frames[i] for i in kept]
        # One batched draw per surviving receiver, ascending id -- the
        # same stream consumption as that many scalar draws
        # (SimRNG.random_batch).
        n = len(rx_ids)
        draws = self._rng.random_batch(n)
        if self.loss_rate > 0.0:
            survived = draws >= self.loss_rate
            delivered = int(survived.sum())
            if delivered < n:
                self.dropped_frames += n - delivered
                if delivered == 0:
                    return count
                rx_dists = rx_dists[survived]
                keep = survived.tolist()
                rx_ids = [rx for rx, ok in zip(rx_ids, keep) if ok]
                if frames is not None:
                    frames = [fx for fx, ok in zip(frames, keep) if ok]
        # (tx + d/c) + proc, the operation order of _delivery_delay; the
        # in-place ops touch only this fresh `delays` array, never the
        # cached distances.
        delays = rx_dists / _SPEED_OF_LIGHT
        delays += self.tx_delay(frame.size)
        delays += self.proc_delay
        # .tolist() yields python floats: event times (and thus sim.now,
        # latencies, traces, JSON summaries) must never carry numpy
        # scalar types.
        self.sim.schedule_batch(
            delays.tolist(),
            self._deliver,
            [(rx, frame) for rx in rx_ids] if frames is None
            else list(zip(rx_ids, frames)),
        )
        return count

    def _compute_range(self, src: int, sender: RadioHandle, block) -> tuple:
        """Distances from ``src`` to every in-range candidate in ``block``.

        Returns ``(block, rx_dists, rx_ids)`` with receivers in
        ascending link-id order; cached per sender until the index
        replaces the block (see ``_range_cache``).
        """
        ids = block.id_arr
        if ids.size == 0:
            return (block, np.empty(0, dtype=np.float64), [])
        sx, sy = sender.position
        dx = block.pos_arr[:, 0] - sx
        dy = block.pos_arr[:, 1] - sy
        # In-place sqrt(dx*dx + dy*dy): correctly-rounded IEEE ops, no
        # extra temporaries.
        dx *= dx
        dy *= dy
        dx += dy
        dists = np.sqrt(dx, out=dx)
        in_range = dists <= self.radio_range
        # The sender is enabled, hence present in its own block: mask it
        # out by position (sorted ids) instead of a full-array compare.
        i = ids.searchsorted(src)
        if i < ids.size and ids[i] == src:
            in_range[i] = False
        return (block, dists[in_range], ids[in_range].tolist())

    def unicast(
        self,
        frame: Frame,
        on_fail: Callable[[Frame], None] | None = None,
        on_success: Callable[[Frame], None] | None = None,
    ) -> None:
        """Transmit to ``frame.dst_link`` with MAC-style retries.

        ``on_fail`` fires (after the retry budget) when the destination
        is out of range, detached, disabled, or every attempt was lost --
        indistinguishable causes at the sender, as on real hardware.
        """
        if frame.dst_link == BROADCAST_LINK:
            raise ValueError("unicast frame has broadcast destination")
        self._attempt_unicast(frame, 0, on_fail, on_success)

    def _attempt_unicast(
        self,
        frame: Frame,
        attempt: int,
        on_fail: Callable[[Frame], None] | None,
        on_success: Callable[[Frame], None] | None,
    ) -> None:
        sender = self._radios.get(frame.src_link)
        if sender is None or not sender.enabled:
            return  # sender itself left; nobody to notify
        self.total_frames += 1
        self.total_bytes += frame.size
        sender.frames_sent += 1
        sender.bytes_sent += frame.size

        # Monitor-mode radios overhear the transmission regardless of the
        # MAC destination (each copy draws loss independently).  The empty
        # set -- the common case, checked first so retries pay nothing --
        # skips the loop entirely; the sorted snapshot is maintained by
        # set_promiscuous, keeping the loss-draw sequence independent of
        # set internals (ascending link id, as in broadcast).
        hook = self.fault_hook
        if self._promiscuous:
            for snoop in self._promiscuous_sorted:
                if snoop in (frame.src_link, frame.dst_link):
                    continue
                if not self.in_range(frame.src_link, snoop):
                    continue
                sx = frame
                if hook is not None:
                    sx = hook(frame.src_link, snoop, frame)
                    if sx is None:
                        self.suppressed_frames += 1
                        continue  # no loss draw (fault_hook contract)
                if self._rng.random() < self.loss_rate:
                    continue
                delay = self._delivery_delay(
                    frame.size, self.distance(frame.src_link, snoop)
                )
                self.sim.schedule(delay, self._deliver, snoop, sx)

        reachable = self.in_range(frame.src_link, frame.dst_link)
        fx = frame
        if reachable and hook is not None:
            fx = hook(frame.src_link, frame.dst_link, frame)
            if fx is None:
                # Suppressed copies look like an out-of-range receiver:
                # no loss draw, and the MAC walks its retry budget -- so
                # a partitioned/flapped link degrades into the normal
                # "link broken" signal DSR route maintenance expects.
                self.suppressed_frames += 1
                reachable = False
        lost = reachable and self._rng.random() < self.loss_rate
        if reachable and not lost:
            delay = self._delivery_delay(
                frame.size, self.distance(frame.src_link, frame.dst_link)
            )
            self.sim.schedule(delay, self._deliver, frame.dst_link, fx)
            if on_success is not None:
                # MAC ack arrives one round trip later.  The callback
                # gets the *sent* frame: corruption happens in flight,
                # the sender's MAC still sees its ack.
                self.sim.schedule(delay + self.proc_delay, on_success, frame)
            return
        if lost:
            self.dropped_frames += 1
        if attempt < self.mac_retries:
            self.sim.schedule(
                self.ack_timeout, self._attempt_unicast, frame, attempt + 1,
                on_fail, on_success,
            )
        elif on_fail is not None:
            self.sim.schedule(self.ack_timeout, on_fail, frame)

    def _deliver(self, link_id: int, frame: Frame) -> None:
        """Delivery-time half of the contract pinned on :meth:`broadcast`:
        a receiver that detached or disabled while the frame was in
        flight silently eats the copy, even if it re-enables later."""
        radio = self._radios.get(link_id)
        if radio is None or not radio.enabled:
            return  # receiver left/slept while the frame was in flight
        radio.frames_received += 1
        radio.bytes_received += frame.size
        radio.deliver(frame)
