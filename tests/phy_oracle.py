"""The reference medium: a full scan and a scalar per-receiver loop.

:class:`OracleMedium` is :class:`~repro.phy.medium.WirelessMedium` with
its broadcast pipeline replaced by the simplest correct one: scan every
attached radio in ascending link-id order (:class:`NaiveScanIndex`),
measure each distance with ``math.sqrt``, and for each receiver in range
call the fault hook, then draw one ``phy/loss`` variate, then schedule
one delivery.  Unicast, attachment and delivery are inherited unchanged.

Production must match it byte for byte
(tests/test_medium_equivalence.py), and benchmarks/test_perf_phy.py
measures production's speed against it.  Scenarios built inside
:func:`oracle_medium` run on it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.phy.medium import Frame, WirelessMedium
from repro.phy.neighbor_index import CandidateBlock
from repro.scenarios import builder as builder_module


class NaiveScanIndex:
    """The O(N) reference index: every enabled radio is a candidate.

    Same interface and determinism contract as
    :class:`~repro.phy.neighbor_index.SpatialHashGrid`; its candidate
    "block" is the whole network, rebuilt after any mutation.
    """

    def __init__(self):
        # link_id -> (position, enabled); insertion-ordered, and link ids
        # are monotonic, so iteration is already ascending.
        self._links: dict[int, tuple[tuple[float, float], bool]] = {}
        self._block: CandidateBlock | None = None

    def insert(self, link_id: int, position: tuple[float, float]) -> None:
        self._links[link_id] = ((float(position[0]), float(position[1])), True)
        self._block = None

    def remove(self, link_id: int) -> None:
        if self._links.pop(link_id, None) is not None:
            self._block = None

    def move(self, link_id: int, position: tuple[float, float]) -> None:
        entry = self._links.get(link_id)
        if entry is None:
            return
        self._links[link_id] = ((float(position[0]), float(position[1])), entry[1])
        self._block = None

    def set_enabled(self, link_id: int, enabled: bool) -> None:
        entry = self._links.get(link_id)
        if entry is not None and entry[1] != enabled:
            self._links[link_id] = (entry[0], enabled)
            self._block = None

    def candidates_near(self, position: tuple[float, float]) -> list[int]:
        return self.candidates_with_positions(position).id_arr.tolist()

    def candidates_with_positions(
        self, position: tuple[float, float]
    ) -> CandidateBlock:
        """Every *enabled* radio with its position, ascending id."""
        if self._block is None:
            ids = [lid for lid, (_, enabled) in self._links.items() if enabled]
            pts = [self._links[lid][0] for lid in ids]
            self._block = CandidateBlock(
                np.array(ids, dtype=np.int64),
                np.array(pts, dtype=np.float64).reshape(len(ids), 2),
            )
        return self._block


class OracleMedium(WirelessMedium):
    """A :class:`WirelessMedium` whose broadcasts take the scalar loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index = NaiveScanIndex()

    def in_range_pairs(self, link_id: int) -> list[tuple[int, float]]:
        """``(other_id, distance)`` for enabled radios in range, ascending."""
        radio = self._radios.get(link_id)
        if radio is None or not radio.enabled:
            return []
        px, py = radio.position
        block = self._index.candidates_with_positions(radio.position)
        out = []
        for other, (ox, oy) in zip(block.id_arr.tolist(), block.pos_arr.tolist()):
            if other == link_id:
                continue
            dx, dy = px - ox, py - oy
            d = math.sqrt(dx * dx + dy * dy)
            if d <= self.radio_range:
                out.append((other, d))
        return out

    def neighbors(self, link_id: int) -> list[int]:
        return [other for other, _ in self.in_range_pairs(link_id)]

    def broadcast(self, frame: Frame) -> int:
        sender = self._radios.get(frame.src_link)
        if sender is None or not sender.enabled:
            return 0
        self.total_frames += 1
        self.total_bytes += frame.size
        sender.frames_sent += 1
        sender.bytes_sent += frame.size
        hook = self.fault_hook
        count = 0
        for other_id, dist in self.in_range_pairs(frame.src_link):
            count += 1
            fx = frame
            if hook is not None:
                fx = hook(frame.src_link, other_id, frame)
                if fx is None:
                    self.suppressed_frames += 1
                    continue  # no loss draw
            if self._rng.random() < self.loss_rate:
                self.dropped_frames += 1
                continue
            delay = self._delivery_delay(frame.size, dist)
            self.sim.schedule(delay, self._deliver, other_id, fx)
        return count


@contextmanager
def oracle_medium(medium_cls: type[WirelessMedium] = OracleMedium):
    """Scenarios built inside this block get a ``medium_cls`` medium
    (an :class:`OracleMedium` unless told otherwise)."""
    with mock.patch.object(builder_module, "WirelessMedium", medium_cls):
        yield
