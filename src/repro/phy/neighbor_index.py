"""Incremental neighbor index for the wireless medium.

The medium answers one geometric question on every transmission: *which
radios might be within ``radio_range`` of this position?*  The naive
answer -- scan every attached radio -- costs O(N) per frame and makes a
network-wide flood O(N^2), which caps campaign sweeps at a few dozen
nodes.  :class:`SpatialHashGrid` replaces the scan with a uniform grid
of square cells of side ``cell_size == radio_range``: a radio at
position ``p`` lives in cell ``(floor(px / s), floor(py / s))``, and
every point within ``radio_range`` of ``p`` necessarily falls in the
3x3 block of cells around ``p``'s cell.  Range queries therefore touch
only local occupancy, and ``attach``/``detach``/``set_position``/
``set_enabled`` maintain the structure incrementally in O(1), so a
flood round over a bounded-density deployment is O(N * degree) instead
of O(N^2).

Candidate-block cache
---------------------

The grid additionally answers
``candidates_with_positions(position)``: the enabled candidates *with*
their positions, materialised once per cell block as a
:class:`CandidateBlock` (sorted ids + a numpy position matrix) and
cached until a mutation touches the block.  A broadcast-heavy static or
low-mobility scenario therefore stops re-walking (and re-sorting) the
3x3 cell block on every frame, and the broadcast pipeline gets its
distance computation as a single numpy subtraction instead of a
per-candidate dict walk.  ``insert``/``remove``/``move``/``set_enabled``
invalidate exactly the (up to nine) cached blocks whose 3x3 footprint
covers the mutated cell, so the cache never serves stale membership or
stale positions.

Determinism-ordering contract
-----------------------------

The index MUST honour the following contract, which is what keeps
grid-indexed runs **byte-identical** to a full scan of every radio:

1. ``candidates_near(position)`` returns a *superset* of every enabled
   radio within ``cell_size`` of ``position`` (false positives are fine;
   false negatives are not).  ``candidates_with_positions`` returns the
   same superset restricted to *enabled* radios (the medium draws no RNG
   for disabled ones), with positions exactly equal to those last
   supplied via ``insert``/``move``.
2. Candidates are yielded in **strictly ascending link-id order**.

The medium filters candidates with the exact unit-disk test and draws
exactly one ``phy/loss`` RNG variate per in-range receiver whose copy
the fault hook did not suppress.  Link ids
are assigned monotonically and never reused, so a full scan -- which
iterates the radios in insertion order -- also visits receivers in
ascending link-id order.  Under (1) + (2) the sequence of in-range
receivers, and therefore the sequence of loss draws, delivery events,
metrics, and trace lines, is the full scan's.  The full scan itself
survives as a test oracle (``tests/phy_oracle.py``), and any future
index implementation (k-d tree, sorted sweep, ...) must sort its
candidates the same way before yielding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class CandidateBlock(NamedTuple):
    """One cached answer to "who is (maybe) near this cell block?".

    Both arrays list the same radios in ascending link-id order.  Blocks
    are immutable once built -- a mutation replaces the cache entry
    rather than editing it, so a block handed to the medium can never
    change mid-broadcast.
    """

    id_arr: np.ndarray  # shape (k,), int64
    pos_arr: np.ndarray  # shape (k, 2), float64


_EMPTY_BLOCK = CandidateBlock(
    np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
)


def _build_block(ids: list[int], positions: list[tuple[float, float]]) -> CandidateBlock:
    if not ids:
        return _EMPTY_BLOCK
    return CandidateBlock(
        np.array(ids, dtype=np.int64),
        np.array(positions, dtype=np.float64).reshape(len(ids), 2),
    )


class SpatialHashGrid:
    """Uniform spatial-hash grid over square cells of side ``cell_size``.

    ``cell_size`` must equal the radio range for the 3x3-block query to
    be a correct superset (see the module docstring's contract).  The
    grid stores only *enabled* radios in its cells -- a disabled radio
    keeps its position record but occupies no cell, so churn-heavy
    scenarios do not pay for absent nodes -- and re-enters its current
    cell on re-enable.  Query results are cached per cell block and
    invalidated precisely (see "Candidate-block cache" above).
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        # cell key -> set of enabled link ids in that cell
        self._cells: dict[tuple[int, int], set[int]] = {}
        # link_id -> (position, enabled)
        self._links: dict[int, tuple[tuple[float, float], bool]] = {}
        # center cell key -> cached CandidateBlock for its 3x3 footprint
        self._block_cache: dict[tuple[int, int], CandidateBlock] = {}

    def __len__(self) -> int:
        return len(self._links)

    def __contains__(self, link_id: int) -> bool:
        return link_id in self._links

    @property
    def occupied_cells(self) -> int:
        """Non-empty cell count (introspection for tests/benchmarks)."""
        return sum(1 for members in self._cells.values() if members)

    @property
    def cached_blocks(self) -> int:
        """Live cached candidate blocks (introspection for tests)."""
        return len(self._block_cache)

    def _cell_of(self, position: tuple[float, float]) -> tuple[int, int]:
        s = self.cell_size
        return (int(position[0] // s), int(position[1] // s))

    def _cell_add(self, cell: tuple[int, int], link_id: int) -> None:
        self._cells.setdefault(cell, set()).add(link_id)

    def _cell_discard(self, cell: tuple[int, int], link_id: int) -> None:
        members = self._cells.get(cell)
        if members is not None:
            members.discard(link_id)
            if not members:
                del self._cells[cell]

    def _invalidate_around(self, cell: tuple[int, int]) -> None:
        """Drop every cached block whose 3x3 footprint covers ``cell``."""
        cache = self._block_cache
        if not cache:
            return
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cache.pop((cx + dx, cy + dy), None)

    # -- incremental maintenance ---------------------------------------
    def insert(self, link_id: int, position: tuple[float, float]) -> None:
        position = (float(position[0]), float(position[1]))
        self._links[link_id] = (position, True)
        cell = self._cell_of(position)
        self._cell_add(cell, link_id)
        self._invalidate_around(cell)

    def remove(self, link_id: int) -> None:
        entry = self._links.pop(link_id, None)
        if entry is None:
            return
        position, enabled = entry
        if enabled:
            cell = self._cell_of(position)
            self._cell_discard(cell, link_id)
            self._invalidate_around(cell)

    def move(self, link_id: int, position: tuple[float, float]) -> None:
        entry = self._links.get(link_id)
        if entry is None:
            return
        old_position, enabled = entry
        position = (float(position[0]), float(position[1]))
        self._links[link_id] = (position, enabled)
        if not enabled:
            return  # occupies no cell (and no cached block); re-enable places it
        old_cell, new_cell = self._cell_of(old_position), self._cell_of(position)
        if old_cell != new_cell:
            self._cell_discard(old_cell, link_id)
            self._cell_add(new_cell, link_id)
            self._invalidate_around(old_cell)
            self._invalidate_around(new_cell)
        else:
            # Same cell, new coordinates: membership is intact but any
            # cached block holds the stale position.
            self._invalidate_around(old_cell)

    def set_enabled(self, link_id: int, enabled: bool) -> None:
        entry = self._links.get(link_id)
        if entry is None:
            return
        position, was_enabled = entry
        if was_enabled == enabled:
            return
        self._links[link_id] = (position, enabled)
        cell = self._cell_of(position)
        if enabled:
            self._cell_add(cell, link_id)
        else:
            self._cell_discard(cell, link_id)
        self._invalidate_around(cell)

    # -- queries --------------------------------------------------------
    def candidates_near(self, position: tuple[float, float]) -> list[int]:
        """Enabled link ids in the 3x3 cell block around ``position``,
        in ascending link-id order (the determinism contract)."""
        return self.candidates_with_positions(position).id_arr.tolist()

    def candidates_with_positions(
        self, position: tuple[float, float]
    ) -> CandidateBlock:
        """The cached :class:`CandidateBlock` for ``position``'s cell."""
        key = self._cell_of(position)
        block = self._block_cache.get(key)
        if block is None:
            cx, cy = key
            cells = self._cells
            ids: list[int] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    members = cells.get((cx + dx, cy + dy))
                    if members:
                        ids.extend(members)
            ids.sort()
            links = self._links
            block = _build_block(ids, [links[lid][0] for lid in ids])
            self._block_cache[key] = block
        return block

