"""The discrete-event simulation kernel.

A :class:`Simulator` owns a simulation clock and an event queue.  Heap
entries are plain ``(time, priority, seq, payload)`` tuples; ``seq`` is
a monotonically increasing insertion counter so that events scheduled
for the same instant fire in FIFO order, which makes every run
deterministic.  Because ``seq`` is unique, tuple comparison never
reaches ``payload`` -- heap ordering runs entirely in C, which matters:
comparisons during ``heappush``/``heappop`` are the single hottest
operation in a large simulation.

``payload`` is one of three entry kinds:

* an :class:`Event` -- the cancellable record behind an
  :class:`EventHandle`, pushed by :meth:`Simulator.schedule` and
  :meth:`Simulator.schedule_at`;
* a bare ``(callback, args)`` tuple -- a plain, uncancellable entry:
  a :meth:`Simulator.schedule_batch` of one copy;
* a batch -- a ``list`` of the undelivered copies of a larger
  ``schedule_batch`` (one broadcast's deliveries), each a ``(time,
  priority, seq, callback, args)`` tuple, latest first, so the next
  copy is ``batch[-1]`` and its key is the entry's key.  A copy
  compares with a heap entry directly (``seq`` is unique, so the
  comparison never reaches the callback).  The run loop delivers copies
  while the next one still sorts before the heap top, and pushes the
  batch back under the next copy's key as soon as another event comes
  first.  So a flood costs one push and one pop per frame, not per
  receiver, while the firing order, the clock and every counter stay
  those of one entry per copy.

The kernel deliberately has no notion of "processes" or coroutines: the
protocol stack is written in callback style, which profiles faster in
CPython and keeps stack traces shallow.  Convenience timer helpers live
in :mod:`repro.sim.process`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


@dataclass(slots=True)
class Event:
    """A cancellable scheduled callback (the payload of a heap entry).

    Events are never compared -- heap ordering is decided by the
    ``(time, priority, seq)`` prefix of the entry tuple -- so this is a
    plain record.  ``slots=True``: events are among the most allocated
    objects in a large simulation.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False
    #: Set once the kernel pops the entry; a later cancel() is then a
    #: pure no-op and must not count as heap residue.
    popped: bool = False


class EventHandle:
    """Cancellable reference to a scheduled :class:`Event`."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: "Simulator | None" = None):
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """The simulation time at which the event is due to fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        Cancellation is lazy: the heap entry stays in place and is skipped
        when popped, which is O(1) here at the cost of heap residue.  The
        kernel tracks the residue and compacts the heap automatically when
        cancelled entries dominate a large heap (see
        :meth:`Simulator.drain_cancelled`), so mobile large-N scenarios
        that cancel many MAC/retransmit timers stay O(live events).
        """
        if self._event.cancelled:
            return
        self._event.cancelled = True
        # Cancelling an event that already fired (e.g. a timer callback
        # stopping its own timer) leaves nothing in the heap -- counting
        # it as residue would drift the compaction trigger upward forever.
        if self._sim is not None and not self._event.popped:
            self._sim._on_cancel()


#: Heaps smaller than this are never auto-compacted: rebuilding a small
#: heap costs more than skipping its residue ever will.
AUTO_COMPACT_MIN_HEAP = 4096


def _entry_cancelled(entry: tuple) -> bool:
    """True when a heap entry's payload is a cancelled :class:`Event`
    (plain ``(callback, args)`` and batch payloads have no cancel
    path)."""
    payload = entry[3]
    return type(payload) is Event and payload.cancelled


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all randomness drawn through :meth:`rng`.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, seed: int = 0):
        self._heap: list[tuple] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._running = False
        self._seed = seed
        self._rng_streams: dict[str, Any] = {}
        self._events_executed = 0
        #: Undelivered batch copies beyond the one heap entry each queued
        #: batch occupies (a batch being delivered occupies none), so
        #: ``events_pending`` stays O(1).
        self._held_copies = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._stats = None  # opt-in KernelStats sink; None = uninstrumented

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def events_pending(self) -> int:
        """Number of events not yet run, including cancelled residue.

        Every undelivered batch copy counts, as it would as its own
        heap entry.
        """
        return len(self._heap) + self._held_copies

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still sitting in the heap."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """How many times the heap was auto-compacted."""
        return self._compactions

    # ------------------------------------------------------------------
    # instrumentation (opt-in; see repro.obs.kernel_stats)
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The attached :class:`~repro.obs.kernel_stats.KernelStats`
        sink, or ``None`` when the kernel runs uninstrumented."""
        return self._stats

    def enable_stats(self, stats=None):
        """Attach a stats sink and switch to the instrumented run loop.

        Returns the sink (a fresh
        :class:`~repro.obs.kernel_stats.KernelStats` unless one is
        passed in).  Instrumentation is observation-only -- it never
        touches the clock, the RNG streams, or event ordering, so an
        instrumented run executes the exact same simulation.  The
        *uninstrumented* path is a separate loop with zero added work,
        so leaving stats off costs nothing.
        """
        if stats is None:
            from repro.obs.kernel_stats import KernelStats

            stats = KernelStats()
        self._stats = stats
        stats.observe_heap(len(self._heap))
        return stats

    def disable_stats(self):
        """Detach and return the stats sink (``None`` if never enabled)."""
        stats, self._stats = self._stats, None
        return stats

    def stats_summary(self) -> dict | None:
        """The sink's JSON-clean digest with kernel counters folded in."""
        if self._stats is None:
            return None
        return self._stats.summary(self)

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str = "default"):
        """Return the named :class:`~repro.sim.rng.SimRNG` stream.

        Distinct streams are statistically independent and each is
        deterministically derived from ``(seed, stream)``, so adding a new
        consumer of randomness does not perturb existing streams.
        """
        from repro.sim.rng import SimRNG

        if stream not in self._rng_streams:
            self._rng_streams[stream] = SimRNG(self._seed, stream)
        return self._rng_streams[stream]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run after the
        current callback returns, in FIFO order.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self._now}"
            )
        event = Event(time, priority, self._seq, callback, args)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        return EventHandle(event, self)

    def schedule_batch(
        self,
        delays,
        callback: Callable[..., None],
        args_seq,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` once per ``(delay, args)`` pair.

        The bulk form of :meth:`schedule` for hot paths that fan one
        transmission out to many receivers.  The copies get consecutive
        ``seq`` numbers in iteration order and go into the heap as ONE
        entry: a batch holding them sorted by ``(time, seq)`` (a single
        copy is a plain ``(callback, args)`` entry; see the module
        docstring for the entry kinds).  The run loop delivers each copy
        as its own event, interleaved with every other event exactly as
        if each had been pushed by its own :meth:`schedule` call -- so a
        batch is observably identical to that sequence of calls: firing
        order (FIFO tie-breaking included), ``now`` in each callback,
        ``events_executed`` and ``events_pending``.  No copy gets an
        :class:`Event`/:class:`EventHandle`, so none can be cancelled.

        Both sequences are materialized, length-checked, and every delay
        validated before anything is pushed: an invalid batch schedules
        nothing (batch entries cannot be cancelled, so a partial push
        would be unrecoverable).
        """
        delays = delays if isinstance(delays, (list, tuple)) else list(delays)
        args_seq = args_seq if isinstance(args_seq, (list, tuple)) else list(args_seq)
        n = len(delays)
        if n != len(args_seq):
            raise SimulationError(
                f"schedule_batch length mismatch: {n} delays"
                f" vs {len(args_seq)} args"
            )
        for delay in delays:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})"
                )
        if n == 0:
            return
        now = self._now
        seq = self._seq
        self._seq = seq + n
        if n == 1:
            heapq.heappush(
                self._heap, (now + delays[0], priority, seq, (callback, args_seq[0]))
            )
            return
        batch = [
            (now + delay, priority, s, callback, args)
            for delay, s, args in zip(delays, range(seq, seq + n), args_seq)
        ]
        batch.sort(reverse=True)  # by (time, seq), latest first
        first = batch[-1]
        heapq.heappush(self._heap, (first[0], priority, first[2], batch))
        self._held_copies += n - 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Handle-cancel hook: count residue, auto-compact when it dominates.

        Compaction triggers only on heaps larger than
        ``AUTO_COMPACT_MIN_HEAP`` whose entries are more than half
        cancelled -- large mobile scenarios cancel thousands of MAC and
        retransmit timers, and without compaction the heap (and every
        push/pop) grows with *scheduled* rather than *live* events.
        """
        self._cancelled_pending += 1
        if (
            len(self._heap) > AUTO_COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self.drain_cancelled()
            self._compactions += 1

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue is empty."""
        stats = self._stats
        heap = self._heap
        while heap:
            if stats is not None:
                stats.observe_heap(len(heap))
            time, _, _, payload = heapq.heappop(heap)
            kind = type(payload)
            if kind is list:
                self._run_batch(payload, None, 1, stats)
                return True
            if kind is Event:
                payload.popped = True
                if payload.cancelled:
                    self._cancelled_pending -= 1
                    if stats is not None:
                        stats.cancelled_skipped += 1
                    continue
                callback, args = payload.callback, payload.args
            else:
                callback, args = payload
            self._now = time
            self._events_executed += 1
            if stats is not None:
                self._timed_call(stats, callback, args)
            else:
                callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so back-to-back
        ``run(until=...)`` calls behave like contiguous epochs.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            if self._stats is None:
                self._drain(until, max_events)
            else:
                self._drain_instrumented(until, max_events)
        finally:
            self._running = False

    def _drain(self, until: float | None, max_events: int | None) -> None:
        """The uninstrumented hot loop -- nothing beyond event dispatch."""
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if max_events is not None and executed >= max_events:
                return
            if until is not None and heap[0][0] > until:
                break
            time, _, _, payload = pop(heap)
            kind = type(payload)
            if kind is list:
                executed += self._run_batch(
                    payload, until,
                    None if max_events is None else max_events - executed, None,
                )
                continue
            if kind is Event:
                payload.popped = True
                if payload.cancelled:
                    self._cancelled_pending -= 1
                    continue
                callback, args = payload.callback, payload.args
            else:
                callback, args = payload
            self._now = time
            self._events_executed += 1
            executed += 1
            callback(*args)
        if until is not None and until > self._now:
            self._now = until

    def _drain_instrumented(self, until: float | None,
                            max_events: int | None) -> None:
        """Twin of :meth:`_drain` that feeds the attached stats sink.

        Identical event semantics (ordering, clock, cancellation); adds
        heap high-water sampling at each event boundary, cancelled-skip
        counting, and per-handler wall-time buckets (one call per batch
        copy).  Heap length peaks right after a callback returns
        (callbacks only push), so boundary sampling observes the true
        high-water mark between compactions.
        """
        from time import perf_counter

        stats = self._stats
        executed = 0
        events_before = self._events_executed
        heap = self._heap
        pop = heapq.heappop
        loop_started = perf_counter()
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    return
                if until is not None and heap[0][0] > until:
                    break
                stats.observe_heap(len(heap))
                time, _, _, payload = pop(heap)
                kind = type(payload)
                if kind is list:
                    executed += self._run_batch(
                        payload, until,
                        None if max_events is None else max_events - executed,
                        stats,
                    )
                    continue
                if kind is Event:
                    payload.popped = True
                    if payload.cancelled:
                        self._cancelled_pending -= 1
                        stats.cancelled_skipped += 1
                        continue
                    callback, args = payload.callback, payload.args
                else:
                    callback, args = payload
                self._now = time
                self._events_executed += 1
                executed += 1
                self._timed_call(stats, callback, args)
            if until is not None and until > self._now:
                self._now = until
        finally:
            stats.instrumented_events += self._events_executed - events_before
            stats.wall_seconds += perf_counter() - loop_started

    def _run_batch(self, batch: list, until: float | None,
                   budget: int | None, stats) -> int:
        """Deliver copies of ``batch``, just popped off the heap, in order.

        The batch's next copy runs at once: its key was the heap top.
        Each following copy runs too while it still sorts before the
        heap top, is due by ``until`` and ``budget`` copies (``None``:
        no limit) have not run.  Otherwise -- and also when a callback
        raises -- the batch goes back on the heap under its next copy's
        key, so undelivered copies stay pending.  ``stats`` is the sink
        of the instrumented loop, or ``None``.  Returns the number of
        copies delivered.
        """
        heap = self._heap
        ran = 0
        try:
            while True:
                time, _, _, callback, args = batch.pop()
                self._now = time
                self._events_executed += 1
                ran += 1
                if stats is None:
                    callback(*args)
                else:
                    self._timed_call(stats, callback, args)
                if not batch:
                    return ran
                copy = batch[-1]
                if (ran == budget or (heap and heap[0] < copy)
                        or (until is not None and copy[0] > until)):
                    return ran
                # the next copy leaves the batch's count: it is "popped"
                self._held_copies -= 1
                if stats is not None:
                    stats.observe_heap(len(heap) + 1)  # + this batch
        finally:
            if batch:
                copy = batch[-1]
                heapq.heappush(heap, (copy[0], copy[1], copy[2], batch))
                self._held_copies -= 1

    @staticmethod
    def _timed_call(stats, callback, args) -> None:
        from time import perf_counter

        from repro.obs.kernel_stats import handler_kind

        started = perf_counter()
        try:
            callback(*args)
        finally:
            stats.observe_handler(handler_kind(callback),
                                  perf_counter() - started)

    def drain_cancelled(self) -> int:
        """Compact the heap by dropping cancelled residue.  Returns count dropped.

        Runs automatically when cancelled residue exceeds half of a
        large (> ``AUTO_COMPACT_MIN_HEAP``-entry) heap; still callable
        explicitly for long simulations with unusual cancel patterns.
        Plain and batch entries cannot be cancelled and are always kept.
        """
        before = len(self._heap)
        if self._stats is not None:
            # the pre-compaction length is a heap peak the run loop's
            # boundary sampling cannot see (compaction fires mid-callback)
            self._stats.observe_heap(before)
        live = [entry for entry in self._heap if not _entry_cancelled(entry)]
        heapq.heapify(live)
        # Mutate in place rather than rebinding: auto-compaction can fire
        # from _on_cancel() while run() is mid-loop (a callback cancelling
        # handles), and run() holds a local alias to this list -- rebinding
        # would strand that alias on the stale heap.
        self._heap[:] = live
        self._cancelled_pending = 0
        return before - len(live)
