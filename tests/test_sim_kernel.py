"""Unit tests for the discrete-event kernel."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim.kernel import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "low", priority=5)
    sim.schedule(1.0, fired.append, "high", priority=-5)
    sim.run()
    assert fired == ["high", "low"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_zero_delay_event_runs_after_current_callback():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer-start")
        sim.schedule(0.0, lambda: order.append("inner"))
        order.append("outer-end")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer-start", "outer-end", "inner"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the epoch boundary
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_when_queue_empty():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_bounds_execution():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_events_executed_counter_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    sim.run()
    assert sim.events_executed == 1


def test_drain_cancelled_compacts_heap():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for h in handles[:7]:
        h.cancel()
    assert sim.cancelled_pending == 7
    dropped = sim.drain_cancelled()
    assert dropped == 7
    assert sim.events_pending == 3
    assert sim.cancelled_pending == 0
    sim.run()
    assert sim.events_executed == 3


def test_cancelled_residue_is_tracked_through_pops():
    sim = Simulator()
    keep = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    drop = [sim.schedule(0.5, lambda: None) for _ in range(3)]
    for h in drop:
        h.cancel()
        h.cancel()  # idempotent: must not double-count
    assert sim.cancelled_pending == 3
    sim.run()
    assert sim.cancelled_pending == 0
    assert sim.events_executed == len(keep)


def test_heap_auto_compacts_when_cancelled_residue_dominates():
    from repro.sim.kernel import AUTO_COMPACT_MIN_HEAP

    sim = Simulator()
    n = AUTO_COMPACT_MIN_HEAP + 200
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
    # cancel until residue exceeds half the (large) heap: the kernel
    # must compact on its own, without an explicit drain_cancelled()
    cancelled = n // 2 + 2
    for h in handles[:cancelled]:
        h.cancel()
    assert sim.compactions >= 1
    # compaction fired mid-loop, so at most the few post-compaction
    # cancels linger as residue -- not the thousands cancelled in total
    assert sim.cancelled_pending < 100
    assert sim.events_pending - sim.cancelled_pending == n - cancelled
    sim.run()
    assert sim.events_executed == n - cancelled


def test_auto_compaction_during_run_keeps_heap_alias_valid():
    """Auto-compaction fired by a callback cancelling handles mid-run()
    must not strand run()'s view of the heap: events scheduled after the
    compaction still execute, residue accounting stays non-negative, and
    no surviving event fires twice."""
    from repro.sim.kernel import AUTO_COMPACT_MIN_HEAP

    sim = Simulator()
    fired = []
    n = AUTO_COMPACT_MIN_HEAP + 200
    cancelled = n // 2 + 2
    handles = [sim.schedule(10.0 + i, fired.append, i) for i in range(n)]

    def cancel_many():
        for h in handles[:cancelled]:
            h.cancel()
        assert sim.compactions >= 1
        sim.schedule(1.0, fired.append, "post-compaction")

    sim.schedule(0.5, cancel_many)
    sim.run()
    assert fired == ["post-compaction"] + list(range(cancelled, n))
    assert sim.cancelled_pending == 0
    assert sim.events_pending == 0
    # a second run() must find nothing left over (no duplicated entries)
    executed = sim.events_executed
    sim.run()
    assert sim.events_executed == executed
    assert fired == ["post-compaction"] + list(range(cancelled, n))


def test_cancel_after_execution_is_not_counted_as_residue():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()  # event already fired: nothing is in the heap
    assert sim.cancelled_pending == 0


def test_periodic_timer_stopping_itself_leaves_no_phantom_residue():
    """A timer callback calling stop() cancels the event that is
    currently executing; that must not drift the compaction counter."""
    from repro.sim.process import PeriodicTimer

    sim = Simulator()
    timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
    timer.start()
    sim.run(until=10.0)
    assert timer.ticks == 1
    assert sim.cancelled_pending == 0


def test_small_heaps_never_auto_compact():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    for h in handles:
        h.cancel()
    assert sim.compactions == 0
    assert sim.events_pending == 100  # lazy residue, skipped on pop
    sim.run()
    assert sim.events_executed == 0


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_schedule_batch_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_batch([3.0, 1.0, 2.0], fired.append, [("c",), ("a",), ("b",)])
    sim.run()
    assert fired == ["a", "b", "c"]


def test_schedule_batch_is_fifo_identical_to_sequential_schedules():
    """Batch entries must interleave with normal schedules exactly as if
    they had been pushed by individual schedule() calls (seq order)."""

    def run(batch: bool):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "pre")
        if batch:
            sim.schedule_batch(
                [1.0, 1.0, 2.0], fired.append, [("b0",), ("b1",), ("b2",)]
            )
        else:
            for delay, tag in [(1.0, "b0"), (1.0, "b1"), (2.0, "b2")]:
                sim.schedule(delay, fired.append, tag)
        sim.schedule(1.0, fired.append, "post")
        sim.run()
        return fired, sim.events_executed

    assert run(True) == run(False)


def test_schedule_batch_respects_priority():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "normal")
    sim.schedule_batch([1.0], fired.append, [("urgent",)], priority=-1)
    sim.run()
    assert fired == ["urgent", "normal"]


def test_schedule_batch_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0, -0.5], lambda: None, [(), ()])


def test_schedule_batch_rejects_length_mismatch():
    """zip must not silently truncate: unequal sequences are a caller bug
    and must schedule nothing (batch entries cannot be cancelled)."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0, 2.0], lambda x: None, [("only-one",)])
    assert sim.events_pending == 0

    def bad_args():
        yield ("ok",)
        raise RuntimeError("generator blew up mid-batch")

    with pytest.raises(RuntimeError):
        sim.schedule_batch([1.0, 2.0], lambda x: None, bad_args())
    assert sim.events_pending == 0


def test_schedule_batch_empty_is_noop():
    sim = Simulator()
    sim.schedule_batch([], lambda: None, [])
    assert sim.events_pending == 0
    sim.run()
    assert sim.events_executed == 0


def test_schedule_batch_survives_heap_compaction():
    """drain_cancelled must keep batch entries (they cannot be cancelled)."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule(5.0, fired.append, "cancelled") for _ in range(6)]
    sim.schedule_batch([1.0, 2.0], fired.append, [("b0",), ("b1",)])
    for h in handles:
        h.cancel()
    assert sim.drain_cancelled() == 6
    assert sim.events_pending == 2
    sim.run()
    assert fired == ["b0", "b1"]


def test_schedule_batch_invalid_delay_schedules_nothing():
    """A bad delay anywhere in the batch must leave the heap untouched:
    batch entries cannot be cancelled, so a partial push would be
    unrecoverable."""
    sim = Simulator()
    fired = []
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0, -0.5, 2.0], fired.append, [("a",), ("b",), ("c",)])
    assert sim.events_pending == 0
    # seq was not consumed either: FIFO order with a later schedule is clean
    sim.schedule(1.0, fired.append, "only")
    sim.run()
    assert fired == ["only"]


# -- a batch is one heap entry, observably a sequence of schedules ----------

def test_a_batch_is_one_heap_entry_and_one_copy_a_plain_entry():
    sim = Simulator()
    sim.schedule_batch([3.0, 1.0, 2.0], print, [("c",), ("a",), ("b",)])
    assert len(sim._heap) == 1 and sim.events_pending == 3
    sim.schedule_batch([0.5], print, [("solo",)])
    assert len(sim._heap) == 2 and sim.events_pending == 4
    # the one-copy batch is the bare (callback, args) entry, first to pop
    assert sim._heap[0] == (0.5, 0, 3, (print, ("solo",)))


def test_a_callback_raising_mid_batch_leaves_the_rest_pending():
    fired = []

    def deliver(tag):
        fired.append(tag)
        if tag == "b1":
            raise RuntimeError("receiver crashed")

    sim = Simulator()
    sim.schedule_batch([1.0, 1.0, 2.0], deliver, [("b0",), ("b1",), ("b2",)])
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == ["b0", "b1"]
    assert sim.now == 1.0 and sim.events_executed == 2
    assert sim.events_pending == 1
    sim.run()
    assert fired == ["b0", "b1", "b2"]
    assert sim.events_pending == 0


def test_drain_cancelled_keeps_a_partly_delivered_batch():
    """A batch pushed back mid-run (another event came first) survives
    a compaction that callback triggers."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule(5.0, fired.append, "cancelled") for _ in range(4)]

    def compact():
        fired.append("compact")
        for h in handles:
            h.cancel()
        assert sim.drain_cancelled() == 4

    sim.schedule_batch([1.0, 3.0], fired.append, [("b0",), ("b1",)])
    sim.schedule(2.0, compact)
    sim.run()
    assert fired == ["b0", "compact", "b1"]
    assert sim.events_executed == 3 and sim.events_pending == 0


#: Delays on a dyadic grid: sums are exact, so an event scheduled from a
#: callback can land exactly on a copy's time, and delays often tie.
_DELAY = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)
_PRIORITY = st.integers(min_value=-1, max_value=1)
_LEAF = st.one_of(
    st.tuples(st.just("one"), _DELAY, _PRIORITY),
    st.tuples(st.just("batch"), st.lists(_DELAY, max_size=12), _PRIORITY),
)
#: A program: top-level schedules, each with the leaf schedules that
#: every event it fires makes in turn.
_PROGRAM = st.lists(
    st.tuples(_LEAF, st.lists(_LEAF, max_size=3)), min_size=1, max_size=6
)


def _load(program, batched: bool):
    """A simulator holding ``program``, and the log its callbacks fill.

    ``batched`` schedules each batch with ``schedule_batch``; otherwise
    each copy gets its own ``schedule`` call, the reference.
    """
    sim = Simulator()
    log = []

    def fire(tag, children):
        log.append((tag, sim.now, sim.events_executed, sim.events_pending))
        for j, child in enumerate(children):
            put(child, f"{tag}/{j}", ())

    def put(leaf, tag, children):
        kind, delay, priority = leaf
        if kind == "one":
            sim.schedule(delay, fire, tag, children, priority=priority)
            return
        args = [(f"{tag}.{k}", children) for k in range(len(delay))]
        if batched:
            sim.schedule_batch(delay, fire, args, priority=priority)
        else:
            for d, a in zip(delay, args):
                sim.schedule(d, fire, *a, priority=priority)

    for i, (leaf, children) in enumerate(program):
        put(leaf, str(i), tuple(children))
    return sim, log


def _state(sim):
    return (sim.now, sim.events_executed, sim.events_pending)


def _run_program(program, batched: bool, loop: str, arg: int, instrumented: bool):
    sim, log = _load(program, batched)
    stats = sim.enable_stats() if instrumented else None
    marks = []
    if loop == "run":
        sim.run()
    elif loop == "until":
        # epochs of arg/8 s against delays on a 1/4 s grid: some end
        # between two copies of a batch, some exactly on a copy's time
        for k in range(1, 40):
            sim.run(until=k * arg * 0.125)
            marks.append(_state(sim))
        sim.run()
    elif loop == "max_events":
        while sim.events_pending:
            sim.run(max_events=arg)
            marks.append(_state(sim))
    else:
        while sim.step():
            marks.append(_state(sim))
    marks.append(_state(sim))
    if stats is not None:
        # step() fills the handler buckets, not the run loop's count
        assert stats.instrumented_events == (
            sim.events_executed if loop != "step" else 0)
        assert sum(stats.handler_calls.values()) == sim.events_executed
    return log, marks


@settings(max_examples=150, deadline=None)
@given(_PROGRAM, st.sampled_from(["run", "until", "max_events", "step"]),
       st.integers(min_value=1, max_value=5), st.booleans())
def test_a_batch_runs_as_its_sequence_of_schedules(program, loop, arg,
                                                   instrumented):
    """Firing order, the clock each callback sees, events_executed and
    events_pending (in each callback and after each epoch) match the
    same program built from one schedule() per copy, under every way
    of driving the run loop, instrumented or not."""
    want = _run_program(program, False, loop, arg, instrumented)
    got = _run_program(program, True, loop, arg, instrumented)
    assert got == want
