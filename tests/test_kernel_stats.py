"""Kernel profiling hooks: zero-cost when off, observation-only when on.

The two contracts under test:

* **disabled == absent** -- an uninstrumented simulator carries no sink,
  its summaries contain no ``kernel_stats`` block, and nothing about its
  behavior changes when another simulator happens to be instrumented;
* **enabled == observation-only** -- an instrumented run executes the
  byte-identical simulation (traces, metrics, clock, RNG) and the sink's
  deterministic counters (heap high-water, cancelled skips, handler call
  counts) reflect exactly what the kernel did, including across PR 4's
  mid-run auto-compaction scenario.
"""

from __future__ import annotations

import pytest

from conftest import chain_scenario
from repro.obs.kernel_stats import KernelStats, handler_kind
from repro.sim.kernel import AUTO_COMPACT_MIN_HEAP, Simulator


# -- sink mechanics ----------------------------------------------------------

def test_stats_absent_by_default():
    sim = Simulator()
    assert sim.stats is None
    assert sim.stats_summary() is None
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.stats is None


def test_enable_returns_sink_and_disable_detaches_it():
    sim = Simulator()
    stats = sim.enable_stats()
    assert sim.stats is stats
    assert isinstance(stats, KernelStats)
    assert sim.disable_stats() is stats
    assert sim.stats is None
    assert sim.disable_stats() is None


def test_handler_kind_uses_qualname():
    assert handler_kind(Simulator.run) == "Simulator.run"
    sim = Simulator()
    assert handler_kind(sim.run) == "Simulator.run"


# -- enabled vs disabled: identical observable simulation --------------------

def _run_reference_scenario(instrumented: bool):
    scenario = chain_scenario(n=4, seed=7).build()
    scenario.trace.enabled = True  # the trace is part of what is compared
    if instrumented:
        scenario.enable_kernel_stats()
    scenario.bootstrap_all()
    scenario.send_data(scenario.hosts[0], scenario.hosts[3].ip, b"ping")
    scenario.run(duration=10.0)
    return scenario


def test_instrumented_run_is_observation_identical():
    plain = _run_reference_scenario(instrumented=False)
    instrumented = _run_reference_scenario(instrumented=True)

    plain_summary = plain.metrics.summary()
    inst_summary = instrumented.metrics.summary()
    stats_block = inst_summary.pop("kernel_stats")
    assert "kernel_stats" not in plain_summary
    assert inst_summary == plain_summary

    plain_trace = [str(e) for e in plain.trace.filter()]
    assert plain_trace
    assert plain_trace == [str(e) for e in instrumented.trace.filter()]
    assert plain.sim.now == instrumented.sim.now
    assert plain.sim.events_executed == instrumented.sim.events_executed

    # the block itself is coherent
    assert stats_block["events_executed"] == instrumented.sim.events_executed
    assert stats_block["heap_high_water"] >= 1
    assert stats_block["wall_seconds"] > 0.0
    assert stats_block["events_per_sec"] > 0.0
    assert stats_block["handlers"]
    for entry in stats_block["handlers"].values():
        assert entry["calls"] >= 1
        assert entry["wall_ms"] >= 0.0


def test_handler_buckets_key_on_qualified_names():
    scenario = _run_reference_scenario(instrumented=True)
    handlers = scenario.metrics.summary()["kernel_stats"]["handlers"]
    assert "BootstrapManager.start" in handlers
    total_calls = sum(entry["calls"] for entry in handlers.values())
    assert total_calls == scenario.sim.events_executed


# -- deterministic counters on bare simulators -------------------------------

def test_cancelled_skips_and_high_water_counted():
    sim = Simulator()
    stats = sim.enable_stats()
    keep = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    drop = [sim.schedule(0.5, lambda: None) for _ in range(3)]
    for h in drop:
        h.cancel()
    sim.run()
    assert stats.cancelled_skipped == 3
    assert stats.heap_high_water == len(keep) + len(drop)
    assert stats.instrumented_events == len(keep)
    summary = sim.stats_summary()
    assert summary["events_cancelled"] == 3
    assert summary["heap_high_water"] == 7
    assert summary["events_executed"] == 4
    assert summary["events_pending"] == 0


def test_high_water_covers_mid_run_auto_compaction():
    """PR 4's regression scenario, instrumented: the sink must observe
    the pre-compaction heap peak (compaction fires mid-callback, between
    the run loop's boundary samples) and fold the compaction count in."""
    sim = Simulator()
    stats = sim.enable_stats()
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

    # same simulation outcome as the uninstrumented original test
    assert fired == ["post-compaction"] + list(range(cancelled, n))
    assert sim.cancelled_pending == 0

    # n scheduled events + the cancel_many trigger were all in the heap
    # when cancellation (and with it the compaction peak) hit
    assert stats.heap_high_water == n + 1
    summary = sim.stats_summary()
    assert summary["compactions"] == sim.compactions >= 1
    # compaction dropped most cancelled entries before they were popped,
    # so skips-on-pop only see the post-compaction stragglers
    assert summary["events_cancelled"] == stats.cancelled_skipped < 100
    assert summary["events_executed"] == sim.events_executed


def test_step_feeds_the_sink_too():
    sim = Simulator()
    stats = sim.enable_stats()
    handle = sim.schedule(0.5, lambda: None)
    sim.schedule(1.0, lambda: None)
    handle.cancel()
    assert sim.step() is True  # skips the cancelled entry, runs the live one
    assert sim.step() is False
    assert stats.cancelled_skipped == 1
    assert stats.heap_high_water == 2


def test_shared_sink_accumulates_across_runs():
    sim = Simulator()
    stats = sim.enable_stats()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert stats.instrumented_events == 2
    assert sim.events_executed == 2


def test_events_per_sec_zero_before_any_run():
    stats = KernelStats()
    assert stats.events_per_sec == 0.0
    assert stats.summary()["events_per_sec"] == 0.0
