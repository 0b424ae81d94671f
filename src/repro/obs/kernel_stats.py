"""Opt-in kernel profiling: the :class:`KernelStats` sink.

A :class:`~repro.sim.kernel.Simulator` runs with zero instrumentation
by default -- its hot loop is untouched and nothing here is imported.
``Simulator.enable_stats()`` attaches a sink and switches execution to
an instrumented twin of the loop that additionally tracks:

* heap high-water mark in heap entries, where a broadcast's batch of
  copies is one entry (sampled at event boundaries and compactions),
* cancelled entries skipped on pop,
* per-handler-kind call counts and wall-time buckets (keyed by the
  callback's qualified name),
* wall-clock time inside the run loop, for an events/sec rate.

Counters (high-water, skip counts, handler call counts) are
deterministic for a deterministic simulation; wall-clock fields
(``wall_seconds``, ``events_per_sec``, ``wall_ms`` buckets) are
machine-dependent and must never be written into byte-stable artifacts
-- which is why campaign run records never include them and the
``kernel_stats`` block only appears in a
:meth:`~repro.metrics.collector.MetricsCollector.summary` when a sink
was explicitly attached.
"""

from __future__ import annotations


def handler_kind(callback) -> str:
    """Bucket key for a callback: its qualified name (module-less).

    Bound methods of protocol components all carry distinct qualnames
    (``SecureDSRRouter._on_rreq``, ``WirelessMedium._deliver``, ...),
    which is exactly the granularity a "where did the time go" panel
    needs.
    """
    return getattr(callback, "__qualname__", None) or repr(callback)


class KernelStats:
    """Mutable instrumentation counters filled by the instrumented loop."""

    __slots__ = (
        "heap_high_water",
        "cancelled_skipped",
        "instrumented_events",
        "wall_seconds",
        "handler_calls",
        "handler_wall",
    )

    def __init__(self):
        self.heap_high_water = 0
        self.cancelled_skipped = 0
        self.instrumented_events = 0
        self.wall_seconds = 0.0
        self.handler_calls: dict[str, int] = {}
        self.handler_wall: dict[str, float] = {}

    def observe_heap(self, size: int) -> None:
        if size > self.heap_high_water:
            self.heap_high_water = size

    def observe_handler(self, kind: str, wall: float) -> None:
        self.handler_calls[kind] = self.handler_calls.get(kind, 0) + 1
        self.handler_wall[kind] = self.handler_wall.get(kind, 0.0) + wall

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instrumented_events / self.wall_seconds

    def summary(self, sim=None) -> dict:
        """JSON-clean digest; pass the simulator to fold in its counters.

        Deterministic fields: ``events_executed``, ``events_cancelled``,
        ``heap_high_water``, ``compactions``, ``events_pending`` and the
        per-handler ``calls``.  Wall-clock fields (``wall_seconds``,
        ``events_per_sec``, handler ``wall_ms``) vary run to run.
        """
        out = {
            "heap_high_water": self.heap_high_water,
            "events_cancelled": self.cancelled_skipped,
            "events_per_sec": round(self.events_per_sec, 1),
            "wall_seconds": round(self.wall_seconds, 6),
            "handlers": {
                kind: {
                    "calls": self.handler_calls[kind],
                    "wall_ms": round(self.handler_wall[kind] * 1e3, 3),
                }
                for kind in sorted(self.handler_calls)
            },
        }
        if sim is not None:
            out["events_executed"] = sim.events_executed
            out["events_pending"] = sim.events_pending
            out["compactions"] = sim.compactions
        return out
