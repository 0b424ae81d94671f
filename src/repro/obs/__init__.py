"""Observability: column summaries, kernel stats, telemetry, live reports.

Everything in this package is dependency-free, deterministic, and
opt-in -- the simulation and campaign layers behave byte-identically
when none of it is enabled:

* :mod:`~repro.obs.sketch` -- order-independent, constant-memory
  column summaries (:class:`ExactSum` exactly-rounded sums behind
  :class:`MetricSketch`, the per-column state of campaign aggregation);
* :mod:`~repro.obs.kernel_stats` -- the :class:`KernelStats` sink the
  simulator kernel fills when profiling is enabled (events/sec, heap
  high-water, per-handler time buckets);
* :mod:`~repro.obs.telemetry` -- the runner's fsync'd
  ``telemetry.jsonl`` sidecar (per-batch wall time, worker id, rates),
  its v3 schema validator, and the one field checker every campaign
  sidecar schema uses;
* :mod:`~repro.obs.follow` -- incremental tailing of an in-flight
  ``results.jsonl`` for ``campaign report --follow``;
* :mod:`~repro.obs.trends` -- cross-campaign history rendered as
  terminal sparklines (optionally HTML).
"""

from repro.obs.kernel_stats import KernelStats, handler_kind
from repro.obs.sketch import ExactSum, MetricSketch, quantile_sorted

__all__ = [
    "ExactSum",
    "KernelStats",
    "MetricSketch",
    "handler_kind",
    "quantile_sorted",
]
