"""Observability: kernel stats, telemetry, live reports.

Everything in this package is dependency-free, deterministic, and
opt-in -- the simulation and campaign layers behave byte-identically
when none of it is enabled:

* :mod:`~repro.obs.kernel_stats` -- the :class:`KernelStats` sink the
  simulator kernel fills when profiling is enabled (events/sec, heap
  high-water, per-handler time buckets);
* :mod:`~repro.obs.telemetry` -- the runner's fsync'd
  ``telemetry.jsonl`` sidecar (per-batch wall time, worker id, rates),
  its v3 schema validator, and the one field checker every campaign
  sidecar schema uses;
* :mod:`~repro.obs.follow` -- ``campaign report --follow``: re-reads an
  in-flight ``results.jsonl`` on each poll, keeping each run index
  once, until every expected run has landed.
"""

from repro.obs.kernel_stats import KernelStats, handler_kind

__all__ = [
    "KernelStats",
    "handler_kind",
]
