"""Correctness tests for the column summaries behind campaign reports.

The contract under test: :class:`ExactSum` is the correctly-rounded sum
whatever the insertion order (what keeps ``report --follow`` byte-equal
to a post-hoc report), :func:`quantile_sorted` agrees with the metrics
collector's percentile, and an exact campaign report carries
mean/min/max only.
"""

from __future__ import annotations

import math
import random

from repro.campaign.aggregate import aggregate
from repro.metrics.collector import percentile
from repro.obs.sketch import ExactSum, quantile_sorted


def _values(n, seed=3):
    rng = random.Random(seed)
    return [rng.uniform(-50.0, 150.0) for _ in range(n)]


# -- ExactSum ----------------------------------------------------------------

def test_exact_sum_matches_fsum():
    values = _values(500) + [1e16, 1.0, -1e16, 1e-9] * 25
    acc = ExactSum()
    for v in values:
        acc.add(v)
    assert acc.value() == math.fsum(values)


def test_exact_sum_is_order_independent():
    """The property report --follow hangs on: completion order vs index
    order must produce the same mean bits."""
    values = _values(300) + [1e15, -1e15, 0.1, 0.2, 0.3]
    sums = []
    for seed in range(5):
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        acc = ExactSum()
        for v in shuffled:
            acc.add(v)
        sums.append(acc.value())
    assert len(set(sums)) == 1
    # naive left-to-right addition would NOT survive this reordering
    assert sums[0] == math.fsum(values)


def test_exact_sum_merge_equals_single_feed():
    values = _values(200)
    left, right, whole = ExactSum(), ExactSum(), ExactSum()
    for v in values[:90]:
        left.add(v)
    for v in values[90:]:
        right.add(v)
    for v in values:
        whole.add(v)
    left.merge(right)
    assert left.value() == whole.value()


# -- quantile_sorted -------------------------------------------------------

def test_quantile_sorted_agrees_with_collector_percentile():
    values = _values(37)
    ordered = sorted(values)
    for q in (0.0, 25.0, 50.0, 95.0, 100.0):
        assert quantile_sorted(ordered, q) == percentile(values, q)


# -- campaign reports: exact columns only -----------------------------------

def _fake_records(n_groups=3, replicates=10, seed=13):
    rng = random.Random(seed)
    records = []
    index = 0
    for g in range(n_groups):
        for _ in range(replicates):
            records.append({
                "run_id": f"fake-{index:04d}",
                "index": index,
                "status": "ok",
                "params": {"router": f"r{g}"},
                "summary": {
                    "pdr": rng.uniform(0.5, 1.0),
                    "latency_p50": rng.uniform(0.001, 0.2),
                    "control_bytes": float(rng.randint(1000, 9000)),
                },
            })
            index += 1
    return records


def test_exact_mode_report_has_no_sketch_fields():
    report = aggregate(_fake_records())
    assert "summary_mode" not in report
    for group in report["groups"]:
        for stats in group["metrics"].values():
            assert set(stats) == {"mean", "min", "max"}
