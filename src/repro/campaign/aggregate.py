"""Aggregation of campaign run records into reports and JSONL files.

Records are grouped by their sweep parameters (replicates of the same
grid point share a group) and each numeric summary column is reduced to
mean/min/max.
Everything is JSON-clean and deterministically ordered, so reports diff
cleanly across PRs and double as regression baselines.

Aggregation is *streaming*: :class:`StreamingAggregator` folds records
one at a time into constant-memory :class:`~repro.obs.sketch.MetricSketch`
accumulators, so a 10^5-run campaign aggregates without ever buffering
per-column value lists.  Means are exactly rounded
(:class:`~repro.obs.sketch.ExactSum`), hence independent of record
order -- a live ``report --follow`` that consumes records in completion
order produces the byte-identical report a post-hoc pass over the
finalized, index-sorted file does.
"""

from __future__ import annotations

import json
import os

from repro.metrics.reports import format_table
from repro.obs.sketch import MetricSketch

#: Columns shown in the human-readable report table (all columns are
#: still present in ``report.json``).
TABLE_METRICS = [
    "pdr",
    "latency_p50",
    "latency_p95",
    "control_bytes",
    "crypto_ops_total",
    "bootstrap_time_mean",
]


def write_jsonl(path, records: list[dict]) -> None:
    """One sorted-key JSON object per line; byte-stable for diffing."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_json_artifact(path, data) -> None:
    """Canonical pretty-printed JSON artifact (``indent=2, sort_keys``).

    The one serializer behind ``spec.json``/``report.json`` wherever
    they are written (checkpoint begin and finalize), so the
    byte-identity contract between a merged and a single-host campaign
    can never be broken by formatting drift.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_artifacts(out_dir, report: dict) -> None:
    """Write ``report.json`` + ``report.txt`` for a finalized campaign."""
    write_json_artifact(os.path.join(out_dir, "report.json"), report)
    with open(os.path.join(out_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report_text(report) + "\n")


def read_jsonl(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def tail_jsonl(path, offset: int = 0) -> tuple[list[dict], list[str], int]:
    """Incremental recovery parser: parse records appended since ``offset``.

    The primitive behind both crash recovery and live ``report
    --follow``: instead of re-reading the whole file, it seeks to a
    byte ``offset`` (0 for the first read, the previously returned
    offset afterwards) and parses only what the append-only writer has
    added since.  Returns ``(records, warnings, next_offset)`` where
    ``next_offset`` covers exactly the complete records consumed.

    A final line that does not parse -- torn by a crash mid-write, or
    simply still in flight from a live writer -- is *not* consumed: it
    is reported in ``warnings`` and excluded from ``next_offset``, so a
    later call re-reads it once (if ever) it completes.  A final line
    that parses but lacks its newline is a complete record whose
    newline has not landed yet; it is consumed (JSON objects have no
    valid proper prefix, so this is unambiguous).  Malformed content
    anywhere *before* the final line means the file was not produced by
    the append-only writer and raises ``ValueError`` rather than
    silently dropping data.
    """
    with open(path, "rb") as fh:
        if offset:
            fh.seek(offset)
        chunk = fh.read()
    records: list[dict] = []
    warnings: list[str] = []
    consumed = 0
    lines = chunk.split(b"\n")
    fragment = lines.pop()  # bytes after the last newline ("" if none)
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped:
            consumed += len(raw) + 1
            continue
        try:
            record = json.loads(stripped)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            if lineno == len(lines) and not fragment.strip():
                warnings.append(
                    f"{path}: discarded torn final line {lineno} "
                    f"(crash mid-write: {exc})"
                )
                break
            raise ValueError(f"{path}: corrupt line {lineno}: {exc}") from exc
        records.append(record)
        consumed += len(raw) + 1
    else:
        if fragment.strip():
            try:
                record = json.loads(fragment.strip())
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                warnings.append(
                    f"{path}: discarded torn final line {len(lines) + 1} "
                    f"(crash mid-write: {exc})"
                )
            else:
                records.append(record)
                consumed += len(fragment)
    return records, warnings, offset + consumed


def read_jsonl_partial(path, offset: int = 0) -> tuple[list[dict], list[str]]:
    """Recovery parser for an in-flight or crash-interrupted results file.

    The streaming runner appends one fsync'd line per record, so the
    only damage a crash can inflict is a *torn final line* (the write
    that was in flight).  That tail is discarded and reported in the
    returned warnings; the complete records before it are kept.
    Malformed content anywhere *other* than the final line means the
    file was not produced by the append-only writer and raises
    ``ValueError`` rather than silently dropping data.

    Returns ``(records, warnings)``; incremental consumers that need to
    resume where they left off use :func:`tail_jsonl` directly.
    """
    records, warnings, _ = tail_jsonl(path, offset)
    return records, warnings


def load_results(path) -> list[dict]:
    """Load records from a results file or a campaign output directory."""
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    return read_jsonl(path)


def group_key(record: dict) -> str:
    """Stable grouping key: the sweep parameters, canonically encoded."""
    return json.dumps(record.get("params", {}), sort_keys=True)


class StreamingAggregator:
    """Constant-memory, order-independent reduction of run records.

    Feed records one at a time with :meth:`add` -- in any order: file
    order, completion order, index order -- and :meth:`report` yields
    the same bytes, because per-column state is a
    :class:`~repro.obs.sketch.MetricSketch` (exactly-rounded mean,
    exact min/max) rather than a buffered value list, and failed-run
    entries are emitted sorted by run index.

    Memory is O(groups x columns + failures), independent of run count.
    """

    def __init__(self):
        self._groups: dict[str, dict] = {}
        self._failed: list[tuple] = []
        self._runs = 0
        self._ok = 0
        self._quarantined = 0

    def add(self, record: dict) -> None:
        self._runs += 1
        if record.get("status") != "ok":
            # Quarantined runs (a worker-killer that exhausted its retry
            # budget -- see the runner) are failures with their own
            # count: they carry no summary, so they can never leak into
            # the metric sketches below, but they must stay visible in
            # the failed list rather than silently shrinking the matrix.
            if record.get("status") == "quarantined":
                self._quarantined += 1
            self._failed.append((
                record.get("index", self._runs),
                {"run_id": record["run_id"], "status": record["status"],
                 "error": record.get("error", "")},
            ))
            return
        self._ok += 1
        group = self._groups.setdefault(
            group_key(record), {"runs": 0, "columns": {}}
        )
        group["runs"] += 1
        columns = group["columns"]
        for name, value in record["summary"].items():
            if isinstance(value, (int, float)):
                sketch = columns.get(name)
                if sketch is None:
                    sketch = columns[name] = MetricSketch()
                sketch.add(value)

    def add_all(self, records) -> "StreamingAggregator":
        for record in records:
            self.add(record)
        return self

    @property
    def runs_seen(self) -> int:
        return self._runs

    def report(self) -> dict:
        """The aggregate report over everything added so far."""
        groups = []
        for key in sorted(self._groups):
            group = self._groups[key]
            groups.append({
                "params": json.loads(key),
                "runs": group["runs"],
                "metrics": {
                    name: group["columns"][name].stats()
                    for name in sorted(group["columns"])
                },
            })
        return {
            "runs": self._runs,
            "ok": self._ok,
            "quarantined": self._quarantined,
            "failed": [entry for _, entry in sorted(
                self._failed, key=lambda item: item[0]
            )],
            "groups": groups,
        }


def aggregate(records: list[dict]) -> dict:
    """Reduce records to per-group mean/min/max of every summary column.

    Implemented on :class:`StreamingAggregator`, so a one-shot
    aggregation and an incremental one over the same records are
    byte-identical.
    """
    return StreamingAggregator().add_all(records).report()


def _value_label(value) -> str:
    if isinstance(value, dict):
        # compact structured values: show the discriminating fields only
        kind = value.get("kind")
        if kind is not None:
            extras = [f"{k}={value[k]}" for k in ("n", "clusters") if k in value]
            return f"{kind}({', '.join(extras)})" if extras else str(kind)
        return json.dumps(value, sort_keys=True)
    if isinstance(value, list):
        return f"[{len(value)} item(s)]" if value and isinstance(value[0], dict) \
            else json.dumps(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _params_label(params: dict) -> str:
    if not params:
        return "(base)"
    return " ".join(f"{k}={_value_label(params[k])}" for k in sorted(params))


def report_text(report: dict, metrics: list[str] | None = None) -> str:
    """Fixed-width table of per-group means for the headline metrics."""
    metrics = metrics or TABLE_METRICS
    rows = []
    for group in report["groups"]:
        row = [_params_label(group["params"]), group["runs"]]
        for name in metrics:
            stat = group["metrics"].get(name)
            row.append(f"{stat['mean']:.4g}" if stat else "-")
        rows.append(row)
    quarantined = report.get("quarantined", 0)
    title = f"Campaign aggregate ({report['ok']}/{report['runs']} runs ok"
    if quarantined:
        title += f", {quarantined} quarantined"
    table = format_table(
        ["params", "runs"] + metrics,
        rows,
        title=title + ")",
    )
    if report["failed"]:
        lines = [table, "", "Failed runs:"]
        for failure in report["failed"]:
            lines.append(
                f"  {failure['run_id']}: {failure['status']} {failure['error']}"
            )
        return "\n".join(lines)
    return table
