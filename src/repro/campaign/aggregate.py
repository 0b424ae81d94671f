"""Aggregation of campaign run records into reports and JSONL files.

Records are grouped by their sweep parameters (replicates of the same
grid point share a group) and each numeric summary column is reduced to
mean/min/max in one pass over the records.
Everything is JSON-clean and deterministically ordered, so reports diff
cleanly across PRs and double as regression baselines.

A report does not depend on record order: a mean is the correctly
rounded ``math.fsum`` of its column, groups sort by params and failed
runs by index.  So a live ``report --follow`` that sees records in
completion order produces the byte-identical report a post-hoc pass
over the finalized, index-sorted file does.  :func:`read_jsonl_partial`
is the one reader of a results file, finished or in flight.
"""

from __future__ import annotations

import json
import math
import os
import sys

from repro.metrics.reports import format_table

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


def read_jsonl_partial(path) -> tuple[list[dict], list[str]]:
    """The one reader of a results file, finished, in flight or crashed.

    The streaming runner appends one fsync'd line per record, so the
    only damage a crash can inflict is a *torn final line* (the write
    that was in flight; for a live reader, simply the next record still
    being written).  That tail is discarded and reported in the
    returned warnings; the complete records before it are kept.  A
    final line that parses but lacks its newline is a complete record
    whose newline has not landed yet, and is kept (JSON objects have no
    valid proper prefix, so this is unambiguous).  Malformed content
    anywhere *before* the final line means the file was not produced by
    the append-only writer and raises ``ValueError`` rather than
    silently dropping data.

    Returns ``(records, warnings)``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # only the last non-blank line can be torn by a crash or a live writer
    last = max((n for n, raw in enumerate(lines) if raw.strip()), default=-1)
    records: list[dict] = []
    warnings: list[str] = []
    for n, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            if n == last:
                warnings.append(f"{path}: discarded torn final line {n + 1} "
                                f"(crash mid-write: {exc})")
                break
            raise ValueError(f"{path}: corrupt line {n + 1}: {exc}") from exc
        records.append(record)
    return records, warnings


def load_results(path) -> list[dict]:
    """Load records from a results file or a campaign output directory.

    Reads through :func:`read_jsonl_partial`, so an in-flight or crashed
    file loads its complete records; each torn-tail warning goes to
    stderr.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    records, warnings = read_jsonl_partial(path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return records


def group_key(record: dict) -> str:
    """Stable grouping key: the sweep parameters, canonically encoded."""
    return json.dumps(record.get("params", {}), sort_keys=True)


def aggregate(records: list[dict]) -> dict:
    """Reduce records to per-group mean/min/max of every summary column.

    One pass collects each group's numeric column values as floats; a
    mean is ``math.fsum(values) / len(values)``, the correctly rounded
    sum, which depends only on the values and never on their order.
    Groups are emitted sorted by params and failed runs sorted by run
    index, so the same records in any order (file order, completion
    order, index order) give the same report bytes.
    """
    groups: dict[str, dict] = {}
    failed: list[tuple] = []
    runs = ok = quarantined = 0
    for record in records:
        runs += 1
        if record.get("status") != "ok":
            # Quarantined runs (a worker-killer that exhausted its retry
            # budget -- see the runner) are failures with their own
            # count: they carry no summary, so they can never leak into
            # the metric columns below, but they must stay visible in
            # the failed list rather than silently shrinking the matrix.
            if record.get("status") == "quarantined":
                quarantined += 1
            failed.append((
                record.get("index", runs),
                {"run_id": record["run_id"], "status": record["status"],
                 "error": record.get("error", "")},
            ))
            continue
        ok += 1
        group = groups.setdefault(group_key(record), {"runs": 0, "columns": {}})
        group["runs"] += 1
        columns = group["columns"]
        for name, value in record["summary"].items():
            if isinstance(value, (int, float)):
                columns.setdefault(name, []).append(float(value))
    return {
        "runs": runs,
        "ok": ok,
        "quarantined": quarantined,
        "failed": [entry for _, entry in sorted(failed, key=lambda item: item[0])],
        "groups": [{
            "params": json.loads(key),
            "runs": groups[key]["runs"],
            "metrics": {
                name: {"mean": math.fsum(values) / len(values),
                       "min": min(values), "max": max(values)}
                for name, values in sorted(groups[key]["columns"].items())
            },
        } for key in sorted(groups)],
    }


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
