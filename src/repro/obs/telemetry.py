"""Runner telemetry: the fsync'd ``telemetry.jsonl`` sidecar.

When a campaign runs with telemetry enabled, the runner appends one
JSON object per event to ``telemetry.jsonl`` next to ``results.jsonl``:
a ``start`` record when execution begins, a ``batch`` record as each
worker batch lands (wall time, worker pid, runs/sec, retry marker), and
a ``finish`` record with campaign-level totals (overall rate, retry and
timeout counts).  Every line is fsync'd, so a crash loses at most the
record in flight -- the same durability contract as the results stream.

Telemetry records carry wall-clock measurements and are therefore *not*
deterministic; they live strictly outside the byte-compared artifacts
(``results.jsonl``, ``report.json``) and enabling them never changes
those files.  :func:`validate_telemetry_record` /
:func:`validate_telemetry_file` define the schema contract CI checks.

:func:`check_fields` and :func:`validate_jsonl` are the one field
checker behind every campaign sidecar schema: telemetry records here,
plus ``quarantine.jsonl``, ``merge-conflicts.jsonl`` and ``shard.json``
in :mod:`repro.campaign`.
"""

from __future__ import annotations

import json
import os

#: The record layout version; every record carries it as ``"v"``.  Only
#: v3 is read or written: ``start`` records carry the shard assignment
#: (shard_index, shard_count -- 0/1 for an unsharded run) and ``campaign
#: merge`` writes a ``merge`` record.  Older files are refused.
TELEMETRY_SCHEMA_VERSION = 3

#: Required fields per record kind (beyond the ``v``/``kind`` envelope).
_SCHEMA = {
    "start": {
        "campaign": str,
        "total_runs": int,
        "pending_runs": int,
        "workers": int,
        "batch_size": int,
        "resumed": bool,
        "shard_index": int,
        "shard_count": int,
    },
    "batch": {
        "seq": int,
        "runs": int,
        "ok": int,
        "failed": int,
        "wall_s": float,
        "runs_per_sec": float,
        "worker_pid": int,
        "retried": bool,
        "done": int,
        "total": int,
        # Crypto work summed over the batch's ok runs (from their frozen
        # summaries): logical sign/verify ops and LRU verify-cache hits.
        # Deterministic per run -- they ride along here so operators can
        # watch crypto load per batch without touching results.jsonl.
        "crypto_sign_ops": int,
        "crypto_verify_ops": int,
        "crypto_verify_cache_hits": int,
        # Fault-injection work over the batch's ok runs, same contract.
        "faults_injected": int,
        "re_dad_count": int,
    },
    # Written on SIGINT/SIGTERM graceful shutdown, after the last
    # ingested batch: the runs that were dispatched but never landed.
    # Distinguishes a torn tail (in_flight non-empty) from a campaign
    # that was stopped between batches -- `campaign resume` diagnostics
    # read this.  An interrupted file ends with `abandoned` instead of
    # `finish`.
    "abandoned": {
        "signal": str,
        "in_flight": list,
        "done": int,
        "total": int,
    },
    "finish": {
        "runs": int,
        "ok": int,
        "failed": int,
        "timeouts": int,
        "retries": int,
        "wall_s": float,
        "runs_per_sec": float,
    },
    # Written by `campaign merge`: what each shard contributed and what
    # was quarantined on the way in.
    "merge": {
        "campaign": str,
        "shards": int,
        "per_shard_runs": list,
        "conflicts": int,
        "gaps": int,
        "runs": int,
        "total": int,
        "complete": bool,
    },
}


def check_fields(entry, fields: dict, where: str) -> None:
    """Raise ``ValueError`` unless ``entry`` is an object with ``fields``.

    ``fields`` maps each required name to its type.  ``int`` rejects
    bools; ``float`` accepts ints too (JSON round-trips 1.0 -> 1
    sometimes); ``list`` means a list of ints (run counts or indices).
    Errors read ``"<where> missing field 'x'"`` and the like.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object, got {type(entry).__name__}")
    for name, expected in fields.items():
        if name not in entry:
            raise ValueError(f"{where} missing field {name!r}")
        value = entry[name]
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif expected is list:
            ok = isinstance(value, list) and all(
                isinstance(v, int) and not isinstance(v, bool) for v in value
            )
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise ValueError(
                f"{where} field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )


def validate_jsonl(path, check) -> int:
    """Call ``check(entry, where)`` on every line of a JSONL sidecar.

    Returns the number of entries.  ``where`` names the file and line,
    and a line that is not JSON raises ``ValueError`` the same way.
    """
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}:"
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where} {exc}") from exc
            check(entry, where)
            count += 1
    return count


def validate_telemetry_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the v3 schema."""
    if not isinstance(record, dict):
        raise ValueError(f"telemetry record must be an object, got {type(record).__name__}")
    if record.get("v") != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"telemetry schema version {record.get('v')!r} is not supported "
            f"(only v{TELEMETRY_SCHEMA_VERSION} is read)"
        )
    kind = record.get("kind")
    if kind not in _SCHEMA:
        raise ValueError(
            f"unknown telemetry record kind {kind!r} "
            f"(expected one of {sorted(_SCHEMA)})"
        )
    check_fields(record, _SCHEMA[kind], f"telemetry {kind!r} record")


def validate_telemetry_file(path) -> int:
    """Validate every record in a ``telemetry.jsonl``; returns the count.

    Checks the schema of each line plus the envelope invariants a whole
    file must satisfy: the first record is ``start`` (an execution
    narration) or ``merge`` (a ``campaign merge`` narration), ``start``
    appears at most once, and nothing follows a ``finish`` record.
    Raises ``ValueError`` on the first violation.
    """
    seen: set[str] = set()  # record kinds so far

    def check(record, where):
        try:
            validate_telemetry_record(record)
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from exc
        if "finish" in seen:
            raise ValueError(f"{where} record after 'finish'")
        if not seen and record["kind"] not in ("start", "merge"):
            raise ValueError(
                f"{where} first record must be 'start' or 'merge', "
                f"got {record['kind']!r}"
            )
        if seen and record["kind"] == "start":
            raise ValueError(f"{where} duplicate 'start'")
        seen.add(record["kind"])

    count = validate_jsonl(path, check)
    if count == 0:
        raise ValueError(f"{path}: empty telemetry file")
    return count


class TelemetryTracker:
    """Append-only, fsync'd writer for the ``telemetry.jsonl`` sidecar.

    One tracker per campaign execution; ``start``/``batch``/``finish``
    emit the corresponding record.  The file is truncated on open (a
    resume starts a fresh telemetry story -- the results checkpoint is
    the durable artifact, telemetry narrates one execution).  Safe to
    ``close()`` twice; every record hits the disk before the emitting
    call returns.
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        self._fh = open(self._path, "w", encoding="utf-8")
        self._seq = 0

    @property
    def path(self) -> str:
        return self._path

    def _emit(self, record: dict) -> None:
        record["v"] = TELEMETRY_SCHEMA_VERSION
        validate_telemetry_record(record)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def start(self, campaign: str, total_runs: int, pending_runs: int,
              workers: int, batch_size: int, resumed: bool,
              shard_index: int = 0, shard_count: int = 1) -> None:
        self._emit({
            "kind": "start",
            "campaign": str(campaign),
            "total_runs": int(total_runs),
            "pending_runs": int(pending_runs),
            "workers": int(workers),
            "batch_size": int(batch_size),
            "resumed": bool(resumed),
            "shard_index": int(shard_index),
            "shard_count": int(shard_count),
        })

    def batch(self, runs: int, ok: int, failed: int, wall_s: float,
              worker_pid: int, done: int, total: int,
              retried: bool = False, crypto_sign_ops: int = 0,
              crypto_verify_ops: int = 0,
              crypto_verify_cache_hits: int = 0,
              faults_injected: int = 0, re_dad_count: int = 0) -> None:
        self._seq += 1
        self._emit({
            "kind": "batch",
            "seq": self._seq,
            "runs": int(runs),
            "ok": int(ok),
            "failed": int(failed),
            "wall_s": round(float(wall_s), 6),
            "runs_per_sec": round(runs / wall_s, 3) if wall_s > 0 else 0.0,
            "worker_pid": int(worker_pid),
            "retried": bool(retried),
            "done": int(done),
            "total": int(total),
            "crypto_sign_ops": int(crypto_sign_ops),
            "crypto_verify_ops": int(crypto_verify_ops),
            "crypto_verify_cache_hits": int(crypto_verify_cache_hits),
            "faults_injected": int(faults_injected),
            "re_dad_count": int(re_dad_count),
        })

    def merge(self, campaign: str, shards: int, per_shard_runs,
              conflicts: int, gaps: int, runs: int, total: int,
              complete: bool) -> None:
        """Summary of one ``campaign merge``: what each shard contributed."""
        self._emit({
            "kind": "merge",
            "campaign": str(campaign),
            "shards": int(shards),
            "per_shard_runs": [int(n) for n in per_shard_runs],
            "conflicts": int(conflicts),
            "gaps": int(gaps),
            "runs": int(runs),
            "total": int(total),
            "complete": bool(complete),
        })

    def abandoned(self, signal_name: str, in_flight, done: int, total: int) -> None:
        """Graceful-shutdown marker: dispatched runs that never landed."""
        self._emit({
            "kind": "abandoned",
            "signal": str(signal_name),
            "in_flight": sorted(int(i) for i in in_flight),
            "done": int(done),
            "total": int(total),
        })

    def finish(self, runs: int, ok: int, failed: int, timeouts: int,
               retries: int, wall_s: float) -> None:
        self._emit({
            "kind": "finish",
            "runs": int(runs),
            "ok": int(ok),
            "failed": int(failed),
            "timeouts": int(timeouts),
            "retries": int(retries),
            "wall_s": round(float(wall_s), 6),
            "runs_per_sec": round(runs / wall_s, 3) if wall_s > 0 else 0.0,
        })

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
